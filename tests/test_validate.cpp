// Differential tests for trace::validate. The production validator must
// report exactly what the ordered-map reference (reference_validate.hpp)
// reports: the same issues, ranks and messages, in the same order. The
// inputs are every generator's trace, seeded event-level perturbations of
// them, hand-built traces that trip every check, and every decodable
// mutation of a small binary trace.
#include <gtest/gtest.h>

#include <array>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "codec_testing.hpp"
#include "reference_validate.hpp"
#include "trace/builder.hpp"
#include "trace/io.hpp"
#include "trace/validate.hpp"
#include "workloads/generators.hpp"

namespace hps::trace {
namespace {

TraceMeta meta(Rank n) {
  TraceMeta m;
  m.app = "diff";
  m.nranks = n;
  m.ranks_per_node = 4;
  m.machine = "cielito";
  return m;
}

/// Asserts both validators agree on `t`; returns the issues.
std::vector<ValidationIssue> expect_same_issues(const Trace& t, const std::string& what) {
  const auto want = reference::validate(t);
  const auto got = validate(t);
  EXPECT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i].rank, want[i].rank) << what << ", issue " << i;
    EXPECT_EQ(got[i].message, want[i].message) << what << ", issue " << i;
  }
  return got;
}

std::vector<std::pair<std::string, Trace>> small_generated_traces() {
  std::vector<std::pair<std::string, Trace>> out;
  for (const std::string& app : workloads::all_app_names()) {
    const auto& gen = workloads::generator_by_name(app);
    workloads::GenParams p;
    p.ranks = gen.pick_ranks(8, 64);
    p.ranks_per_node = 4;
    p.seed = 3;
    p.size_factor = 0.25;
    p.iter_factor = 0.1;
    EXPECT_GT(p.ranks, 0) << app;
    if (p.ranks > 0) out.emplace_back(app, gen.generate(p));
  }
  return out;
}

TEST(ValidateDifferential, GeneratedTracesAgree) {
  for (const auto& [app, t] : small_generated_traces())
    EXPECT_TRUE(expect_same_issues(t, app).empty()) << app;
}

// One to four random field edits, event deletions or duplications per case.
// Raw engine output, not a distribution, so the cases are the same on every
// standard library.
TEST(ValidateDifferential, PerturbedGeneratedTracesAgree) {
  std::mt19937_64 rng(0x7a11da7e);
  std::size_t with_issues = 0, cases = 0;
  for (const auto& [app, pristine] : small_generated_traces()) {
    const auto n = static_cast<std::uint64_t>(pristine.nranks());
    for (int k = 0; k < 40; ++k) {
      Trace t = pristine;
      const int edits = 1 + static_cast<int>(rng() % 4);
      for (int ed = 0; ed < edits; ++ed) {
        auto& evs = t.rank(static_cast<Rank>(rng() % n)).events;
        if (evs.empty()) continue;
        const std::size_t i = rng() % evs.size();
        Event& e = evs[i];
        switch (rng() % 10) {
          case 0: e.type = static_cast<OpType>(rng() % kNumOpTypes); break;
          case 1: e.peer = static_cast<Rank>(rng() % (n + 3)) - 2; break;
          case 2: e.tag = static_cast<Tag>(rng() % 4); break;
          case 3: e.comm = static_cast<CommId>(rng() % (t.num_comms() + 2)) - 1; break;
          case 4: e.request = static_cast<std::int32_t>(rng() % 6) - 1; break;
          case 5: e.aux = static_cast<std::int32_t>(rng() % 4) - 1; break;
          case 6: e.bytes = rng() % 4096; break;
          case 7: e.duration = -1; break;
          case 8: evs.erase(evs.begin() + static_cast<std::ptrdiff_t>(i)); break;
          default: evs.insert(evs.begin() + static_cast<std::ptrdiff_t>(i), evs[i]); break;
        }
      }
      ++cases;
      if (!expect_same_issues(t, app + " case " + std::to_string(k)).empty()) ++with_issues;
    }
  }
  // Most perturbations break something; the comparison must see issues.
  EXPECT_GT(with_issues, cases / 2);
}

void add(Trace& t, Rank r, Event e) { t.rank(r).events.push_back(e); }

/// Traces that, between them, trip each of validate's checks, several per
/// trace, so issue order across checks and ranks is compared too.
std::vector<Trace> hand_built_traces() {
  std::vector<Trace> out;
  {  // Per-rank request and p2p address checks.
    Trace t(meta(3));
    add(t, 0, {.type = OpType::kCompute, .duration = -5});
    add(t, 0, {.type = OpType::kSend, .peer = 7, .tag = 1, .bytes = 8});
    add(t, 0, {.type = OpType::kIsend, .peer = 1, .tag = 1, .request = 4, .bytes = 8});
    add(t, 0, {.type = OpType::kIsend, .peer = 1, .tag = 1, .request = 4, .bytes = 8});
    add(t, 0, {.type = OpType::kWait, .request = 9});
    add(t, 0, {.type = OpType::kIrecv, .peer = 2, .tag = 3, .request = 4});
    add(t, 0, {.type = OpType::kIrecv, .peer = 2, .tag = 3, .request = 5});
    add(t, 1, {.type = OpType::kRecv, .peer = -5, .tag = 1});
    add(t, 1, {.type = OpType::kRecv, .peer = kAnySource, .tag = 1});
    add(t, 1, {.type = OpType::kRecv, .peer = 0, .tag = 1, .bytes = 8});
    add(t, 1, {.type = OpType::kIrecv, .peer = 0, .tag = 1, .request = 0, .bytes = 8});
    add(t, 1, {.type = OpType::kWaitAll});
    add(t, 1, {.type = OpType::kIsend, .peer = 3, .tag = 2, .request = 0});
    add(t, 2, {.type = OpType::kRecv, .peer = 0, .tag = 9, .bytes = 1});
    out.push_back(std::move(t));
  }
  {  // Collective membership, roots and alltoallv shapes.
    Trace t(meta(4));
    const CommId odd = t.add_comm({3, 1});
    const CommId pair = t.add_comm({2, 0});
    add(t, 0, {.type = OpType::kBarrier, .comm = 7});
    add(t, 0, {.type = OpType::kBarrier, .comm = odd});
    add(t, 0, {.type = OpType::kBcast, .peer = 1, .comm = pair, .bytes = 4});
    add(t, 0, {.type = OpType::kAlltoallv, .comm = pair, .aux = 3});
    add(t, 2, {.type = OpType::kBcast, .peer = -3, .comm = pair, .bytes = 4});
    t.rank(2).vlists.push_back({1, 2, 3});
    add(t, 2, {.type = OpType::kAlltoallv, .comm = pair, .aux = 0, .bytes = 6});
    add(t, 1, {.type = OpType::kGather, .peer = 3, .comm = odd, .bytes = 4});
    add(t, 3, {.type = OpType::kGather, .peer = 3, .comm = odd, .bytes = 4});
    out.push_back(std::move(t));
  }
  {  // Cross-rank streams: count and size mismatches, one-sided streams.
    Trace t(meta(4));
    RankBuilder b[4] = {{t, 0}, {t, 1}, {t, 2}, {t, 3}};
    for (int k = 0; k < 3; ++k) b[2].send(3, 100, 1, 0);
    for (int k = 0; k < 2; ++k) b[3].recv(2, 100, 1, 0);
    b[2].send(3, 10, 2, 0).send(3, 20, 2, 0).send(3, 40, 2, 0);
    b[3].recv(2, 10, 2, 0).recv(2, 30, 2, 0).recv(2, 50, 2, 0);
    b[3].send(1, 8, 8, 0).send(0, 8, -4, 0).send(0, 8, 5, 0);
    b[0].recv(3, 8, 5, 0);
    b[1].recv(0, 8, 6, 0).recv(0, 8, 6, 0).recv(3, 8, -2, 0);
    b[0].recv(2, 8, 6, 0);
    out.push_back(std::move(t));
  }
  {  // Collective sequences: count and signature mismatches per comm.
    Trace t(meta(4));
    const CommId c = t.add_comm({1, 2, 3});
    RankBuilder b[4] = {{t, 0}, {t, 1}, {t, 2}, {t, 3}};
    for (RankBuilder& rb : b) rb.allreduce(64, 0);
    b[0].barrier(0);
    b[2].barrier(0).barrier(0);
    b[1].bcast(1, 8, 0, c);
    b[2].bcast(2, 8, 0, c);
    b[3].bcast(1, 16, 0, c);
    b[1].allgather(8, 0, c);
    b[3].allgather(8, 0, c);
    out.push_back(std::move(t));
  }
  return out;
}

TEST(ValidateDifferential, HandBuiltTracesTripEveryCheck) {
  // One marker per check, in validate.cpp's order: a pair of substrings
  // that must both appear in the issue's message.
  const std::array<std::pair<const char*, const char*>, 18> checks = {{
      {"event ", "negative duration"},
      {"send event", "invalid destination"},
      {"isend event", "reuses open request"},
      {"recv event", "invalid source"},
      {"irecv event", "reuses open request"},
      {"wait event", "unknown request"},
      {"collective event", "invalid comm"},
      {"rank executes collective", "not a member of"},
      {"rooted collective event", "outside comm"},
      {"alltoallv event", "invalid aux index"},
      {"alltoallv event", "vlist size mismatches"},
      {"nonblocking requests", "never completed"},
      {"messages to rank", "never received"},
      {"message count mismatch", "received"},
      {"size mismatch:", " vs "},
      {"receives from rank", "never sent"},
      {"collectives, member 0 ran", "comm "},
      {"differs between member 0", "comm "},
  }};
  std::array<int, 18> hits{};
  int n = 0;
  for (const Trace& t : hand_built_traces()) {
    const auto issues = expect_same_issues(t, "hand-built trace " + std::to_string(n++));
    EXPECT_GE(issues.size(), 3u);
    for (const ValidationIssue& is : issues)
      for (std::size_t c = 0; c < checks.size(); ++c)
        if (is.message.find(checks[c].first) != std::string::npos &&
            is.message.find(checks[c].second) != std::string::npos)
          ++hits[c];
  }
  for (std::size_t c = 0; c < checks.size(); ++c)
    EXPECT_GT(hits[c], 0) << "no hand-built trace trips check " << c << " ("
                          << checks[c].first << " ... " << checks[c].second << ")";
}

/// Valid trace with sub-communicators, isend/irecv/wait/waitall, alltoallv
/// and rooted collectives.
Trace small_binary_trace() {
  Trace t(meta(4));
  const CommId even = t.add_comm({0, 2});
  const CommId tail = t.add_comm({3, 1, 2});
  RankBuilder b[4] = {{t, 0}, {t, 1}, {t, 2}, {t, 3}};
  b[0].compute(40);
  const auto s0 = b[0].isend(1, 64, 3, 1);
  b[0].irecv(1, 32, 4, 1);
  b[0].wait(s0, 1).waitall(1);
  b[1].irecv(0, 64, 3, 1);
  b[1].isend(0, 32, 4, 1);
  b[1].waitall(1);
  b[2].send(3, 16, 0, 1);
  b[3].recv(2, 16, 0, 1);
  const std::uint64_t ev[2] = {5, 7};
  b[0].alltoallv(ev, 2, even);
  b[2].alltoallv(ev, 2, even);
  for (const Rank r : {3, 1, 2}) b[r].bcast(1, 24, 2, tail).gather(3, 8, 2, tail);
  for (RankBuilder& rb : b) rb.reduce(2, 8, 3).allreduce(16, 3);
  return t;
}

TEST(ValidateDifferential, MutatedBinaryTracesAgree) {
  const Trace pristine = small_binary_trace();
  ASSERT_TRUE(reference::validate(pristine).empty());
  std::stringstream ss;
  write_binary(pristine, ss);
  std::size_t decoded = 0, with_issues = 0;
  hps::testing::for_each_mutation(ss.str(), [&](const std::string& bytes, std::size_t case_no) {
    std::istringstream is(bytes);
    Trace t;
    try {
      t = read_binary(is);
    } catch (const Error&) {
      return;
    }
    ++decoded;
    if (!expect_same_issues(t, "mutation " + std::to_string(case_no)).empty()) ++with_issues;
  });
  EXPECT_GT(decoded, 100u);
  EXPECT_GT(with_issues, 50u);
}

}  // namespace
}  // namespace hps::trace
