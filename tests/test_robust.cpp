// Robustness layer: cooperative budgets, run guards, deterministic fault
// injection, the crash-safe journal, and study-level recovery — a killed
// study resumes from its journal and reproduces the uninterrupted results
// byte for byte, and an injected failure in one scheme never contaminates
// the other traces or schemes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hpp"
#include "core/study.hpp"
#include "des/engine.hpp"
#include "robust/cancel.hpp"
#include "robust/fault.hpp"
#include "robust/guard.hpp"
#include "robust/ipc.hpp"
#include "robust/journal.hpp"
#include "workloads/corpus.hpp"

#include "codec_testing.hpp"

namespace hps {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string tmp_path(const std::string& stem) {
  return "/tmp/hps_robust_" + stem + "_" + std::to_string(getpid());
}

/// An event source that never drains: each delivery schedules the next.
struct Reschedule final : des::Handler {
  void handle(des::Engine& eng, std::uint64_t, std::uint64_t) override {
    eng.schedule_in(1, this);
  }
};

// --- CancelToken budgets ---------------------------------------------------

TEST(CancelToken, UnlimitedBudgetNeverTrips) {
  robust::Budget b;
  EXPECT_FALSE(b.limited());
  robust::CancelToken token(b);
  for (int i = 0; i < 10000; ++i) token.tick(static_cast<SimTime>(i));
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, EventCapStopsRunawayEngine) {
  des::Engine eng;
  Reschedule h;
  eng.schedule_at(0, &h);
  robust::Budget b;
  b.max_des_events = 1000;
  robust::CancelToken token(b);
  eng.set_cancel(&token);
  try {
    eng.run();
    FAIL() << "runaway engine was not cancelled";
  } catch (const robust::CancelledError& e) {
    EXPECT_EQ(e.reason(), robust::CancelReason::kEventCap);
  }
  // The calendar survives the throw: the engine stopped, it did not corrupt.
  EXPECT_FALSE(eng.empty());
  EXPECT_LE(eng.stats().events_processed, 1001u);
}

TEST(CancelToken, VirtualHorizonStopsRunawayEngine) {
  des::Engine eng;
  Reschedule h;
  eng.schedule_at(0, &h);
  robust::Budget b;
  b.virtual_horizon = 500;  // events fire at t = 0, 1, 2, ...
  robust::CancelToken token(b);
  eng.set_cancel(&token);
  try {
    eng.run();
    FAIL() << "runaway engine was not cancelled";
  } catch (const robust::CancelledError& e) {
    EXPECT_EQ(e.reason(), robust::CancelReason::kHorizon);
  }
  EXPECT_LE(eng.now(), 501);
}

TEST(CancelToken, WallDeadlineStopsRunawayEngine) {
  des::Engine eng;
  Reschedule h;
  eng.schedule_at(0, &h);
  robust::Budget b;
  b.wall_deadline_seconds = 1e-9;  // already expired at the first sampled check
  robust::CancelToken token(b);
  eng.set_cancel(&token);
  try {
    eng.run();
    FAIL() << "runaway engine was not cancelled";
  } catch (const robust::CancelledError& e) {
    EXPECT_EQ(e.reason(), robust::CancelReason::kDeadline);
  }
}

TEST(CancelToken, WallDeadlineTripsPromptlyOnSlowEventTraces) {
  // Regression: the wall clock used to be sampled on a fixed 4096-event
  // stride, so a trace processing ~2ms per event overshot a 50ms deadline by
  // ~8 seconds before the first sample. The stride is now adaptive (derived
  // from the observed event rate), so the trip must land within a small
  // multiple of the deadline even when individual events are glacial.
  robust::Budget b;
  b.wall_deadline_seconds = 0.05;
  robust::CancelToken token(b);
  const auto start = std::chrono::steady_clock::now();
  try {
    for (std::uint64_t i = 0;; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      token.tick(0);
    }
  } catch (const robust::CancelledError& e) {
    EXPECT_EQ(e.reason(), robust::CancelReason::kDeadline);
  }
  const double elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start).count();
  // Generous CI margin, but far below the ~8s the fixed stride would take.
  EXPECT_LT(elapsed, 1.0) << "wall sampling stride failed to adapt";
}

TEST(CancelToken, ExternalCancelSurfacesAtNextTick) {
  robust::CancelToken token;
  token.cancel(robust::CancelReason::kInjected);
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(token.tick(0), robust::CancelledError);
}

// --- Guard classification --------------------------------------------------

TEST(Guard, ClassifiesExceptionTaxonomy) {
  using robust::FailKind;
  const auto kind_of = [](auto thrower) {
    const auto f = robust::run_guarded(thrower);
    EXPECT_TRUE(f.has_value());
    return f->kind;
  };
  EXPECT_EQ(kind_of([] { throw Error("boom"); }), FailKind::kError);
  EXPECT_EQ(kind_of([] { throw DeadlockError("stuck"); }), FailKind::kDeadlock);
  EXPECT_EQ(kind_of([] { throw std::bad_alloc(); }), FailKind::kOom);
  EXPECT_EQ(kind_of([] { throw std::length_error("huge"); }), FailKind::kOom);
  EXPECT_EQ(kind_of([] { throw std::runtime_error("foreign"); }), FailKind::kError);
  EXPECT_EQ(kind_of([] { throw 42; }), FailKind::kUnknown);
  EXPECT_EQ(kind_of([] {
              throw robust::CancelledError(robust::CancelReason::kEventCap, "cap");
            }),
            FailKind::kBudget);
  EXPECT_EQ(kind_of([] {
              throw robust::CancelledError(robust::CancelReason::kInjected, "inj");
            }),
            FailKind::kInjected);
  EXPECT_FALSE(robust::run_guarded([] {}).has_value());
}

TEST(Guard, FailKindNamesRoundTrip) {
  EXPECT_STREQ(robust::fail_kind_name(robust::FailKind::kNone), "none");
  EXPECT_STREQ(robust::fail_kind_name(robust::FailKind::kSkipped), "skipped");
  EXPECT_STREQ(robust::fail_kind_name(robust::FailKind::kBudget), "budget");
  EXPECT_STREQ(robust::fail_kind_name(robust::FailKind::kInjected), "injected");
}

// --- Fault plan parsing and matching ---------------------------------------

TEST(FaultPlan, ParsesGrammar) {
  const auto plan =
      robust::parse_fault_plan("site=packet,spec=3,kind=alloc;site=generate,kind=throw");
  ASSERT_EQ(plan.specs.size(), 2u);
  EXPECT_EQ(plan.specs[0].site, robust::FaultSite::kPacket);
  EXPECT_EQ(plan.specs[0].spec_id, 3);
  EXPECT_EQ(plan.specs[0].kind, robust::FaultKind::kAllocFail);
  EXPECT_EQ(plan.specs[0].scheme, -1);
  EXPECT_EQ(plan.specs[1].site, robust::FaultSite::kGenerate);
  EXPECT_EQ(plan.specs[1].kind, robust::FaultKind::kThrow);

  const auto full = robust::parse_fault_plan(
      "site=mfact,scheme=mfact,kind=delay,delay_ms=5,p=0.25,seed=7,exit_code=9");
  ASSERT_EQ(full.specs.size(), 1u);
  EXPECT_EQ(full.specs[0].scheme, 0);
  EXPECT_EQ(full.specs[0].delay_ms, 5);
  EXPECT_DOUBLE_EQ(full.specs[0].probability, 0.25);
  EXPECT_EQ(full.specs[0].seed, 7u);
  EXPECT_EQ(full.specs[0].exit_code, 9);

  EXPECT_THROW(robust::parse_fault_plan("site=warp"), Error);
  EXPECT_THROW(robust::parse_fault_plan("kind=throw"), Error);
  EXPECT_THROW(robust::parse_fault_plan("site=packet,kind=frobnicate"), Error);
  EXPECT_THROW(robust::parse_fault_plan("site=packet,wat=1"), Error);
  EXPECT_TRUE(robust::parse_fault_plan("").empty());
}

TEST(FaultPlan, FaultPointMatchesContext) {
  robust::FaultPlan plan;
  robust::FaultSpec f;
  f.site = robust::FaultSite::kPacket;
  f.spec_id = 2;
  f.kind = robust::FaultKind::kThrow;
  plan.specs.push_back(f);
  robust::set_fault_plan(plan);

  // No ambient context: spec filter does not match; nothing fires.
  robust::fault_point(robust::FaultSite::kPacket);

  {
    robust::FaultContext ctx;
    ctx.spec_id = 2;
    robust::FaultScope scope(ctx);
    robust::fault_point(robust::FaultSite::kFlow);  // wrong site: no fire
    EXPECT_THROW(robust::fault_point(robust::FaultSite::kPacket), Error);
  }
  // Scope restored: no longer matching.
  robust::fault_point(robust::FaultSite::kPacket);
  robust::clear_fault_plan();
  EXPECT_FALSE(robust::fault_plan_active());
}

TEST(FaultPlan, ProbabilisticSelectionIsDeterministic) {
  robust::FaultPlan plan;
  robust::FaultSpec f;
  f.site = robust::FaultSite::kPacket;
  f.kind = robust::FaultKind::kThrow;
  f.probability = 0.5;
  f.seed = 99;
  plan.specs.push_back(f);
  robust::set_fault_plan(plan);

  const auto fires = [&](int spec_id) {
    robust::FaultContext ctx;
    ctx.spec_id = spec_id;
    robust::FaultScope scope(ctx);
    try {
      robust::fault_point(robust::FaultSite::kPacket);
      return false;
    } catch (const Error&) {
      return true;
    }
  };
  std::vector<bool> first, second;
  int hit = 0;
  for (int i = 0; i < 32; ++i) {
    first.push_back(fires(i));
    if (first.back()) ++hit;
  }
  for (int i = 0; i < 32; ++i) second.push_back(fires(i));
  EXPECT_EQ(first, second) << "hashed selection must be reproducible";
  EXPECT_GT(hit, 0);
  EXPECT_LT(hit, 32);
  robust::clear_fault_plan();
}

TEST(FaultPlan, InitFromEnv) {
  ASSERT_EQ(setenv("HPS_FAULT", "site=generate,kind=throw", 1), 0);
  robust::init_faults_from_env();
  EXPECT_TRUE(robust::fault_plan_active());
  robust::clear_fault_plan();
  ASSERT_EQ(unsetenv("HPS_FAULT"), 0);
}

// --- Journal ---------------------------------------------------------------

TEST(Journal, Crc32KnownAnswer) {
  const char data[] = "123456789";
  EXPECT_EQ(robust::crc32(data, 9), 0xCBF43926u);
}

TEST(Journal, RoundTrip) {
  const std::string path = tmp_path("journal_rt");
  std::remove(path.c_str());
  {
    robust::JournalWriter w;
    w.open_fresh(path, "key-1");
    w.append("alpha");
    w.append("");  // empty records are legal
    w.append(std::string("\x00\x01\xff binary", 10));
  }
  const auto back = robust::read_journal(path, "key-1");
  EXPECT_TRUE(back.existed);
  EXPECT_TRUE(back.key_matched);
  ASSERT_EQ(back.records.size(), 3u);
  EXPECT_EQ(back.records[0], "alpha");
  EXPECT_EQ(back.records[1], "");
  EXPECT_EQ(back.records[2], std::string("\x00\x01\xff binary", 10));
  EXPECT_EQ(back.torn_bytes, 0u);

  // A different key must refuse to resume.
  const auto wrong = robust::read_journal(path, "key-2");
  EXPECT_TRUE(wrong.existed);
  EXPECT_FALSE(wrong.key_matched);
  EXPECT_TRUE(wrong.records.empty());

  // Missing file: existed=false.
  EXPECT_FALSE(robust::read_journal(path + ".nope", "key-1").existed);
  std::remove(path.c_str());
}

// Golden bytes: the journal file and the IPC frame share one CRC framing.
// The hex constants were captured before that framing moved into
// robust/framed_log; a journal written then must still resume now.
constexpr const char* kGoldenJournalHex =
    "4850534a0100000009000000f24143f973747564792d6b6579050000006a39e0d0616c70"
    "68610000000000000000";
constexpr const char* kGoldenFrameHex =
    "04000000531038bb10616263";

TEST(Journal, GoldenBytesAreStableAndReadBack) {
  const std::string path = tmp_path("journal_golden");
  std::remove(path.c_str());
  {
    robust::JournalWriter w;
    w.open_fresh(path, "study-key");
    w.append("alpha");
    w.append("");
  }
  EXPECT_EQ(hps::testing::to_hex(slurp(path)), kGoldenJournalHex);

  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << hps::testing::from_hex(kGoldenJournalHex);
  }
  const auto back = robust::read_journal(path, "study-key");
  EXPECT_TRUE(back.key_matched);
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[0], "alpha");
  EXPECT_EQ(back.records[1], "");
  EXPECT_EQ(back.torn_bytes, 0u);
  std::remove(path.c_str());

  namespace ipc = robust::ipc;
  EXPECT_EQ(hps::testing::to_hex(ipc::encode_frame({ipc::MsgType::kRequest, "abc"})),
            kGoldenFrameHex);
  ipc::FrameDecoder dec;
  const std::string frame = hps::testing::from_hex(kGoldenFrameHex);
  dec.feed(frame.data(), frame.size());
  ipc::Message m;
  ASSERT_EQ(dec.next(m), ipc::FrameDecoder::Status::kMessage);
  EXPECT_EQ(m.type, ipc::MsgType::kRequest);
  EXPECT_EQ(m.payload, "abc");
}

TEST(Journal, TornTailIsDiscardedAndResumable) {
  const std::string path = tmp_path("journal_torn");
  std::remove(path.c_str());
  {
    robust::JournalWriter w;
    w.open_fresh(path, "k");
    w.append("one");
    w.append("two");
  }
  // Simulate a crash mid-append: a partial frame at the tail.
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write("\x40\x00\x00\x00garbage", 11);
  }
  const auto torn = robust::read_journal(path, "k");
  ASSERT_EQ(torn.records.size(), 2u);
  EXPECT_GT(torn.torn_bytes, 0u);

  // Resume truncates the torn tail; new appends extend the intact prefix.
  {
    robust::JournalWriter w;
    w.open_resume(path, torn.valid_bytes);
    w.append("three");
  }
  const auto resumed = robust::read_journal(path, "k");
  ASSERT_EQ(resumed.records.size(), 3u);
  EXPECT_EQ(resumed.records[2], "three");
  EXPECT_EQ(resumed.torn_bytes, 0u);
  std::remove(path.c_str());
}

TEST(Journal, CorruptedRecordStopsTheValidPrefix) {
  const std::string path = tmp_path("journal_corrupt");
  std::remove(path.c_str());
  {
    robust::JournalWriter w;
    w.open_fresh(path, "k");
    w.append("good");
    w.append("flipped");
  }
  // Flip one payload byte of the second record; its CRC no longer matches.
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    fs.seekp(-1, std::ios::end);
    fs.put('X');
  }
  const auto back = robust::read_journal(path, "k");
  ASSERT_EQ(back.records.size(), 1u);
  EXPECT_EQ(back.records[0], "good");
  EXPECT_GT(back.torn_bytes, 0u);
  std::remove(path.c_str());
}

// Seeded mutation sweep over a journal file. Neither reader throws: every
// mutation yields a prefix of the records actually written, and the bytes
// past that prefix are all counted as torn.
TEST(Journal, MutatedFilesKeepAnIntactPrefix) {
  const std::string path = tmp_path("journal_sweep");
  const std::vector<std::string> written = {"alpha", "", "gamma-record"};
  {
    robust::JournalWriter w;
    w.open_fresh(path, "k");
    for (const std::string& r : written) w.append(r);
  }
  const std::string pristine = slurp(path);
  const auto expect_prefix = [&](const std::vector<std::string>& got, std::size_t c) {
    ASSERT_LE(got.size(), written.size()) << "mutation " << c;
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], written[i]) << "mutation " << c;
  };
  hps::testing::for_each_mutation(pristine, [&](const std::string& m, std::size_t c) {
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os << m;
    }
    robust::JournalContents back;
    ASSERT_NO_THROW(back = robust::read_journal(path, "k")) << "mutation " << c;
    expect_prefix(back.records, c);
    EXPECT_EQ(back.valid_bytes + back.torn_bytes, m.size()) << "mutation " << c;
    if (!back.key_matched) {
      EXPECT_TRUE(back.records.empty()) << "mutation " << c;
    }

    robust::JournalScan scan;
    ASSERT_NO_THROW(scan = robust::scan_journal(path)) << "mutation " << c;
    expect_prefix(scan.records, c);
    EXPECT_EQ(scan.valid_bytes + scan.torn_bytes, m.size()) << "mutation " << c;
    if (back.key_matched) {
      EXPECT_EQ(scan.records, back.records) << "mutation " << c;
    }
  });
  std::remove(path.c_str());
}

TEST(Journal, KeylessScanReportsTheStoredKeyAndTornTail) {
  const std::string path = tmp_path("journal_scan");
  {
    robust::JournalWriter w;
    w.open_fresh(path, "study-key");
    w.append("one");
    w.append("two");
  }
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write("\x40\x00\x00", 3);
  }
  const robust::JournalScan scan = robust::scan_journal(path);
  EXPECT_TRUE(scan.existed);
  EXPECT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.version, 1u);
  EXPECT_EQ(scan.key, "study-key");
  EXPECT_EQ(scan.records, (std::vector<std::string>{"one", "two"}));
  EXPECT_EQ(scan.torn_bytes, 3u);
  EXPECT_EQ(scan.valid_bytes, robust::read_journal(path, "study-key").valid_bytes);
  EXPECT_FALSE(robust::scan_journal(path + ".nope").existed);
  std::remove(path.c_str());
}

// --- Outcome codec and atomic cache save -----------------------------------

TEST(StudyCodec, OutcomeRoundTripPreservesFailKind) {
  core::TraceOutcome o;
  o.spec_id = 7;
  o.app = "lulesh";
  o.machine = "hopper";
  o.ranks = 64;
  auto& so = o.of(core::Scheme::kPacket);
  so.attempted = true;
  so.ok = false;
  so.error = "injected cancel at site packet";
  so.fail_kind = robust::FailKind::kInjected;
  so.total_time = 12345;
  const core::TraceOutcome back = core::deserialize_outcome(core::serialize_outcome(o));
  EXPECT_EQ(back.spec_id, 7);
  EXPECT_EQ(back.app, "lulesh");
  EXPECT_EQ(back.of(core::Scheme::kPacket).fail_kind, robust::FailKind::kInjected);
  EXPECT_EQ(back.of(core::Scheme::kPacket).error, "injected cancel at site packet");
  EXPECT_EQ(back.of(core::Scheme::kMfact).fail_kind, robust::FailKind::kNone);

  EXPECT_THROW(core::deserialize_outcome("short"), Error);
  EXPECT_THROW(core::deserialize_outcome(core::serialize_outcome(o) + "x"), Error);
}

TEST(StudyCodec, SaveOutcomesIsAtomic) {
  const std::string path = tmp_path("cache_atomic");
  std::remove(path.c_str());
  std::vector<core::TraceOutcome> outcomes(2);
  outcomes[0].spec_id = 0;
  outcomes[1].spec_id = 1;
  core::save_outcomes(outcomes, path, 11);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "temp file must be renamed away";
  const auto loaded = core::load_outcomes(path, 11);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);
  // Overwrite in place still goes through the temp file.
  core::save_outcomes(outcomes, path, 12);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(core::load_outcomes(path, 11).has_value());
  EXPECT_TRUE(core::load_outcomes(path, 12).has_value());
  std::remove(path.c_str());
}

// --- Budgets and faults through the runner / study -------------------------

core::StudyOptions mini_opts(int limit) {
  core::StudyOptions o;
  o.corpus.limit = limit;
  o.corpus.duration_scale = 0.1;
  o.threads = 2;
  return o;
}

void zero_walls(std::vector<core::TraceOutcome>& outcomes) {
  for (core::TraceOutcome& o : outcomes)
    for (core::SchemeOutcome& s : o.scheme) s.wall_seconds = 0;
}

TEST(RobustStudy, BudgetExceededDegradesToStructuredOutcome) {
  const auto specs = workloads::build_corpus_specs(mini_opts(1).corpus);
  ASSERT_FALSE(specs.empty());
  core::RunOptions ro;
  ro.budget.max_des_events = 500;  // far below any real replay
  const core::TraceOutcome out = core::run_all_schemes(specs[0], ro);
  const auto& packet = out.of(core::Scheme::kPacket);
  ASSERT_TRUE(packet.attempted);
  EXPECT_FALSE(packet.ok);
  EXPECT_EQ(packet.fail_kind, robust::FailKind::kBudget);
  EXPECT_FALSE(packet.error.empty());
  // Partial progress was harvested off the cancelled replay.
  EXPECT_GT(packet.des_events, 0u);
  EXPECT_GT(packet.total_time, 0);
  // Every attempted scheme either finished or tripped the budget — nothing
  // escaped as an unstructured failure.
  for (const auto& so : out.scheme) {
    if (!so.attempted || so.ok) continue;
    EXPECT_EQ(so.fail_kind, robust::FailKind::kBudget) << so.error;
  }
}

TEST(RobustStudy, InjectedFaultIsIsolatedToItsTarget) {
  // Inject an allocation failure into the packet model of spec 1 only.
  robust::FaultPlan plan;
  robust::FaultSpec f;
  f.site = robust::FaultSite::kPacket;
  f.spec_id = 1;
  f.kind = robust::FaultKind::kAllocFail;
  plan.specs.push_back(f);
  robust::set_fault_plan(plan);

  core::StudyResult res = core::run_study(mini_opts(3));
  robust::clear_fault_plan();

  ASSERT_EQ(res.outcomes.size(), 3u);
  const auto& hit = res.outcomes[1].of(core::Scheme::kPacket);
  EXPECT_TRUE(hit.attempted);
  EXPECT_FALSE(hit.ok);
  EXPECT_EQ(hit.fail_kind, robust::FailKind::kOom);
  // Every other trace×scheme completed untouched.
  for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
    for (int si = 0; si < static_cast<int>(core::Scheme::kNumSchemes); ++si) {
      if (i == 1 && si == static_cast<int>(core::Scheme::kPacket)) continue;
      const auto& so = res.outcomes[i].scheme[si];
      EXPECT_TRUE(so.ok) << "spec " << i << " scheme " << si << ": " << so.error;
      EXPECT_EQ(so.fail_kind, robust::FailKind::kNone);
    }
  }
}

TEST(RobustStudy, FailedGenerationFailsAllSchemesStructurally) {
  robust::FaultPlan plan;
  robust::FaultSpec f;
  f.site = robust::FaultSite::kGenerate;
  f.spec_id = 0;
  f.kind = robust::FaultKind::kThrow;
  plan.specs.push_back(f);
  robust::set_fault_plan(plan);

  core::StudyResult res = core::run_study(mini_opts(2));
  robust::clear_fault_plan();

  ASSERT_EQ(res.outcomes.size(), 2u);
  for (const auto& so : res.outcomes[0].scheme) {
    EXPECT_FALSE(so.attempted);
    EXPECT_FALSE(so.ok);
    EXPECT_EQ(so.fail_kind, robust::FailKind::kError);
    EXPECT_NE(so.error.find("trace generation failed"), std::string::npos);
  }
  for (const auto& so : res.outcomes[1].scheme) EXPECT_TRUE(so.ok) << so.error;
}

TEST(RobustStudy, ResumesFromJournalByteIdentically) {
  // Reference: the uninterrupted study.
  core::StudyOptions opts = mini_opts(4);
  core::StudyResult reference = core::run_study(opts);
  ASSERT_EQ(reference.outcomes.size(), 4u);
  zero_walls(reference.outcomes);

  // Simulate a run killed after completing specs 0 and 2: hand-build the
  // journal a crashed worker pool would have left behind.
  const std::uint64_t key = core::study_cache_key(opts);
  char keyhex[24];
  std::snprintf(keyhex, sizeof keyhex, "%016llx", static_cast<unsigned long long>(key));
  const std::string journal_path = tmp_path("journal_resume");
  std::remove(journal_path.c_str());
  {
    robust::JournalWriter w;
    w.open_fresh(journal_path, keyhex);
    w.append(core::serialize_outcome(reference.outcomes[0]));
    w.append(core::serialize_outcome(reference.outcomes[2]));
  }

  core::StudyOptions resume_opts = opts;
  resume_opts.journal_path = journal_path;
  core::StudyResult resumed = core::run_study(resume_opts);
  EXPECT_EQ(resumed.resumed_from_journal, 2);
  zero_walls(resumed.outcomes);

  // The resumed study must reproduce the uninterrupted one byte for byte
  // (wall_seconds excluded, per the determinism contract).
  const std::string pa = tmp_path("resume_ref.bin");
  const std::string pb = tmp_path("resume_new.bin");
  core::save_outcomes(reference.outcomes, pa, key);
  core::save_outcomes(resumed.outcomes, pb, key);
  EXPECT_EQ(slurp(pa), slurp(pb)) << "journal resume changed study results";
  std::remove(pa.c_str());
  std::remove(pb.c_str());

  // A completed study removes its journal.
  EXPECT_FALSE(std::filesystem::exists(journal_path));
}

TEST(RobustStudy, StaleJournalWithForeignKeyIsIgnored) {
  core::StudyOptions opts = mini_opts(2);
  opts.journal_path = tmp_path("journal_stale");
  std::remove(opts.journal_path.c_str());
  {
    robust::JournalWriter w;
    w.open_fresh(opts.journal_path, "a-key-from-another-study");
    w.append("not an outcome");
  }
  core::StudyResult res = core::run_study(opts);
  EXPECT_EQ(res.resumed_from_journal, 0);
  ASSERT_EQ(res.outcomes.size(), 2u);
  for (const auto& o : res.outcomes)
    for (const auto& so : o.scheme) EXPECT_TRUE(so.ok) << so.error;
  EXPECT_FALSE(std::filesystem::exists(opts.journal_path));
}

}  // namespace
}  // namespace hps
