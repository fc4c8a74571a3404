// Unit tests for the trace module: container, builder, validation,
// serialization round trips, statistics, and Table III feature extraction.
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <sstream>

#include "trace/builder.hpp"
#include "trace/features.hpp"
#include "trace/io.hpp"
#include "trace/text_format.hpp"
#include "trace/trace.hpp"
#include "trace/validate.hpp"

#include "codec_testing.hpp"

namespace hps::trace {
namespace {

TraceMeta meta(Rank n, const char* app = "test") {
  TraceMeta m;
  m.app = app;
  m.nranks = n;
  m.ranks_per_node = 4;
  m.machine = "cielito";
  return m;
}

TEST(Trace, WorldCommCreated) {
  Trace t(meta(4));
  EXPECT_EQ(t.num_comms(), 1u);
  EXPECT_EQ(t.comm(kCommWorld).size(), 4u);
  EXPECT_EQ(t.comm(kCommWorld)[3], 3);
}

TEST(Trace, NodesRoundUp) {
  Trace t(meta(10));
  EXPECT_EQ(t.nodes(), 3);  // 10 ranks / 4 per node
}

TEST(Trace, AddComm) {
  Trace t(meta(4));
  const CommId c = t.add_comm({1, 3});
  EXPECT_EQ(c, 1);
  EXPECT_EQ(t.comm(c).size(), 2u);
}

TEST(Builder, ComputeCoalesces) {
  Trace t(meta(2));
  RankBuilder b(t, 0);
  b.compute(100).compute(200);
  ASSERT_EQ(t.rank(0).events.size(), 1u);
  EXPECT_EQ(t.rank(0).events[0].duration, 300);
}

TEST(Builder, ZeroComputeSkipped) {
  Trace t(meta(2));
  RankBuilder b(t, 0);
  b.compute(0);
  EXPECT_TRUE(t.rank(0).events.empty());
}

TEST(Builder, RequestIdsAreUniquePerRank) {
  Trace t(meta(2));
  RankBuilder b(t, 0);
  const auto r1 = b.isend(1, 10, 0, 5);
  const auto r2 = b.irecv(1, 10, 1, 5);
  EXPECT_NE(r1, r2);
}

TEST(Builder, AlltoallvStoresVlist) {
  Trace t(meta(3));
  RankBuilder b(t, 0);
  const std::uint64_t sizes[3] = {0, 10, 20};
  b.alltoallv(sizes, 100);
  const Event& e = t.rank(0).events[0];
  EXPECT_EQ(e.type, OpType::kAlltoallv);
  EXPECT_EQ(e.bytes, 30u);
  ASSERT_EQ(t.rank(0).vlists.size(), 1u);
  EXPECT_EQ(t.rank(0).vlists[0][2], 20u);
}

Trace valid_pair_trace() {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.compute(100).send(1, 64, 5, 10);
  b1.recv(0, 64, 5, 20);
  b0.barrier(5);
  b1.barrier(5);
  return t;
}

TEST(Validate, AcceptsValidTrace) {
  const Trace t = valid_pair_trace();
  EXPECT_TRUE(validate(t).empty());
  EXPECT_NO_THROW(validate_or_throw(t));
}

TEST(Validate, DetectsUnmatchedSend) {
  Trace t(meta(2));
  RankBuilder b0(t, 0);
  b0.send(1, 64, 5, 10);
  const auto issues = validate(t);
  ASSERT_FALSE(issues.empty());
  EXPECT_THROW(validate_or_throw(t), Error);
}

TEST(Validate, DetectsSizeMismatch) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.send(1, 64, 5, 10);
  b1.recv(0, 128, 5, 10);
  EXPECT_FALSE(validate(t).empty());
}

TEST(Validate, DetectsMissingWait) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.isend(1, 64, 5, 10);  // never waited
  b1.recv(0, 64, 5, 10);
  EXPECT_FALSE(validate(t).empty());
}

TEST(Validate, WaitAllCompletesRequests) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.isend(1, 64, 5, 10);
  b0.isend(1, 64, 5, 10);
  b0.waitall(5);
  b1.recv(0, 64, 5, 10);
  b1.recv(0, 64, 5, 10);
  EXPECT_TRUE(validate(t).empty());
}

TEST(Validate, DetectsCollectiveMismatch) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.allreduce(64, 10);
  b1.allreduce(128, 10);  // different payload
  EXPECT_FALSE(validate(t).empty());
}

TEST(Validate, DetectsCollectiveCountMismatch) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.barrier(5);
  b0.barrier(5);
  b1.barrier(5);
  EXPECT_FALSE(validate(t).empty());
}

TEST(Validate, AlltoallvTotalsMayDiffer) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  const std::uint64_t s0[2] = {0, 100};
  const std::uint64_t s1[2] = {999, 0};
  b0.alltoallv(s0, 10);
  b1.alltoallv(s1, 10);
  EXPECT_TRUE(validate(t).empty());
}

TEST(Validate, RootedCollectiveRootMustBeMember) {
  Trace t(meta(4));
  const CommId c = t.add_comm({0, 1});
  RankBuilder b0(t, 0), b1(t, 1);
  b0.bcast(2, 64, 10, c);  // rank 2 is not in comm c
  b1.bcast(2, 64, 10, c);
  EXPECT_FALSE(validate(t).empty());
}

TEST(Stats, CountsAndTimes) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.compute(1000).send(1, 64, 5, 100);
  b1.recv(0, 64, 5, 200);
  b0.allreduce(8, 50);
  b1.allreduce(8, 50);
  const TraceStats s = compute_stats(t);
  EXPECT_EQ(s.sends, 1u);
  EXPECT_EQ(s.recvs, 1u);
  EXPECT_EQ(s.collectives, 2u);
  EXPECT_EQ(s.messages, 1u);
  EXPECT_EQ(s.bytes_p2p, 64u);
  EXPECT_EQ(s.time_compute, 1000);
  EXPECT_EQ(s.time_total, 1000 + 100 + 200 + 50 + 50);
  EXPECT_EQ(s.time_comm, 400);
  EXPECT_EQ(s.mpi_calls, 4u);
}

TEST(Stats, FirstBarrierTracked) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.barrier(100);
  b0.barrier(999);
  b1.barrier(100);
  b1.barrier(999);
  const TraceStats s = compute_stats(t);
  EXPECT_EQ(s.time_first_barrier, 200);  // summed over ranks
  EXPECT_EQ(s.time_barrier, 2198);
}

TEST(Stats, MeasuredTotalIsMaxOverRanks) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.compute(500);
  b1.compute(900);
  EXPECT_EQ(t.measured_total(), 900);
}

TEST(Features, NamesMatchCount) {
  EXPECT_EQ(feature_names().size(), static_cast<std::size_t>(kNumFeatures));
  EXPECT_EQ(feature_names()[kF_CL], "CL");
  EXPECT_EQ(feature_names()[kF_R], "R");
}

TEST(Features, BasicExtraction) {
  Trace t = valid_pair_trace();
  const FeatureVector f = extract_features(t);
  EXPECT_DOUBLE_EQ(f[kF_R], 2.0);
  EXPECT_DOUBLE_EQ(f[kF_RN], 4.0);
  EXPECT_DOUBLE_EQ(f[kF_N], 1.0);
  EXPECT_DOUBLE_EQ(f[kF_NoS], 1.0);
  EXPECT_DOUBLE_EQ(f[kF_NoR], 1.0);
  EXPECT_DOUBLE_EQ(f[kF_NoB], 2.0);
  EXPECT_DOUBLE_EQ(f[kF_CL], 0.0);
  // Percentages sum sanity: compute + comm = 100.
  EXPECT_NEAR(f[kF_PoCP] + f[kF_PoC], 100.0, 1e-9);
}

TEST(Features, PercentagesBounded) {
  Trace t = valid_pair_trace();
  const FeatureVector f = extract_features(t);
  for (int i : {kF_PoCP, kF_PoC, kF_PoBR, kF_PoCOLL, kF_PoSYN, kF_PoASYN}) {
    EXPECT_GE(f[i], 0.0);
    EXPECT_LE(f[i], 100.0);
  }
}

TEST(Io, BinaryRoundTrip) {
  Trace t(meta(3, "roundtrip"));
  t.add_comm({0, 2});
  RankBuilder b0(t, 0), b1(t, 1), b2(t, 2);
  b0.compute(123).isend(1, 77, 3, 9);
  b0.waitall(1);
  b1.recv(0, 77, 3, 8);
  const std::uint64_t sizes[3] = {0, 5, 10};
  b0.alltoallv(sizes, 10);
  b1.alltoallv(sizes, 10);
  b2.alltoallv(sizes, 10);

  std::stringstream ss;
  write_binary(t, ss);
  const Trace u = read_binary(ss);

  EXPECT_EQ(u.meta().app, "roundtrip");
  EXPECT_EQ(u.nranks(), 3);
  EXPECT_EQ(u.num_comms(), 2u);
  EXPECT_EQ(u.comm(1), (std::vector<Rank>{0, 2}));
  EXPECT_EQ(u.total_events(), t.total_events());
  EXPECT_EQ(u.rank(0).events[0].duration, 123);
  EXPECT_EQ(u.rank(0).vlists[0][2], 10u);
}

TEST(Io, RejectsGarbage) {
  std::stringstream ss;
  ss << "this is not a trace";
  EXPECT_THROW(read_binary(ss), Error);
}

TEST(Io, RejectsTruncated) {
  Trace t = valid_pair_trace();
  std::stringstream ss;
  write_binary(t, ss);
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream cut(data);
  EXPECT_THROW(read_binary(cut), Error);
}

namespace {

// Mirror io.cpp's little-endian field writers so the error-path tests can
// hand-craft hostile streams with full control over every header field.
template <typename T>
void raw_put(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void raw_put_string(std::ostream& os, const std::string& s) {
  raw_put<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Valid header for a 1-rank trace up to (but excluding) the per-rank event
/// count, with a chosen magic and version.
void put_header(std::ostream& os, const char magic[4], std::uint32_t version) {
  os.write(magic, 4);
  raw_put<std::uint32_t>(os, version);
  raw_put_string(os, "app");
  raw_put_string(os, "");          // variant
  raw_put_string(os, "cielito");   // machine
  raw_put<std::int32_t>(os, 1);    // nranks
  raw_put<std::int32_t>(os, 1);    // ranks_per_node
  raw_put<std::uint64_t>(os, 7);   // seed
  raw_put<std::uint32_t>(os, 1);   // ncomms (world only)
  raw_put<std::uint32_t>(os, 1);   // world size
  raw_put<Rank>(os, 0);            // world member
}

}  // namespace

TEST(Io, RejectsBadMagic) {
  std::stringstream ss;
  put_header(ss, "HPSX", kTraceFormatVersion);
  raw_put<std::uint64_t>(ss, 0);  // rank 0: no events
  raw_put<std::uint32_t>(ss, 0);  // rank 0: no vlists
  EXPECT_THROW(
      try { read_binary(ss); } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("not a HPST"), std::string::npos);
        throw;
      },
      Error);
}

TEST(Io, RejectsUnsupportedVersion) {
  std::stringstream ss;
  put_header(ss, "HPST", kTraceFormatVersion + 1);
  raw_put<std::uint64_t>(ss, 0);
  raw_put<std::uint32_t>(ss, 0);
  EXPECT_THROW(
      try { read_binary(ss); } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
        throw;
      },
      Error);
}

TEST(Io, RejectsOutOfRangeEventCount) {
  std::stringstream ss;
  put_header(ss, "HPST", kTraceFormatVersion);
  // An event count beyond the 2^32 sanity bound must be rejected before any
  // allocation is attempted (a hostile stream must not drive a huge resize).
  raw_put<std::uint64_t>(ss, (std::uint64_t{1} << 32) + 1);
  EXPECT_THROW(
      try { read_binary(ss); } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("event count out of range"), std::string::npos);
        throw;
      },
      Error);
}

TEST(Io, RejectsTruncatedInEvents) {
  std::stringstream ss;
  put_header(ss, "HPST", kTraceFormatVersion);
  raw_put<std::uint64_t>(ss, 10);  // promises 10 events, delivers none
  EXPECT_THROW(
      try { read_binary(ss); } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated in events"), std::string::npos);
        throw;
      },
      Error);
}

long peak_rss_kb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

// A count the stream cannot hold fails as truncated before anything is sized
// by it. Against a 66-byte stream, 2^25 events would be 1.28 GB of Event and
// 2^32 (the largest count the range check lets through) would be 160 GB.
TEST(Io, HostileCountsFailTruncatedWithoutAllocating) {
  for (const std::uint64_t nev : {std::uint64_t{1} << 25, std::uint64_t{1} << 32}) {
    std::stringstream ss;
    put_header(ss, "HPST", kTraceFormatVersion);
    raw_put<std::uint64_t>(ss, nev);
    ASSERT_EQ(ss.str().size(), 66u);
    const long peak_before = peak_rss_kb();
    EXPECT_THROW(
        try { read_binary(ss); } catch (const Error& e) {
          EXPECT_NE(std::string(e.what()).find("truncated in events"), std::string::npos);
          throw;
        },
        Error)
        << nev << " events";
    EXPECT_LT(peak_rss_kb() - peak_before, 16 * 1024) << nev << " events";
  }
  std::stringstream ss;
  put_header(ss, "HPST", kTraceFormatVersion);
  raw_put<std::uint64_t>(ss, 0);           // no events
  raw_put<std::uint32_t>(ss, 0xffffffffu); // ~4G vlists in a few bytes
  EXPECT_THROW(
      try { read_binary(ss); } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated in vlist"), std::string::npos);
        throw;
      },
      Error);
}

/// Small trace touching every layout feature: a sub-communicator,
/// point-to-point with requests, rooted and unrooted collectives, and an
/// alltoallv size list.
Trace small_mixed_trace() {
  Trace t(meta(3, "mixed"));
  t.add_comm({0, 2});
  RankBuilder b0(t, 0), b1(t, 1), b2(t, 2);
  b0.compute(123);
  b0.wait(b0.isend(1, 77, 3, 9), 1);
  b1.recv(0, 77, 3, 8);
  const std::uint64_t sizes[2] = {0, 11};
  b0.alltoallv(sizes, 10, 1);
  b2.alltoallv(sizes, 10, 1);
  for (RankBuilder* b : {&b0, &b1, &b2}) {
    b->allreduce(64, 22);
    b->bcast(2, 128, 33);
  }
  return t;
}

// Both trace readers, swept with seeded mutations: every input is decoded or
// rejected with hps::Error, never a third outcome (abort, bad_alloc, crash).
TEST(Io, MutatedBinaryTracesDecodeOrRejectWithError) {
  std::stringstream ss;
  write_binary(small_mixed_trace(), ss);
  hps::testing::expect_decoded_or_rejected(ss.str(), [](const std::string& bytes) {
    std::istringstream is(bytes);
    read_binary(is);
  });
}

TEST(TextFormat, MutatedTextTracesParseOrRejectWithError) {
  std::stringstream ss;
  write_text_format(small_mixed_trace(), ss);
  hps::testing::expect_decoded_or_rejected(ss.str(), [](const std::string& text) {
    std::istringstream is(text);
    read_text_format(is);
  });
}

// A communicator naming a rank twice has no well-defined member index, so
// both readers refuse it.
TEST(Io, RejectsDuplicateCommMembers) {
  Trace t(meta(3));
  t.add_comm({0, 2});
  std::stringstream ss;
  write_binary(t, ss);
  std::string bytes = ss.str();
  const std::string comm("\x02\0\0\0\0\0\0\0\x02\0\0\0", 12);  // size 2: {0, 2}
  const auto at = bytes.find(comm);
  ASSERT_NE(at, std::string::npos);
  bytes[at + 8] = 0;  // {0, 0}
  std::istringstream is(bytes);
  EXPECT_THROW(
      try { read_binary(is); } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("duplicate member"), std::string::npos);
        throw;
      },
      Error);
}

TEST(TextFormat, RejectsDuplicateCommMembers) {
  std::stringstream ss("meta app=x variant=- machine=m ranks=3\ncomm 1 = 2 0 2\n");
  EXPECT_THROW(
      try { read_text_format(ss); } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2: duplicate comm member"),
                  std::string::npos);
        throw;
      },
      Error);
}

TEST(Io, TextDumpContainsOps) {
  Trace t = valid_pair_trace();
  std::stringstream ss;
  write_text(t, ss);
  const std::string s = ss.str();
  EXPECT_NE(s.find("Send"), std::string::npos);
  EXPECT_NE(s.find("Barrier"), std::string::npos);
}

TEST(Event, OpPredicates) {
  EXPECT_TRUE(is_p2p(OpType::kIsend));
  EXPECT_FALSE(is_p2p(OpType::kBarrier));
  EXPECT_TRUE(is_collective(OpType::kAlltoallv));
  EXPECT_FALSE(is_collective(OpType::kWait));
  EXPECT_TRUE(is_rooted(OpType::kScatter));
  EXPECT_FALSE(is_rooted(OpType::kAllreduce));
  EXPECT_TRUE(is_alltoall_like(OpType::kAlltoall));
}

TEST(TextFormat, RoundTripsStructure) {
  Trace t(meta(3, "textfmt"));
  t.add_comm({0, 2});
  RankBuilder b0(t, 0), b1(t, 1), b2(t, 2);
  b0.compute(1234);
  const auto rq = b0.isend(1, 77, 3, 9);
  b0.wait(rq, 5);
  b1.recv(0, 77, 3, 8);
  const std::uint64_t sizes[2] = {0, 11};
  b0.alltoallv(sizes, 10, 1);
  b2.alltoallv(sizes, 10, 1);
  for (Rank r = 0; r < 3; ++r) {
    RankBuilder b(t, r);
    // Builders share request counters only within an instance; collective
    // lines are fine to add from fresh builders.
  }
  b0.allreduce(64, 22);
  b1.allreduce(64, 22);
  b2.allreduce(64, 22);
  b0.bcast(2, 128, 33);
  b1.bcast(2, 128, 33);
  b2.bcast(2, 128, 33);
  ASSERT_TRUE(validate(t).empty());

  std::stringstream ss;
  write_text_format(t, ss);
  const Trace u = read_text_format(ss);
  EXPECT_EQ(u.meta().app, "textfmt");
  EXPECT_EQ(u.nranks(), 3);
  EXPECT_EQ(u.num_comms(), 2u);
  EXPECT_EQ(u.comm(1), (std::vector<Rank>{0, 2}));
  EXPECT_EQ(u.total_events(), t.total_events());
  EXPECT_TRUE(validate(u).empty());
  // Event-level equality of the first rank.
  const auto& ea = t.rank(0).events;
  const auto& eb = u.rank(0).events;
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].type, eb[i].type) << i;
    EXPECT_EQ(ea[i].bytes, eb[i].bytes) << i;
    EXPECT_EQ(ea[i].duration, eb[i].duration) << i;
  }
}

TEST(TextFormat, ParsesHandWrittenTrace) {
  const char* text = R"(# hand-written
meta app=mini variant=- machine=cielito ranks=2 rpn=4 seed=3
rank 0
  compute dur=500
  send peer=1 bytes=32 tag=7 dur=10   # inline comment
  barrier dur=5
endrank
rank 1
  recv peer=0 bytes=32 tag=7 dur=12
  barrier dur=5
endrank
)";
  std::stringstream ss(text);
  const Trace t = read_text_format(ss);
  EXPECT_EQ(t.nranks(), 2);
  EXPECT_TRUE(validate(t).empty());
  EXPECT_EQ(t.rank(0).events.size(), 3u);
  EXPECT_EQ(t.rank(0).events[1].bytes, 32u);
}

TEST(TextFormat, RejectsMalformedInput) {
  auto parse = [](const char* text) {
    std::stringstream ss(text);
    return read_text_format(ss);
  };
  EXPECT_THROW(parse("rank 0\nendrank\n"), Error);  // no meta
  EXPECT_THROW(parse("meta app=x variant=- machine=m ranks=0\n"), Error);
  EXPECT_THROW(parse("meta app=x variant=- machine=m ranks=2\nrank 5\n"), Error);
  EXPECT_THROW(parse("meta app=x variant=- machine=m ranks=2\ncompute dur=5\n"), Error);
  EXPECT_THROW(
      parse("meta app=x variant=- machine=m ranks=2\nrank 0\nfrobnicate dur=1\n"), Error);
  EXPECT_THROW(
      parse("meta app=x variant=- machine=m ranks=2\nrank 0\nsend peer=9 bytes=b\n"),
      Error);
}

// Values the trace container or builder would abort on are input errors.
TEST(TextFormat, RejectsValuesTheContainerWouldAbortOn) {
  auto parse = [](const char* text) {
    std::stringstream ss(text);
    return read_text_format(ss);
  };
  EXPECT_THROW(parse("meta app=x variant=- machine=m ranks=2 rpn=0\n"), Error);
  EXPECT_THROW(parse("meta app=x variant=- machine=m ranks=4294967298\n"), Error);
  EXPECT_THROW(parse("meta app=x variant=- machine=m ranks=2\nrank 0\ncompute dur=-5\n"),
               Error);
}

}  // namespace
}  // namespace hps::trace
