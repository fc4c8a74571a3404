// Tests for the MFACT modeling tool: Hockney arithmetic on the logical
// clocks, multi-configuration concurrency (a sweep in one replay equals
// separate replays), counter attribution, the collective cost models, and
// the classifier.
#include "common/error.hpp"
#include <gtest/gtest.h>
#include <cmath>

#include "mfact/classify.hpp"
#include "mfact/coll_cost.hpp"
#include "mfact/model.hpp"
#include "trace/builder.hpp"
#include "trace/validate.hpp"

namespace hps::mfact {
namespace {

using trace::OpType;
using trace::RankBuilder;
using trace::Trace;
using trace::TraceMeta;

TraceMeta meta(Rank n) {
  TraceMeta m;
  m.app = "unit";
  m.nranks = n;
  m.ranks_per_node = 16;
  m.machine = "cielito";
  return m;
}

NetworkConfigPoint cfg(Bandwidth bw, SimTime lat, double cs = 1.0) {
  return {bw, lat, cs, ""};
}

constexpr SimTime kO = 500;  // overhead used in these tests
MfactParams params() {
  MfactParams p;
  p.overhead = kO;
  return p;
}

TEST(Mfact, PointToPointHockneyArithmetic) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.send(1, 10000, 1, 0);
  b1.recv(0, 10000, 1, 0);
  // B = 1e9 B/s -> 10000 B = 10000 ns; L = 2000 ns.
  const auto res = run_mfact(t, {cfg(1e9, 2000)}, params());
  // Receiver clock: send(0) + o + L + m/B + o = 500+2000+10000+500 = 13000.
  EXPECT_EQ(res[0].total_time, 13000);
}

TEST(Mfact, ComputeScalesPerConfig) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.compute(1000);
  b1.compute(500);
  const auto res = run_mfact(t, {cfg(1e9, 100, 1.0), cfg(1e9, 100, 2.0)}, params());
  EXPECT_EQ(res[0].total_time, 1000);
  EXPECT_EQ(res[1].total_time, 2000);
}

TEST(Mfact, SweepMatchesIndividualRuns) {
  // The headline MFACT feature: evaluating k configs in one replay must give
  // identical results to k separate replays.
  Trace t(meta(4));
  for (Rank r = 0; r < 4; ++r) {
    RankBuilder b(t, r);
    b.compute(1000 * (r + 1));
    const Rank peer = r ^ 1;
    b.irecv(peer, 5000, 3, 0);
    b.isend(peer, 5000, 3, 0);
    b.waitall(0);
    b.allreduce(64, 0);
  }
  trace::validate_or_throw(t);
  const std::vector<NetworkConfigPoint> sweep = {cfg(1e9, 100), cfg(2e9, 100),
                                                 cfg(1e9, 5000), cfg(5e8, 50, 2.0)};
  const auto together = run_mfact(t, sweep, params());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto alone = run_mfact(t, {sweep[i]}, params());
    EXPECT_EQ(together[i].total_time, alone[0].total_time) << "config " << i;
    EXPECT_EQ(together[i].comm_time_mean, alone[0].comm_time_mean) << "config " << i;
  }
}

TEST(Mfact, WaitCounterCapturesImbalance) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.compute(100000);
  b0.barrier(0);
  b1.compute(1000);
  b1.barrier(0);
  const auto res = run_mfact(t, {cfg(1e9, 100)}, params());
  // Rank 1 waits ~99000 ns at the barrier.
  EXPECT_NEAR(res[0].counters.wait, 99000, 1.0);
}

TEST(Mfact, BandwidthCounterGrowsWhenBandwidthDrops) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.send(1, 1000000, 1, 0);
  b1.recv(0, 1000000, 1, 0);
  const auto res = run_mfact(t, {cfg(1e9, 100), cfg(1e8, 100)}, params());
  EXPECT_NEAR(res[1].counters.bandwidth, 10.0 * res[0].counters.bandwidth,
              res[0].counters.bandwidth * 0.01);
  EXPECT_GT(res[1].total_time, res[0].total_time);
}

TEST(Mfact, OneWayStreamPipelinesLatency) {
  // A one-way message stream pays the latency once, not per message: the
  // logical clocks pipeline. 8x latency must NOT cost 100x the delta.
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  for (int i = 0; i < 100; ++i) {
    b0.send(1, 8, 1, 0);
    b1.recv(0, 8, 1, 0);
  }
  const auto res = run_mfact(t, {cfg(1e9, 1000), cfg(1e9, 8000)}, params());
  EXPECT_GT(res[1].total_time, res[0].total_time);
  EXPECT_LT(res[1].total_time, res[0].total_time + 20 * 7000);
}

TEST(Mfact, PingPongSerializesLatency) {
  // Request-reply chains pay the full latency every round trip.
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  for (int i = 0; i < 100; ++i) {
    b0.send(1, 8, 1, 0);
    b0.recv(1, 8, 2, 0);
    b1.recv(0, 8, 1, 0);
    b1.send(0, 8, 2, 0);
  }
  const auto res = run_mfact(t, {cfg(1e9, 1000), cfg(1e9, 8000)}, params());
  EXPECT_GT(res[1].total_time, res[0].total_time + 100 * 2 * 6000);
}

TEST(Mfact, UnexpectedMessageDoesNotWait) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.send(1, 100, 1, 0);
  b1.compute(1000000);
  b1.recv(0, 100, 1, 0);
  const auto res = run_mfact(t, {cfg(1e9, 100)}, params());
  // Receiver only pays its overhead after the compute (message waited).
  EXPECT_EQ(res[0].total_time, 1000000 + kO);
  EXPECT_EQ(res[0].counters.wait, 0.0);
}

TEST(Mfact, CollectiveSynchronizes) {
  Trace t(meta(3));
  for (Rank r = 0; r < 3; ++r) {
    RankBuilder b(t, r);
    b.compute((r + 1) * 10000);
    b.allreduce(1024, 0);
    b.compute(100);
  }
  const auto res = run_mfact(t, {cfg(1e9, 100)}, params());
  // All ranks leave the allreduce together: total = 30000 + T_coll + 100.
  const auto cost = collective_cost(OpType::kAllreduce, 3, 1024,
                                    {1e9, 100, static_cast<double>(kO), 32 * KiB});
  EXPECT_NEAR(static_cast<double>(res[0].total_time), 30000 + cost.total() + 100, 2.0);
}

TEST(Mfact, WaitAllDrainsIrecvs) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b1.irecv(0, 1000, 1, 0);
  b1.irecv(0, 1000, 2, 0);
  b1.waitall(0);
  b0.compute(50000);
  b0.isend(1, 1000, 1, 0);
  b0.isend(1, 1000, 2, 0);
  b0.waitall(0);
  trace::validate_or_throw(t);
  const auto res = run_mfact(t, {cfg(1e9, 100)}, params());
  EXPECT_GT(res[0].total_time, 50000);
}

// WaitAll drains the posted irecvs in the iteration order of MFACT's
// request table, and each consumed arrival moves the rank's clock before the
// next is absorbed, so the order shows in the prediction: draining these
// three in post order would give 33100 / 8650 instead. Pinned against the
// predictions the replay has always made.
TEST(Mfact, WaitAllDrainOrderIsPinned) {
  Trace t(meta(4));
  RankBuilder b0(t, 0);
  for (Rank src = 1; src < 4; ++src) b0.irecv(src, 1000, 7, 0);
  b0.waitall(0);
  const SimTime compute[4] = {0, 30000, 10000, 20000};
  for (Rank src = 1; src < 4; ++src) {
    RankBuilder b(t, src);
    b.compute(compute[src]);
    b.send(0, 1000, 7, 0);
  }
  trace::validate_or_throw(t);
  const auto res = run_mfact(t, {cfg(1e9, 100)}, params());
  EXPECT_EQ(res[0].total_time, 32100);
  EXPECT_EQ(res[0].comm_time_mean, 8400);
}

TEST(Mfact, DeadlockDiagnosed) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.recv(1, 10, 1, 0);  // matching send never posted before the recv on both
  b1.recv(0, 10, 1, 0);
  b0.send(1, 10, 1, 0);
  b1.send(0, 10, 1, 0);
  EXPECT_THROW(run_mfact(t, {cfg(1e9, 100)}, params()), Error);
}

TEST(CollCost, BarrierIsLatencyOnly) {
  const CostParams p{1e9, 1000, 500, 32 * KiB};
  const auto c = collective_cost(OpType::kBarrier, 16, 0, p);
  EXPECT_EQ(c.bandwidth_ns, 0.0);
  EXPECT_NEAR(c.latency_ns, 4 * 1500.0, 1e-9);  // log2(16) rounds
}

TEST(CollCost, AllreduceSwitchesToRabenseifner) {
  const CostParams p{1e9, 1000, 500, 32 * KiB};
  const auto small = collective_cost(OpType::kAllreduce, 16, 1024, p);
  const auto large = collective_cost(OpType::kAllreduce, 16, 1 << 20, p);
  // Small: log n x m/B; large: 2 (n-1)/n x m/B (much less than log n x m/B).
  EXPECT_NEAR(small.bandwidth_ns, 4 * 1024 / 1.0, 1.0);
  EXPECT_NEAR(large.bandwidth_ns, 2.0 * 15.0 / 16.0 * (1 << 20), 10.0);
  EXPECT_LT(large.bandwidth_ns, std::log2(16) * (1 << 20));
}

TEST(CollCost, AlltoallScalesWithCommSize) {
  const CostParams p{1e9, 1000, 500, 32 * KiB};
  const auto c8 = collective_cost(OpType::kAlltoall, 8, 1000, p);
  const auto c64 = collective_cost(OpType::kAlltoall, 64, 1000, p);
  EXPECT_GT(c64.total(), 7.0 * c8.total());
}

TEST(CollCost, SingleMemberFree) {
  const CostParams p{1e9, 1000, 500, 32 * KiB};
  EXPECT_EQ(collective_cost(OpType::kAllreduce, 1, 4096, p).total(), 0.0);
}

TEST(CollCost, ReduceScatterCheaperThanAllreduce) {
  const CostParams p{1e9, 1000, 500, 32 * KiB};
  const auto rs = collective_cost(OpType::kReduceScatter, 16, 1 << 20, p);
  const auto ar = collective_cost(OpType::kAllreduce, 16, 1 << 20, p);
  EXPECT_LT(rs.bandwidth_ns, ar.bandwidth_ns);
  EXPECT_GT(rs.total(), 0.0);
}

TEST(CollCost, ScanIsLatencyDominatedAtScale) {
  const CostParams p{1e9, 1000, 500, 32 * KiB};
  const auto small = collective_cost(OpType::kScan, 8, 64, p);
  const auto large = collective_cost(OpType::kScan, 128, 64, p);
  EXPECT_NEAR(large.latency_ns / small.latency_ns, 127.0 / 7.0, 0.01);
}

TEST(CollCost, Log2Ceil) {
  EXPECT_EQ(log2_ceil(1), 0);
  EXPECT_EQ(log2_ceil(2), 1);
  EXPECT_EQ(log2_ceil(3), 2);
  EXPECT_EQ(log2_ceil(1024), 10);
  EXPECT_EQ(log2_ceil(1025), 11);
}

TEST(Classify, ComputeBoundTrace) {
  Trace t(meta(4));
  for (Rank r = 0; r < 4; ++r) {
    RankBuilder b(t, r);
    b.compute(100 * kMillisecond);
    b.allreduce(8, 0);
  }
  const Classification cl = classify(t, 1e9, 2500);
  EXPECT_EQ(cl.app_class, AppClass::kComputationBound);
  EXPECT_EQ(cl.group, SensitivityGroup::kNotCommSensitive);
  EXPECT_LT(cl.bw_sensitivity, 0.01);
}

TEST(Classify, BandwidthBoundTrace) {
  Trace t(meta(4));
  for (Rank r = 0; r < 4; ++r) {
    RankBuilder b(t, r);
    b.compute(kMicrosecond);
    b.alltoall(1 * MiB, 0);
  }
  const Classification cl = classify(t, 1e9, 2500);
  EXPECT_EQ(cl.group, SensitivityGroup::kCommSensitive);
  EXPECT_GT(cl.bw_sensitivity, 1.0);  // nearly pure bandwidth: ~7x
}

TEST(Classify, LoadImbalanceBoundTrace) {
  Trace t(meta(4));
  for (Rank r = 0; r < 4; ++r) {
    RankBuilder b(t, r);
    for (int i = 0; i < 10; ++i) {
      b.compute(r == 0 ? 10 * kMillisecond : kMillisecond);
      b.barrier(0);
    }
  }
  const Classification cl = classify(t, 1e9, 2500);
  EXPECT_EQ(cl.app_class, AppClass::kLoadImbalanceBound);
  EXPECT_EQ(cl.group, SensitivityGroup::kNotCommSensitive);
  EXPECT_GT(cl.wait_fraction, 0.3);
}

TEST(Classify, LatencyBoundTrace) {
  // Ping-pong of tiny messages: round-trip latency dominates.
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  for (int i = 0; i < 2000; ++i) {
    b0.send(1, 8, 1, 0);
    b0.recv(1, 8, 2, 0);
    b1.recv(0, 8, 1, 0);
    b1.send(0, 8, 2, 0);
  }
  const Classification cl = classify(t, 1e9, 2500);
  EXPECT_EQ(cl.app_class, AppClass::kLatencyBound);
}

TEST(Classify, SweepShapeSane) {
  const auto sweep = make_sensitivity_sweep(1e9, 2000);
  ASSERT_EQ(sweep.size(), static_cast<std::size_t>(kSweepNumPoints));
  EXPECT_DOUBLE_EQ(sweep[kSweepBwUp8].bandwidth, 8e9);
  EXPECT_DOUBLE_EQ(sweep[kSweepBwDown8].bandwidth, 1e9 / 8);
  EXPECT_EQ(sweep[kSweepLatUp8].latency, 16000);
  EXPECT_EQ(sweep[kSweepLatDown8].latency, 250);
}

TEST(LogGp, PacesSendBursts) {
  // 50 back-to-back 64 KiB sends: Hockney charges the sender only o each,
  // LogGP serializes them at the NIC (g + m*G), so LogGP's total is much
  // larger and closer to what a real NIC would allow.
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  for (int i = 0; i < 50; ++i) b0.isend(1, 64 * 1024, 1, 0);
  b0.waitall(0);
  for (int i = 0; i < 50; ++i) b1.recv(0, 64 * 1024, 1, 0);
  trace::validate_or_throw(t);

  MfactParams hockney = params();
  MfactParams loggp = params();
  loggp.p2p_model = P2pCostModel::kLogGP;
  const auto h = run_mfact(t, {cfg(1e9, 2000)}, hockney);
  const auto g = run_mfact(t, {cfg(1e9, 2000)}, loggp);
  // 50 x 65536 B at 1 B/ns = ~3.3 ms of NIC serialization under LogGP.
  EXPECT_GT(g[0].total_time, h[0].total_time + 2 * kMillisecond);
}

TEST(LogGp, SingleMessageMatchesHockney) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.send(1, 10000, 1, 0);
  b1.recv(0, 10000, 1, 0);
  MfactParams loggp = params();
  loggp.p2p_model = P2pCostModel::kLogGP;
  const auto h = run_mfact(t, {cfg(1e9, 2000)}, params());
  const auto g = run_mfact(t, {cfg(1e9, 2000)}, loggp);
  EXPECT_EQ(h[0].total_time, g[0].total_time);
}

}  // namespace
}  // namespace hps::mfact
