// Integration tests of the MPI replay engine on the simulated networks:
// timing plausibility, happened-before enforcement, eager vs rendezvous,
// nonblocking completion, collectives through the network, determinism, and
// deadlock detection.
#include "common/error.hpp"
#include <gtest/gtest.h>

#include "machine/machine.hpp"
#include "robust/guard.hpp"
#include "simmpi/replayer.hpp"
#include "trace/builder.hpp"
#include "trace/validate.hpp"

namespace hps::simmpi {
namespace {

using trace::OpType;
using trace::RankBuilder;
using trace::Trace;
using trace::TraceMeta;

TraceMeta meta(Rank n) {
  TraceMeta m;
  m.app = "unit";
  m.nranks = n;
  m.ranks_per_node = 1;  // every rank on its own node: all traffic hits the network
  m.machine = "cielito";
  return m;
}

machine::MachineInstance instance(const Trace& t) {
  return machine::MachineInstance(machine::cielito(), t.nranks(), t.meta().ranks_per_node);
}

class ReplayerAllModels : public ::testing::TestWithParam<NetModelKind> {};

TEST_P(ReplayerAllModels, PingPongTiming) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.send(1, 1024, 1, 0);
  b0.recv(1, 1024, 2, 0);
  b1.recv(0, 1024, 1, 0);
  b1.send(0, 1024, 2, 0);
  trace::validate_or_throw(t);

  const auto mi = instance(t);
  const ReplayResult r = replay_trace(t, mi, GetParam());
  // One round trip of 1 KiB: at least 2x (2 overheads + transfer).
  const SimTime min_one_way = 2 * mi.software_overhead() + 1024 / 2;
  EXPECT_GT(r.total_time, 2 * min_one_way / 2);
  EXPECT_LT(r.total_time, 10 * kMillisecond);
  EXPECT_EQ(r.rank_finish.size(), 2u);
}

TEST_P(ReplayerAllModels, ComputeOnlyMatchesTrace) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.compute(5 * kMillisecond);
  b1.compute(3 * kMillisecond);
  const ReplayResult r = replay_trace(t, instance(t), GetParam());
  EXPECT_EQ(r.total_time, 5 * kMillisecond);
  EXPECT_EQ(r.rank_comm[0], 0);
  EXPECT_EQ(r.rank_comm[1], 0);
}

TEST_P(ReplayerAllModels, ComputeScaleApplies) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.compute(10 * kMillisecond);
  b1.compute(1 * kMillisecond);
  ReplayConfig cfg;
  cfg.compute_scale = 0.5;
  const ReplayResult r = replay_trace(t, instance(t), GetParam(), cfg);
  EXPECT_EQ(r.total_time, 5 * kMillisecond);
}

TEST_P(ReplayerAllModels, HappenedBeforeHonored) {
  // Rank 1's recv must wait for rank 0's long compute before the send.
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.compute(20 * kMillisecond).send(1, 64, 1, 0);
  b1.recv(0, 64, 1, 0);
  const ReplayResult r = replay_trace(t, instance(t), GetParam());
  EXPECT_GT(r.rank_finish[1], 20 * kMillisecond);
  // Receiver idled through the sender's compute: that is comm (wait) time.
  EXPECT_GT(r.rank_comm[1], 19 * kMillisecond);
}

TEST_P(ReplayerAllModels, UnexpectedMessageBuffered) {
  // Send arrives long before the recv is posted; recv should complete
  // instantly when posted.
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.send(1, 64, 1, 0);  // eager, fire-and-forget
  b1.compute(50 * kMillisecond);
  b1.recv(0, 64, 1, 0);
  const ReplayResult r = replay_trace(t, instance(t), GetParam());
  EXPECT_LT(r.rank_finish[1], 51 * kMillisecond);
}

TEST_P(ReplayerAllModels, RendezvousCouplesSenderToReceiver) {
  // A large (rendezvous) blocking send cannot complete until the receiver
  // posts its recv after a long compute.
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.send(1, 1 * MiB, 1, 0);
  b1.compute(30 * kMillisecond);
  b1.recv(0, 1 * MiB, 1, 0);
  const ReplayResult r = replay_trace(t, instance(t), GetParam());
  EXPECT_GT(r.rank_finish[0], 30 * kMillisecond) << "sender returned before receiver posted";
}

TEST_P(ReplayerAllModels, EagerSendDoesNotBlock) {
  // A small (eager) blocking send completes even though the receiver posts
  // its recv much later.
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.send(1, 512, 1, 0);
  b0.compute(1 * kMillisecond);
  b1.compute(80 * kMillisecond);
  b1.recv(0, 512, 1, 0);
  const ReplayResult r = replay_trace(t, instance(t), GetParam());
  EXPECT_LT(r.rank_finish[0], 10 * kMillisecond);
}

TEST_P(ReplayerAllModels, NonblockingOverlapsComputation) {
  // Isend/Irecv + compute + Wait: the transfer overlaps the compute, so the
  // total is about the compute time, not compute + transfer.
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  const std::uint64_t big = 4 * MiB;  // ~3.3 ms at 10 Gbps
  const auto r1 = b1.irecv(0, big, 1, 0);
  b1.compute(20 * kMillisecond);
  b1.wait(r1, 0);
  const auto r0 = b0.isend(1, big, 1, 0);
  b0.compute(20 * kMillisecond);
  b0.wait(r0, 0);
  const ReplayResult r = replay_trace(t, instance(t), GetParam());
  EXPECT_LT(r.total_time, 26 * kMillisecond);
}

TEST_P(ReplayerAllModels, MessageOrderPreservedPerStream) {
  // Two same-tag messages must match in order even if sizes differ.
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.send(1, 100, 1, 0);
  b0.send(1, 2000, 1, 0);
  b1.recv(0, 100, 1, 0);
  b1.recv(0, 2000, 1, 0);
  trace::validate_or_throw(t);
  const ReplayResult r = replay_trace(t, instance(t), GetParam());
  EXPECT_GT(r.total_time, 0);
}

TEST_P(ReplayerAllModels, CollectivesRunThroughTheNetwork) {
  Trace t(meta(8));
  for (Rank r = 0; r < 8; ++r) {
    RankBuilder b(t, r);
    b.compute(kMillisecond);
    b.allreduce(4096, 0);
    b.barrier(0);
    b.bcast(2, 64 * 1024, 0);
    b.alltoall(2048, 0);
  }
  trace::validate_or_throw(t);
  const ReplayResult r = replay_trace(t, instance(t), GetParam());
  EXPECT_GT(r.total_time, kMillisecond);
  EXPECT_GT(r.net.messages, 8u) << "collectives must generate network traffic";
}

TEST_P(ReplayerAllModels, SubCommunicatorCollective) {
  Trace t(meta(6));
  const CommId odd = t.add_comm({1, 3, 5});
  for (Rank r = 0; r < 6; ++r) {
    RankBuilder b(t, r);
    b.compute(100);
    if (r % 2 == 1) b.allreduce(1024, 0, odd);
    b.barrier(0);
  }
  trace::validate_or_throw(t);
  const ReplayResult r = replay_trace(t, instance(t), GetParam());
  EXPECT_GT(r.total_time, 0);
}

TEST_P(ReplayerAllModels, AlltoallvAsymmetricSizes) {
  Trace t(meta(4));
  // m[i][j]: bytes i sends to j.
  const std::uint64_t m[4][4] = {
      {0, 10000, 0, 500}, {0, 0, 20000, 0}, {64, 64, 0, 64}, {0, 0, 0, 0}};
  for (Rank r = 0; r < 4; ++r) {
    RankBuilder b(t, r);
    b.compute(1000);
    b.alltoallv(m[static_cast<std::size_t>(r)], 0);
  }
  trace::validate_or_throw(t);
  const ReplayResult res = replay_trace(t, instance(t), GetParam());
  EXPECT_GT(res.total_time, 0);
}

TEST_P(ReplayerAllModels, DeterministicAcrossRuns) {
  Trace t(meta(4));
  for (Rank r = 0; r < 4; ++r) {
    RankBuilder b(t, r);
    b.compute(1000 + 17 * r);
    b.allreduce(512, 0);
    const Rank peer = r ^ 1;
    b.irecv(peer, 4096, 9, 0);
    b.isend(peer, 4096, 9, 0);
    b.waitall(0);
  }
  trace::validate_or_throw(t);
  const auto mi = instance(t);
  const ReplayResult a = replay_trace(t, mi, GetParam());
  const ReplayResult b = replay_trace(t, mi, GetParam());
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.rank_finish, b.rank_finish);
}

TEST_P(ReplayerAllModels, DeadlockDetected) {
  // Head-to-head blocking rendezvous sends with receives afterwards: a real
  // MPI deadlock, which the replayer must diagnose rather than hang.
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.send(1, 1 * MiB, 1, 0);
  b0.recv(1, 1 * MiB, 2, 0);
  b1.send(0, 1 * MiB, 2, 0);
  b1.recv(0, 1 * MiB, 1, 0);
  EXPECT_THROW(replay_trace(t, instance(t), GetParam()), Error);
}

TEST_P(ReplayerAllModels, UnmatchedRecvDeadlock) {
  // A receive with no matching send anywhere: the replayer must terminate
  // with a structured DeadlockError — and the run guard must classify it as
  // FailKind::kDeadlock — instead of hanging forever.
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.recv(1, 4096, 1, 0);
  b1.compute(1000);
  EXPECT_THROW(replay_trace(t, instance(t), GetParam()), DeadlockError);
  const auto failure =
      robust::run_guarded([&] { (void)replay_trace(t, instance(t), GetParam()); });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, robust::FailKind::kDeadlock);
  EXPECT_FALSE(failure->message.empty());
}

INSTANTIATE_TEST_SUITE_P(Models, ReplayerAllModels,
                         ::testing::Values(NetModelKind::kPacket, NetModelKind::kFlow,
                                           NetModelKind::kPacketFlow),
                         [](const ::testing::TestParamInfo<NetModelKind>& info) {
                           switch (info.param) {
                             case NetModelKind::kPacket: return "packet";
                             case NetModelKind::kFlow: return "flow";
                             default: return "packetflow";
                           }
                         });

// A long stream of back-to-back collectives whose sub-operations reach the
// same peers as app-level nonblocking traffic running alongside them. Each
// collective instance has a tag of its own, so matching must pair the k-th
// message of an instance with the k-th receive of that instance whatever came
// before it. The constants are the replay's results on every network model
// as recorded when collectives still drew their sequence numbers from the
// per-stream counters that app point-to-point uses.
TEST(Replayer, LongCollectiveStreamWithInterleavedP2pIsPinned) {
  constexpr Rank kRanks = 64;
  constexpr int kInstances = 1024;
  Trace t(meta(kRanks));
  for (Rank r = 0; r < kRanks; ++r) {
    RankBuilder b(t, r);
    const Rank left = (r + kRanks - 1) % kRanks;
    const Rank right = (r + 1) % kRanks;
    for (int i = 0; i < kInstances; ++i) {
      b.irecv(left, 512, 3, 0);
      b.isend(right, 512, 3, 0);
      if (i % 16 == 0)
        b.alltoall(128, 0);
      else if (i % 16 == 8)  // Rabenseifner, its larger chunks in rendezvous
        b.allreduce(48 * KiB, 0);
      else  // recursive doubling
        b.allreduce(64, 0);
      b.waitall(0);
      b.compute(1000 + 37 * ((r * 7 + i) % 5));
    }
  }
  trace::validate_or_throw(t);
  const auto mi = instance(t);
  struct Pin {
    NetModelKind kind;
    SimTime total_time;
    std::uint64_t events_processed;
    std::uint64_t packets;
  };
  for (const Pin& pin : {Pin{NetModelKind::kPacket, 29253160, 7463693, 1093632},
                         Pin{NetModelKind::kFlow, 33142954, 2947971, 0},
                         Pin{NetModelKind::kPacketFlow, 29493924, 4629464, 815104}}) {
    const ReplayResult r = replay_trace(t, mi, pin.kind);
    EXPECT_EQ(r.total_time, pin.total_time) << net_model_name(pin.kind);
    EXPECT_EQ(r.engine.events_processed, pin.events_processed) << net_model_name(pin.kind);
    EXPECT_EQ(r.net.packets, pin.packets) << net_model_name(pin.kind);
  }
}

TEST(Replayer, SameNodeRanksUseLocalPath) {
  TraceMeta m = meta(2);
  m.ranks_per_node = 2;  // both ranks on one node
  Trace t(m);
  RankBuilder b0(t, 0), b1(t, 1);
  b0.send(1, 1 * MiB, 1, 0);
  b1.recv(0, 1 * MiB, 1, 0);
  const machine::MachineInstance mi(machine::cielito(), 2, 2);
  const ReplayResult r = replay_trace(t, mi, NetModelKind::kPacket);
  // 1 MiB at 10 Gbps would take ~840 us on the wire; local copy is ~20 us.
  EXPECT_LT(r.total_time, 200 * kMicrosecond);
}

TEST(Replayer, EagerThresholdConfigurable) {
  Trace t(meta(2));
  RankBuilder b0(t, 0), b1(t, 1);
  b0.send(1, 16 * 1024, 1, 0);
  b1.compute(10 * kMillisecond);
  b1.recv(0, 16 * 1024, 1, 0);
  ReplayConfig eager_cfg;
  eager_cfg.eager_threshold = 64 * 1024;  // now eager: sender free early
  const ReplayResult eager = replay_trace(t, instance(t), NetModelKind::kPacketFlow,
                                          eager_cfg);
  ReplayConfig rdv_cfg;
  rdv_cfg.eager_threshold = 1024;  // rendezvous: sender blocked on receiver
  const ReplayResult rdv = replay_trace(t, instance(t), NetModelKind::kPacketFlow, rdv_cfg);
  EXPECT_LT(eager.rank_finish[0], kMillisecond);
  EXPECT_GT(rdv.rank_finish[0], 10 * kMillisecond);
}

// A 1024-rank Alltoallv's pairwise schedule is 3 * 1023 SubOps per rank; the
// replayer holds one window of it at a time, and the run still completes.
TEST(Replayer, AlltoallvHoldsOneScheduleWindowPerRank) {
  constexpr Rank kRanks = 1024;
  TraceMeta m = meta(kRanks);
  m.ranks_per_node = 16;
  Trace t(m);
  std::vector<std::uint64_t> sizes(kRanks);
  for (Rank r = 0; r < kRanks; ++r) {
    for (Rank j = 0; j < kRanks; ++j)
      sizes[static_cast<std::size_t>(j)] = (r * 7 + j * 3) % 5 == 0 ? 0 : 16;
    RankBuilder(t, r).alltoallv(sizes, 0);
  }
  trace::validate_or_throw(t);
  const machine::MachineInstance mi(machine::cielito(), kRanks, m.ranks_per_node);
  Replayer rp(t, mi, NetModelKind::kPacketFlow, {});
  const ReplayResult res = rp.run();
  EXPECT_GT(res.total_time, 0);
  EXPECT_LE(rp.peak_window(), 3u * kScheduleWindow);
  EXPECT_GT(rp.peak_window(), 2u * kScheduleWindow);
}

}  // namespace
}  // namespace hps::simmpi
