// Tests for the collective-to-point-to-point decomposition: for every
// algorithm and a sweep of communicator sizes, the per-rank schedules must
// mutually match (every Isend has exactly one matching Recv in the same
// round structure, carrying the same per-peer seq), be deadlock-free under
// blocking semantics, and move the right amount of data.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "reference_collectives.hpp"
#include "simmpi/collectives.hpp"

namespace hps::simmpi {
namespace {

using trace::OpType;

/// Expand the collective for every rank of an n-member communicator.
std::vector<std::vector<SubOp>> expand_all(OpType op, int n, std::uint64_t bytes, int root,
                                           const CollectiveAlgos& algos = {}) {
  std::vector<std::vector<SubOp>> out(static_cast<std::size_t>(n));
  for (int me = 0; me < n; ++me) {
    CollectiveDesc d;
    d.op = op;
    d.n = n;
    d.me = me;
    d.root = root;
    d.bytes = bytes;
    expand_collective(d, algos, out[static_cast<std::size_t>(me)]);
  }
  return out;
}

/// Simulate blocking execution of the schedules; returns total bytes moved,
/// asserts no deadlock and full consumption. This is an abstract executor:
/// recv blocks until the matching isend was *issued* (sends are nonblocking).
/// Messages pair FIFO per (sender, receiver), and the k-th Isend i->j must
/// carry the same seq as the k-th Recv at j from i: the replayer matches on
/// that seq alone.
std::uint64_t execute(const std::vector<std::vector<SubOp>>& scheds) {
  const int n = static_cast<int>(scheds.size());
  std::vector<std::size_t> pc(static_cast<std::size_t>(n), 0);
  std::vector<int> outstanding(static_cast<std::size_t>(n), 0);
  // sent[from][to] = queue of (byte count, seq), FIFO.
  std::map<std::pair<int, int>, std::queue<std::pair<std::uint64_t, std::uint16_t>>> sent;
  std::uint64_t total_bytes = 0;

  bool progress = true;
  while (progress) {
    progress = false;
    for (int r = 0; r < n; ++r) {
      auto& cursor = pc[static_cast<std::size_t>(r)];
      const auto& sched = scheds[static_cast<std::size_t>(r)];
      while (cursor < sched.size()) {
        const SubOp& op = sched[cursor];
        if (op.kind == SubOp::Kind::kIsend) {
          sent[{r, op.peer}].push({op.bytes, op.seq});
          ++outstanding[static_cast<std::size_t>(r)];
          total_bytes += op.bytes;
        } else if (op.kind == SubOp::Kind::kRecv) {
          auto it = sent.find({op.peer, r});
          if (it == sent.end() || it->second.empty()) break;  // blocked
          EXPECT_EQ(it->second.front().first, op.bytes)
              << "rank " << r << " expects " << op.bytes << " from " << op.peer;
          EXPECT_EQ(it->second.front().second, op.seq)
              << "rank " << r << " receive from " << op.peer << " has the wrong seq";
          it->second.pop();
        } else if (op.kind == SubOp::Kind::kWaitOne) {
          EXPECT_GT(outstanding[static_cast<std::size_t>(r)], 0);
          --outstanding[static_cast<std::size_t>(r)];
        } else {  // kWaitAll
          outstanding[static_cast<std::size_t>(r)] = 0;
        }
        ++cursor;
        progress = true;
      }
    }
  }
  for (int r = 0; r < n; ++r)
    EXPECT_EQ(pc[static_cast<std::size_t>(r)], scheds[static_cast<std::size_t>(r)].size())
        << "rank " << r << " deadlocked";
  // Every sent message consumed.
  for (const auto& [key, q] : sent)
    EXPECT_TRUE(q.empty()) << "unconsumed messages from " << key.first << " to " << key.second;
  return total_bytes;
}

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, BarrierCompletes) {
  const int n = GetParam();
  execute(expand_all(OpType::kBarrier, n, 0, 0));
}

TEST_P(CollectiveSizes, BcastMovesPayloadToAll) {
  const int n = GetParam();
  for (const int root : {0, n / 2, n - 1}) {
    const auto scheds = expand_all(OpType::kBcast, n, 1000, root);
    // Binomial tree: exactly n-1 transfers of the payload.
    EXPECT_EQ(execute(scheds), static_cast<std::uint64_t>(n - 1) * 1000u);
    // Root receives nothing.
    for (const auto& op : scheds[static_cast<std::size_t>(root)])
      EXPECT_NE(op.kind, SubOp::Kind::kRecv);
  }
}

TEST_P(CollectiveSizes, ReduceMirrorsBcast) {
  const int n = GetParam();
  for (const int root : {0, n - 1}) {
    const auto scheds = expand_all(OpType::kReduce, n, 500, root);
    EXPECT_EQ(execute(scheds), static_cast<std::uint64_t>(n - 1) * 500u);
    for (const auto& op : scheds[static_cast<std::size_t>(root)])
      EXPECT_NE(op.kind, SubOp::Kind::kIsend);
  }
}

TEST_P(CollectiveSizes, AllreduceRecursiveDoublingCompletes) {
  const int n = GetParam();
  CollectiveAlgos algos;
  algos.allreduce_rabenseifner_threshold = 1 << 30;  // force recursive doubling
  execute(expand_all(OpType::kAllreduce, n, 4096, 0, algos));
}

TEST_P(CollectiveSizes, AllreduceRabenseifnerCompletes) {
  const int n = GetParam();
  CollectiveAlgos algos;
  algos.allreduce_rabenseifner_threshold = 1;  // force Rabenseifner
  execute(expand_all(OpType::kAllreduce, n, 1 << 20, 0, algos));
}

TEST_P(CollectiveSizes, AllgatherRingVolume) {
  const int n = GetParam();
  if (n < 2) GTEST_SKIP();
  const auto scheds = expand_all(OpType::kAllgather, n, 256, 0);
  // Ring: n ranks x (n-1) rounds x 256 bytes.
  EXPECT_EQ(execute(scheds), static_cast<std::uint64_t>(n) * (n - 1) * 256u);
}

TEST_P(CollectiveSizes, AlltoallPairwiseVolume) {
  const int n = GetParam();
  if (n < 2) GTEST_SKIP();
  const auto scheds = expand_all(OpType::kAlltoall, n, 128, 0);
  EXPECT_EQ(execute(scheds), static_cast<std::uint64_t>(n) * (n - 1) * 128u);
}

TEST_P(CollectiveSizes, AlltoallBruckCompletes) {
  const int n = GetParam();
  if (n < 2) GTEST_SKIP();
  CollectiveAlgos algos;
  algos.alltoall = CollectiveAlgos::Alltoall::kBruck;
  execute(expand_all(OpType::kAlltoall, n, 128, 0, algos));
}

TEST_P(CollectiveSizes, ReduceScatterCompletes) {
  const int n = GetParam();
  execute(expand_all(OpType::kReduceScatter, n, 4096 * static_cast<unsigned>(n), 0));
}

TEST_P(CollectiveSizes, ScanIsLinearChain) {
  const int n = GetParam();
  const auto scheds = expand_all(OpType::kScan, n, 512, 0);
  // Total volume: n-1 hops of the payload.
  EXPECT_EQ(execute(scheds), static_cast<std::uint64_t>(n - 1) * 512u);
  // Rank 0 never receives; the last rank never sends.
  for (const auto& op : scheds[0]) EXPECT_NE(op.kind, SubOp::Kind::kRecv);
  for (const auto& op : scheds[static_cast<std::size_t>(n - 1)])
    EXPECT_NE(op.kind, SubOp::Kind::kIsend);
}

TEST_P(CollectiveSizes, GatherScatterComplete) {
  const int n = GetParam();
  const auto g = expand_all(OpType::kGather, n, 64, 0);
  const auto s = expand_all(OpType::kScatter, n, 64, 0);
  // Tree gather/scatter move each rank's block once per tree edge traversal;
  // total volume is at least the sum of all non-root blocks.
  EXPECT_GE(execute(g), static_cast<std::uint64_t>(n - 1) * 64u);
  EXPECT_GE(execute(s), static_cast<std::uint64_t>(n - 1) * 64u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 13, 16, 17, 31, 32, 33, 64, 100),
                         [](const ::testing::TestParamInfo<int>& info) {
                           // Built via += (not operator+) to dodge a GCC 12
                           // -Wrestrict false positive (PR 105329).
                           std::string name = "n";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(Collectives, SingleMemberIsEmpty) {
  CollectiveDesc d;
  d.op = OpType::kAllreduce;
  d.n = 1;
  d.me = 0;
  d.bytes = 100;
  std::vector<SubOp> out;
  expand_collective(d, {}, out);
  EXPECT_TRUE(out.empty());
}

TEST(Collectives, AlltoallvRespectsSizesAndSkipsEmptyPairs) {
  const int n = 4;
  // send_matrix[i][j] = bytes i sends to j.
  std::uint64_t m[4][4] = {{0, 10, 0, 30}, {1, 0, 0, 0}, {0, 0, 0, 0}, {7, 0, 9, 0}};
  std::vector<std::vector<SubOp>> scheds(n);
  for (int me = 0; me < n; ++me) {
    std::vector<std::uint64_t> send(4), recv(4);
    for (int j = 0; j < 4; ++j) {
      send[static_cast<std::size_t>(j)] = m[me][j];
      recv[static_cast<std::size_t>(j)] = m[j][me];
    }
    CollectiveDesc d;
    d.op = OpType::kAlltoallv;
    d.n = n;
    d.me = me;
    d.send_sizes = send;
    d.recv_sizes = recv;
    expand_collective(d, {}, scheds[static_cast<std::size_t>(me)]);
  }
  std::uint64_t expected = 0;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      if (i != j) expected += m[i][j];
  EXPECT_EQ(execute(scheds), expected);
  // Rank 2 sends nothing and receives only from 3.
  int rank2_sends = 0;
  for (const auto& op : scheds[2])
    if (op.kind == SubOp::Kind::kIsend && op.bytes > 0) ++rank2_sends;
  EXPECT_EQ(rank2_sends, 0);
}

TEST(Collectives, RingSeqCountsPastOneByte) {
  // n - 1 = 299 ring rounds send to the same right neighbour, so one peer
  // gets more than 255 messages in a single schedule.
  const int n = 300;
  const auto scheds = expand_all(OpType::kAllgather, n, 64, 0);
  EXPECT_EQ(execute(scheds), static_cast<std::uint64_t>(n) * (n - 1) * 64u);
  int sends = 0, recvs = 0;
  for (const auto& op : scheds[0]) {
    if (op.kind == SubOp::Kind::kIsend) {
      EXPECT_EQ(op.seq, sends++);
    } else if (op.kind == SubOp::Kind::kRecv) {
      EXPECT_EQ(op.seq, recvs++);
    }
  }
  EXPECT_EQ(sends, n - 1);
  EXPECT_EQ(recvs, n - 1);
}

TEST(Collectives, SeqFitsSixteenBitsOrTheCheckFails) {
  CollectiveDesc d;
  d.op = OpType::kAllgather;
  d.me = 0;
  d.bytes = 8;
  std::vector<SubOp> out;
  d.n = 65537;  // 65,536 ring sends to one peer: the largest seq is 65,535
  expand_collective(d, {}, out);
  EXPECT_EQ(out[out.size() - 3].seq, 65535);
  d.n = 65538;
  EXPECT_DEATH(expand_collective(d, {}, out), "65536 messages to one peer");
}

TEST(Collectives, DisseminationRounds) {
  EXPECT_EQ(dissemination_rounds(1), 0);
  EXPECT_EQ(dissemination_rounds(2), 1);
  EXPECT_EQ(dissemination_rounds(8), 3);
  EXPECT_EQ(dissemination_rounds(9), 4);
}

TEST(Collectives, BruckUsesLogRounds) {
  const int n = 64;
  CollectiveAlgos bruck;
  bruck.alltoall = CollectiveAlgos::Alltoall::kBruck;
  const auto b = expand_all(OpType::kAlltoall, n, 100, 0, bruck)[0];
  const auto p = expand_all(OpType::kAlltoall, n, 100, 0)[0];
  int b_sends = 0, p_sends = 0;
  for (const auto& op : b) b_sends += op.kind == SubOp::Kind::kIsend ? 1 : 0;
  for (const auto& op : p) p_sends += op.kind == SubOp::Kind::kIsend ? 1 : 0;
  EXPECT_EQ(b_sends, 6);   // log2(64)
  EXPECT_EQ(p_sends, 63);  // n-1 pairwise rounds
}

// --- Windowed expansion against the whole-schedule reference ---------------

/// Index of the first SubOp where the two schedules differ, or -1.
long first_difference(const std::vector<SubOp>& a, const std::vector<SubOp>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i)
    if (a[i].kind != b[i].kind || a[i].seq != b[i].seq || a[i].peer != b[i].peer ||
        a[i].bytes != b[i].bytes)
      return static_cast<long>(i);
  return a.size() == b.size() ? -1 : static_cast<long>(n);
}

/// Expand `d` window by window, each `window` rounds, into one schedule.
/// `fill_recv`, if set, is called before each window with its first round.
template <typename FillRecv>
std::vector<SubOp> expand_windows(const CollectiveDesc& d, const CollectiveAlgos& algos,
                                  int window, FillRecv&& fill_recv) {
  std::vector<SubOp> all, part;
  int round = 0;
  do {
    fill_recv(round);
    round = expand_collective_window(d, algos, round, window, part);
    all.insert(all.end(), part.begin(), part.end());
  } while (round != kScheduleDone);
  return all;
}

std::vector<int> differential_sizes() {
  std::vector<int> sizes;
  for (int n = 1; n <= 70; ++n) sizes.push_back(n);
  sizes.push_back(1024);
  return sizes;
}

constexpr int kWindows[] = {1, 7, kScheduleWindow};

struct Variant {
  const char* name;
  OpType op;
  std::uint64_t bytes;
  CollectiveAlgos algos;
};

std::vector<Variant> variants() {
  CollectiveAlgos bruck, doubling;
  bruck.alltoall = CollectiveAlgos::Alltoall::kBruck;
  doubling.allgather = CollectiveAlgos::Allgather::kRecursiveDoubling;
  return {{"barrier", OpType::kBarrier, 0, {}},
          {"bcast", OpType::kBcast, 1000, {}},
          {"reduce", OpType::kReduce, 1000, {}},
          {"gather", OpType::kGather, 96, {}},
          {"scatter", OpType::kScatter, 96, {}},
          {"allreduce-doubling", OpType::kAllreduce, 1000, {}},
          {"allreduce-rabenseifner", OpType::kAllreduce, 64 * KiB, {}},
          {"allgather-ring", OpType::kAllgather, 100, {}},
          {"allgather-doubling", OpType::kAllgather, 100, doubling},
          {"alltoall-pairwise", OpType::kAlltoall, 100, {}},
          {"alltoall-bruck", OpType::kAlltoall, 100, bruck},
          {"reduce-scatter", OpType::kReduceScatter, 3000, {}},
          {"reduce-scatter-tiny", OpType::kReduceScatter, 3, {}},
          {"scan", OpType::kScan, 64, {}}};
}

TEST(CollectivesDifferential, WindowedExpansionMatchesTheReference) {
  std::vector<SubOp> ref, whole;
  for (const Variant& v : variants()) {
    for (const int n : differential_sizes()) {
      const int roots = trace::is_rooted(v.op) ? n : 1;
      for (int root = 0; root < roots; ++root) {
        for (int me = 0; me < n; ++me) {
          CollectiveDesc d;
          d.op = v.op;
          d.n = n;
          d.me = me;
          d.root = root;
          d.bytes = v.bytes;
          reference::expand_collective(d, v.algos, ref);
          expand_collective(d, v.algos, whole);
          ASSERT_EQ(first_difference(ref, whole), -1)
              << v.name << " n=" << n << " me=" << me << " root=" << root;
          // The O(log n) schedules come out whole whatever the window; only
          // the root-free ones are worth splitting.
          if (roots > 1) continue;
          for (const int w : kWindows)
            ASSERT_EQ(first_difference(ref, expand_windows(d, v.algos, w, [](int) {})), -1)
                << v.name << " n=" << n << " me=" << me << " window=" << w;
        }
      }
    }
  }
}

TEST(CollectivesDifferential, WindowedAlltoallvMatchesTheReference) {
  // Deterministic size matrix with empty blocks; the windowed expansion gets
  // receive sizes for the window's sources only, the rest poisoned.
  constexpr std::uint64_t kPoison = 0xdeadbeef;
  std::vector<SubOp> ref, whole;
  for (const int n : differential_sizes()) {
    const auto block = [n](int from, int to) -> std::uint64_t {
      const std::uint64_t h = (static_cast<std::uint64_t>(from) * 2654435761u +
                               static_cast<std::uint64_t>(to) * 40503u + static_cast<unsigned>(n)) %
                              11;
      return h < 4 ? 0 : h * 100;
    };
    std::vector<std::uint64_t> send(static_cast<std::size_t>(n)), recv(send), window_recv(send);
    for (int me = 0; me < n; ++me) {
      for (int j = 0; j < n; ++j) {
        send[static_cast<std::size_t>(j)] = block(me, j);
        recv[static_cast<std::size_t>(j)] = block(j, me);
      }
      CollectiveDesc d;
      d.op = OpType::kAlltoallv;
      d.n = n;
      d.me = me;
      d.send_sizes = send;
      d.recv_sizes = recv;
      reference::expand_collective(d, {}, ref);
      expand_collective(d, {}, whole);
      ASSERT_EQ(first_difference(ref, whole), -1) << "n=" << n << " me=" << me;
      d.recv_sizes = window_recv;
      for (const int w : kWindows) {
        const auto fill = [&](int first) {
          std::fill(window_recv.begin(), window_recv.end(), kPoison);
          for (int k = first; k < std::min(n - 1, first + w); ++k) {
            const auto src = static_cast<std::size_t>(pairwise_source(n, me, k));
            window_recv[src] = recv[src];
          }
        };
        ASSERT_EQ(first_difference(ref, expand_windows(d, {}, w, fill)), -1)
            << "n=" << n << " me=" << me << " window=" << w;
      }
    }
  }
}

TEST(CollectivesDifferential, OnlyLinearSchedulesAreWindowed) {
  CollectiveDesc d;
  d.n = 1024;
  d.me = 5;
  d.bytes = 8;
  std::vector<SubOp> out;
  d.op = OpType::kAlltoall;
  EXPECT_EQ(expand_collective_window(d, {}, 0, kScheduleWindow, out), kScheduleWindow);
  EXPECT_EQ(out.size(), 3u * kScheduleWindow);
  EXPECT_EQ(expand_collective_window(d, {}, 960, kScheduleWindow, out), kScheduleDone);
  EXPECT_EQ(out.size(), 3u * 63);
  d.op = OpType::kAllreduce;
  EXPECT_EQ(expand_collective_window(d, {}, 0, 1, out), kScheduleDone);
  EXPECT_EQ(out.size(), 3u * 10);  // every recursive-doubling round at once
}

}  // namespace
}  // namespace hps::simmpi
