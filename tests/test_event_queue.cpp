// Differential tests for the DES event queue: the calendar/bucket structure
// must pop in exactly the (time, sequence) order a reference
// std::priority_queue produces, across randomized workloads that force heap
// mode, calendar mode, window rebuilds, far-set overflow, and the drain
// reset — per-change invisibility is the contract the hot-path overhaul is
// built on. A storage test holds the queue's memory to its peak live
// population, whatever the history of bursts.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "des/engine.hpp"
#include "des/event_queue.hpp"

namespace {

using namespace hps;
using des::EventQueue;
using des::QueuedEvent;

class NullHandler final : public des::Handler {
 public:
  void handle(des::Engine&, std::uint64_t, std::uint64_t) override {}
};

/// Reference ordering: min (t, seq) first, exactly the queue's contract.
struct RefLater {
  bool operator()(const std::pair<SimTime, std::uint64_t>& x,
                  const std::pair<SimTime, std::uint64_t>& y) const {
    return x.first > y.first || (x.first == y.first && x.second > y.second);
  }
};

using RefQueue = std::priority_queue<std::pair<SimTime, std::uint64_t>,
                                     std::vector<std::pair<SimTime, std::uint64_t>>, RefLater>;

/// Drive queue and reference through the same randomized push/pop mix and
/// require identical pop sequences. `time_range` shapes the distribution:
/// small ranges force heavy ties, large ones force far-heap overflow.
void differential(std::uint64_t seed, std::size_t ops, std::uint64_t time_range,
                  int push_bias_percent) {
  NullHandler h;
  EventQueue q;
  RefQueue ref;
  Rng rng(seed);
  std::uint64_t next_seq = 0;
  SimTime now = 0;  // pushes never go below the last popped time
  for (std::size_t i = 0; i < ops; ++i) {
    const bool do_push =
        ref.empty() || rng.uniform_u64(100) < static_cast<std::uint64_t>(push_bias_percent);
    if (do_push) {
      const SimTime t = now + static_cast<SimTime>(rng.uniform_u64(time_range));
      q.push(t, &h, 0, 0);
      ref.emplace(t, next_seq++);
    } else {
      ASSERT_FALSE(q.empty());
      ASSERT_EQ(q.next_time(), ref.top().first);
      const QueuedEvent ev = q.pop();
      ASSERT_EQ(ev.t, ref.top().first) << "op " << i;
      ASSERT_EQ(ev.seq, ref.top().second) << "op " << i;
      now = ev.t;
      ref.pop();
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  // Drain: the tail must match too.
  while (!ref.empty()) {
    const QueuedEvent ev = q.pop();
    EXPECT_EQ(ev.t, ref.top().first);
    EXPECT_EQ(ev.seq, ref.top().second);
    ref.pop();
  }
  EXPECT_TRUE(q.empty());
}

/// Packet trains: every pop may schedule a train of events paced `gap`
/// apart, the way a NIC injects a message's packets. Trains start on a
/// coarse grid after a random delay, so many of them start together, as
/// after a collective's step. Phases alternate between growing the
/// population to a random target and draining it to a small floor, and each
/// phase draws its own pacing, grid and delay range, so successive window
/// rebuilds lay the bursts onto different buckets. `sentinels` events at
/// kSimTimeMax sit in the far set throughout. Queue and reference must pop
/// identically; `peak` returns the largest live population.
void packet_trains(EventQueue& q, std::uint64_t seed, int phases, std::size_t sentinels,
                   std::size_t& peak) {
  NullHandler h;
  RefQueue ref;
  Rng rng(seed);
  std::uint64_t next_seq = 0;
  SimTime now = 0;
  peak = 0;
  const auto push = [&](SimTime t) {
    q.push(t, &h, 0, 0);
    ref.emplace(t, next_seq++);
    peak = std::max(peak, q.size());
  };
  const auto pow2_upto = [&](std::uint64_t max_exp) {
    return SimTime{1} << rng.uniform_u64(max_exp + 1);
  };
  for (std::size_t i = 0; i < sentinels; ++i) push(kSimTimeMax);
  push(0);
  for (int phase = 0; phase < phases; ++phase) {
    const bool grow = phase % 2 == 0;
    const std::size_t goal =
        grow ? 2000 + rng.uniform_u64(18000) : sentinels + 1 + rng.uniform_u64(300);
    const SimTime gap = rng.uniform_u64(4) == 0 ? 0 : pow2_upto(8);
    const SimTime grid = pow2_upto(8);
    const SimTime max_delay = pow2_upto(12);
    while (grow ? ref.size() < goal : ref.size() > goal) {
      ASSERT_EQ(q.next_time(), ref.top().first);
      const QueuedEvent ev = q.pop();
      ASSERT_EQ(ev.t, ref.top().first);
      ASSERT_EQ(ev.seq, ref.top().second);
      ref.pop();
      now = ev.t;
      // Growing, a pop starts a train of 1..32 packets; draining, one pop in
      // eight starts a short one.
      const std::uint64_t len =
          grow ? 1 + rng.uniform_u64(32) : (rng.uniform_u64(8) == 0 ? 1 + rng.uniform_u64(3) : 0);
      SimTime start = now + rng.uniform_int(1, max_delay);
      start += grid - start % grid;
      for (std::uint64_t j = 0; j < len; ++j) push(start + static_cast<SimTime>(j) * gap);
      if (ref.size() <= sentinels) push(now + 1);  // keep the history going
    }
  }
  while (!ref.empty()) {
    const QueuedEvent ev = q.pop();
    ASSERT_EQ(ev.t, ref.top().first);
    ASSERT_EQ(ev.seq, ref.top().second);
    ref.pop();
  }
  ASSERT_TRUE(q.empty());
}

TEST(EventQueueDifferential, PacketTrains) {
  // Without sentinels the windows track the trains; with them, the mean-gap
  // width hits its cap and the front bucket takes most pushes as sorted
  // inserts.
  for (const std::size_t sentinels : {0u, 4u}) {
    for (const std::uint64_t seed : {21ull, 22ull}) {
      EventQueue q;
      std::size_t peak = 0;
      packet_trains(q, seed, 12, sentinels, peak);
      ASSERT_GT(peak, 2000u);  // the history reached calendar mode
    }
  }
}

TEST(EventQueue, StorageBoundedByPeakLivePopulation) {
  // After many rebuilds over bursts that fell on different buckets each
  // time, the queue keeps at most twice its peak live population (vector
  // growth doubles) plus the bucket ring's 4-byte heads, of which there are
  // at most bit_ceil(max(peak / 2, 64)) <= max(peak, 64).
  for (const std::size_t sentinels : {0u, 4u}) {
    EventQueue q;
    std::size_t peak = 0;
    packet_trains(q, 31, 24, sentinels, peak);
    const std::size_t heads = std::max<std::size_t>(peak, 64);
    EXPECT_LE(q.retained_bytes(),
              2 * peak * EventQueue::kBytesPerEvent + heads * sizeof(std::uint32_t))
        << "peak live " << peak << ", sentinels " << sentinels;
    // The bound is not vacuous: the queue did keep storage for its peak.
    EXPECT_GE(q.retained_bytes(), peak * sizeof(QueuedEvent));
  }
}

TEST(EventQueueDifferential, RandomizedMixedOps) {
  // 10k ops per seed; push-biased so the population crosses the calendar
  // threshold and window rebuilds happen mid-run.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull})
    differential(seed, 10000, 1 << 16, 60);
}

TEST(EventQueueDifferential, HeavyTies) {
  // A tiny time range makes most events collide on the same timestamps, so
  // every pop exercises the FIFO sequence tie-break.
  differential(11, 10000, 4, 55);
}

TEST(EventQueueDifferential, SparseHorizon) {
  // A huge range keeps the population sparse relative to any window, forcing
  // far-heap traffic and repeated rebuilds.
  differential(12, 10000, std::uint64_t{1} << 40, 55);
}

TEST(EventQueueDifferential, PushDrainCycles) {
  // Repeated full drains: a stale calendar window must not survive an empty
  // queue (regression test for the quadratic refill pathology).
  NullHandler h;
  EventQueue q;
  Rng rng(13);
  std::uint64_t next_seq = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    RefQueue ref;
    for (int i = 0; i < 600; ++i) {
      const auto t = static_cast<SimTime>(rng.uniform_u64(1 << 20));
      q.push(t, &h, 0, 0);
      ref.emplace(t, next_seq++);
    }
    while (!ref.empty()) {
      const QueuedEvent ev = q.pop();
      ASSERT_EQ(ev.t, ref.top().first);
      ASSERT_EQ(ev.seq, ref.top().second);
      ref.pop();
    }
    ASSERT_TRUE(q.empty());
  }
}

TEST(EventQueue, FifoOnEqualTimes) {
  NullHandler h;
  EventQueue q;
  for (std::uint64_t i = 0; i < 2000; ++i) q.push(42, &h, i, 0);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const QueuedEvent ev = q.pop();
    ASSERT_EQ(ev.t, 42);
    ASSERT_EQ(ev.a, i);  // payload tracks push order
  }
}

TEST(EventQueue, ClearResetsSequence) {
  NullHandler h;
  EventQueue q;
  q.push(1, &h, 0, 0);
  q.push(2, &h, 0, 0);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push(7, &h, 0, 0);
  EXPECT_EQ(q.pop().seq, 0u);  // sequence counter restarted
}

TEST(EventQueue, PayloadSurvivesModeSwitches) {
  // Payload words must come back attached to the right (t, seq) regardless
  // of which internal structure held the event.
  NullHandler h;
  EventQueue q;
  Rng rng(14);
  std::vector<std::pair<SimTime, std::uint64_t>> pushed;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const auto t = static_cast<SimTime>(rng.uniform_u64(1 << 12));
    q.push(t, &h, i, ~i);
    pushed.emplace_back(t, i);
  }
  std::sort(pushed.begin(), pushed.end());
  for (const auto& [t, i] : pushed) {
    const QueuedEvent ev = q.pop();
    ASSERT_EQ(ev.t, t);
    ASSERT_EQ(ev.a, i);
    ASSERT_EQ(ev.b, ~i);
  }
}

}  // namespace
