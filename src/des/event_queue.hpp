// Pending-event set of the DES engine: a two-level calendar/bucket queue.
//
// Events pop in (time, sequence) order — sequence is assigned at push, so
// equal-time events come back FIFO and every drain is exactly reproducible.
// The structure adapts to the event population:
//
//   * Small or sparse populations use a plain binary heap (the classic
//     std::priority_queue layout): O(log n) but with tiny constants and no
//     tuning hazard when events are spread over an arbitrary horizon.
//   * Dense populations switch to a calendar: a ring of buckets, each
//     covering a fixed slice of simulated time, sized at each window rebuild
//     so the in-window population averages about one event per bucket.
//     Pushes into the window are O(1) links; pops sort one bucket at a
//     time. Events beyond the window overflow into the far set (the second
//     level, unordered) and migrate in at the next rebuild. The width comes
//     from the mean gap of all pending events, so one far-future event (a
//     kSimTimeMax sentinel) stretches it to its cap and the near events
//     share a few buckets.
//
// Storage: every pending event lives in one node pool recycled through a
// free list, so the pool never holds more nodes than the peak live
// population. Buckets are singly linked lists threaded through the nodes
// (a 4-byte head per bucket); the heap, the far set and the sorted front
// bucket are vectors of 4-byte node indices. No container's capacity
// depends on how the time axis happened to fall onto the buckets over the
// queue's history.
//
// The pop order is a pure function of the (time, sequence) pairs pushed:
// bucket boundaries, mode switches and rebuild instants cannot reorder
// events, which the differential test in tests/test_event_queue.cpp checks
// against a reference std::priority_queue.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace hps::des {

class Handler;

/// One scheduled event. `seq` is the global push counter used to break time
/// ties; `h` and the payload words are opaque to the queue.
struct QueuedEvent {
  SimTime t = 0;
  std::uint64_t seq = 0;
  Handler* h = nullptr;
  std::uint64_t a = 0, b = 0;
};

class EventQueue {
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// A pool slot: the event, and the next node of its bucket list (or of
  /// the free list while unused).
  struct Node {
    QueuedEvent ev;
    std::uint32_t next = kNil;
  };

 public:
  EventQueue() = default;

  // The push/pop/next_time hot paths are defined inline below the class:
  // they run once per simulated event, and the call overhead of an
  // out-of-line definition is measurable against their short bodies.

  /// Enqueue an event; the queue assigns the FIFO tie-break sequence.
  void push(SimTime t, Handler* h, std::uint64_t a, std::uint64_t b);

  /// Remove and return the earliest event (min (t, seq)). Precondition:
  /// !empty().
  QueuedEvent pop();

  /// Time of the earliest event without removing it. Precondition: !empty().
  /// May advance internal cursors (lazy bucket sorting), hence non-const.
  SimTime next_time();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Drop all pending events and reset the sequence counter to zero.
  void clear();

  /// Bytes of storage the queue holds, in use or not. Each pending event
  /// needs at most kBytesPerEvent; with geometric vector growth the total
  /// stays within twice that times the peak live population, plus 4 bytes
  /// per bucket head.
  std::size_t retained_bytes() const;

  /// A pool node plus its entries in the far set and the front run.
  static constexpr std::size_t kBytesPerEvent = sizeof(Node) + 2 * sizeof(std::uint32_t);

 private:
  // Ordering predicate on node indices: true if node `x` fires after node
  // `y`. A functor rather than a function pointer so std::sort / the
  // std::*_heap family (max-heap on "fires later" == min-heap on fire order)
  // inline the comparison. Built per use: the pool may move as it grows.
  struct Later {
    const Node* pool;
    bool operator()(std::uint32_t x, std::uint32_t y) const {
      const QueuedEvent& ex = pool[x].ev;
      const QueuedEvent& ey = pool[y].ev;
      return ex.t > ey.t || (ex.t == ey.t && ex.seq > ey.seq);
    }
  };
  Later later() const { return Later{pool_.data()}; }

  std::uint32_t alloc(const QueuedEvent& ev);
  /// Return node `i` to the free list and hand back its event.
  QueuedEvent release(std::uint32_t i);
  /// Ring index for time `t`, clamped to [cur_, num_buckets_). Valid only in
  /// calendar mode.
  std::size_t bucket_of(SimTime t) const;
  /// Move to the next nonempty bucket (rebuilding the window from the far
  /// set when the ring is exhausted) and sort it into front_ if needed.
  /// Precondition: !empty(). Returns false if the rebuild fell back to heap
  /// mode.
  bool prepare_front();
  /// Recompute the bucket window from the far set's population, or fall
  /// back to heap mode when it is too small to be worth bucketing.
  void rebuild_window();
  void bucket_insert(std::uint32_t i);

  // Tuning. Switch to the calendar above kCalendarOn pending events; a
  // window rebuild reverts to the heap below kCalendarOff. The bucket count
  // tracks the population (capped), the width tracks the mean gap (capped so
  // a far outlier cannot zero out the resolution).
  static constexpr std::size_t kCalendarOn = 128;
  static constexpr std::size_t kCalendarOff = 64;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;
  static constexpr int kMaxWidthShift = 32;

  bool calendar_ = false;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;

  std::vector<Node> pool_;        // every pending event; grows only when full
  std::uint32_t free_ = kNil;     // free-list head through Node::next

  // Heap mode: a binary heap on (t, seq). Calendar mode: the unordered far
  // (beyond-window) overflow.
  std::vector<std::uint32_t> far_;

  // Calendar state (valid only when calendar_):
  std::vector<std::uint32_t> heads_;  // bucket list heads, kNil when empty
  std::vector<std::uint32_t> front_;  // bucket cur_, sorted descending by (t, seq)
  std::size_t num_buckets_ = 0;       // power of two
  int shift_ = 0;                     // bucket width = 1 << shift_
  SimTime win_start_ = 0;
  SimTime win_end_ = 0;
  std::size_t cur_ = 0;      // bucket holding the earliest event
  bool cur_sorted_ = false;  // bucket cur_ lives in front_, not in heads_[cur_]
};

inline std::uint32_t EventQueue::alloc(const QueuedEvent& ev) {
  std::uint32_t i = free_;
  if (i != kNil) {
    free_ = pool_[i].next;
    pool_[i].ev = ev;
  } else {
    HPS_CHECK(pool_.size() < kNil);
    i = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(Node{ev, kNil});
  }
  return i;
}

inline QueuedEvent EventQueue::release(std::uint32_t i) {
  Node& n = pool_[i];
  n.next = free_;
  free_ = i;
  return n.ev;
}

inline std::size_t EventQueue::bucket_of(SimTime t) const {
  if (t < win_start_) return cur_;  // non-monotone push: keep it poppable first
  const auto off = static_cast<std::uint64_t>(t - win_start_) >> shift_;
  // A saturated window (win_end_ == kSimTimeMax) folds the tail into the
  // last bucket; ordering is restored by the front bucket's sort.
  const std::size_t idx = std::min(static_cast<std::size_t>(off), num_buckets_ - 1);
  return std::max(idx, cur_);
}

inline void EventQueue::bucket_insert(std::uint32_t i) {
  const std::size_t idx = bucket_of(pool_[i].ev.t);
  if (idx != cur_ || !cur_sorted_) {
    // Untouched buckets take unsorted links; the front bucket sorts them
    // when the cursor reaches it.
    pool_[i].next = heads_[idx];
    heads_[idx] = i;
  } else if (front_.empty() || later()(front_.back(), i)) {
    // The front run is sorted descending (earliest at the back); an event
    // firing before the current earliest — the common "schedule at now +
    // epsilon" case — appends, since it becomes the new back.
    front_.push_back(i);
  } else {
    front_.insert(std::upper_bound(front_.begin(), front_.end(), i, later()), i);
  }
}

inline void EventQueue::push(SimTime t, Handler* h, std::uint64_t a, std::uint64_t b) {
  const std::uint32_t i = alloc(QueuedEvent{t, next_seq_++, h, a, b});
  ++size_;
  if (!calendar_) {
    far_.push_back(i);
    std::push_heap(far_.begin(), far_.end(), later());
    if (size_ > kCalendarOn) {
      calendar_ = true;
      rebuild_window();
    }
    return;
  }
  if (t >= win_end_)
    far_.push_back(i);
  else
    bucket_insert(i);
}

inline SimTime EventQueue::next_time() {
  HPS_CHECK(size_ > 0);
  if (calendar_ && prepare_front()) return pool_[front_.back()].ev.t;
  return pool_[far_.front()].ev.t;
}

inline QueuedEvent EventQueue::pop() {
  HPS_CHECK(size_ > 0);
  --size_;
  std::uint32_t i;
  if (calendar_ && prepare_front()) {
    i = front_.back();
    front_.pop_back();
  } else {
    std::pop_heap(far_.begin(), far_.end(), later());
    i = far_.back();
    far_.pop_back();
  }
  if (size_ == 0 && calendar_) {
    // Fully drained: revert to heap mode. Keeping the stale window alive
    // would clamp a later burst of earlier-time pushes into the single
    // current bucket, degrading its sorted inserts to quadratic time.
    calendar_ = false;
    cur_ = 0;
    cur_sorted_ = false;
  }
  return release(i);
}

inline bool EventQueue::prepare_front() {
  if (!front_.empty()) return true;
  if (cur_sorted_) {
    // The front bucket is used up (its later pushes went to front_ too).
    cur_sorted_ = false;
    ++cur_;
  }
  for (;;) {
    if (cur_ == num_buckets_) {
      // Window drained: everything pending is in the far set.
      rebuild_window();
      if (!calendar_) return false;
    }
    if (heads_[cur_] != kNil) break;
    ++cur_;
  }
  for (std::uint32_t i = heads_[cur_]; i != kNil; i = pool_[i].next) front_.push_back(i);
  heads_[cur_] = kNil;
  if (front_.size() > 1) std::sort(front_.begin(), front_.end(), later());
  cur_sorted_ = true;
  return true;
}

}  // namespace hps::des
