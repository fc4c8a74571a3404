#include "des/event_queue.hpp"

#include <bit>

namespace hps::des {

void EventQueue::rebuild_window() {
  // All pending events are now in far_. Decide whether a bucket window is
  // worthwhile and, if so, size it from the population: bucket width ~= the
  // mean gap (so in-window buckets average about one event), bucket count ~=
  // half the population (so the window absorbs roughly half the events and
  // rebuilds amortize to O(1) per pop).
  const std::size_t n = far_.size();
  if (n < kCalendarOff) {
    calendar_ = false;
    std::make_heap(far_.begin(), far_.end(), later());
    return;
  }
  SimTime lo = kSimTimeMax;
  SimTime hi = 0;
  for (const std::uint32_t i : far_) {
    lo = std::min(lo, pool_[i].ev.t);
    hi = std::max(hi, pool_[i].ev.t);
  }

  // Bucket width: the mean inter-event gap, rounded up to a power of two so
  // the bucket mapping is a shift, and capped so a far-future outlier cannot
  // blow up the resolution for the near events.
  const auto span = static_cast<std::uint64_t>(hi - lo);
  const std::uint64_t width = std::max<std::uint64_t>(span / n, 1);
  shift_ = width <= 1 ? 0 : std::min<int>(std::bit_width(width - 1), kMaxWidthShift);

  num_buckets_ = std::bit_ceil(std::clamp<std::size_t>(n / 2, 64, kMaxBuckets));
  if (heads_.size() < num_buckets_) heads_.resize(num_buckets_, kNil);

  win_start_ = lo;
  cur_ = 0;
  const auto extent = static_cast<std::uint64_t>(num_buckets_) << shift_;
  const auto headroom = static_cast<std::uint64_t>(kSimTimeMax - lo);
  win_end_ = extent >= headroom ? kSimTimeMax : lo + static_cast<SimTime>(extent);

  // Partition the far set: in-window events link into their buckets, the
  // remainder stays behind, unordered. A saturated window takes everything.
  std::size_t keep = 0;
  for (const std::uint32_t i : far_) {
    const SimTime t = pool_[i].ev.t;
    if (t < win_end_ || win_end_ == kSimTimeMax) {
      std::uint32_t& head = heads_[bucket_of(t)];
      pool_[i].next = head;
      head = i;
    } else {
      far_[keep++] = i;
    }
  }
  far_.resize(keep);
  cur_sorted_ = false;
}

void EventQueue::clear() {
  pool_.clear();
  free_ = kNil;
  far_.clear();
  front_.clear();
  std::fill(heads_.begin(), heads_.end(), kNil);
  calendar_ = false;
  size_ = 0;
  next_seq_ = 0;
  cur_ = 0;
  cur_sorted_ = false;
}

std::size_t EventQueue::retained_bytes() const {
  return pool_.capacity() * sizeof(Node) +
         (far_.capacity() + front_.capacity() + heads_.capacity()) * sizeof(std::uint32_t);
}

}  // namespace hps::des
