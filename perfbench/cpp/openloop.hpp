// Open-loop load generation: a seeded Poisson arrival schedule, sent on a
// fixed set of connections regardless of how fast replies come back, with
// every request timed from the moment it was due. A stalled daemon makes
// later requests late; that wait counts in their latency, and the
// generator reports how late it ran.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

struct LoadPlan {
  std::uint64_t seed = 42;
  double seconds = 10;         ///< length of the schedule
  double rate_per_s = 100;     ///< offered rate, hits and misses together
  double miss_share = 0.1;     ///< fixed share of requests with a fresh seed
  int hot_set = 16;            ///< distinct hot seeds the hits draw from
};

struct PlannedRequest {
  double due_s = 0;  ///< seconds after the load starts
  bool miss = false;
  int hot_index = -1;          ///< hits: index into the hot set
  std::uint64_t miss_index = 0;  ///< misses: 0, 1, 2, ... in schedule order
};

/// The arrival schedule for `plan`, in due order. The same plan gives the
/// same schedule. Each request independently is a miss with probability
/// `miss_share`; hits pick a hot seed by Zipf popularity (the k-th most
/// popular is drawn with weight 1/k).
std::vector<PlannedRequest> make_schedule(const LoadPlan& plan);

/// What happened to one request, in seconds after the load started.
struct Sent {
  double due_s = 0;
  double sent_s = 0;  ///< a connection picked it up and began the exchange
  double done_s = 0;  ///< reply complete
  bool miss = false;
  bool ok = false;
};

/// Latency as the open-loop client sees it: from due time to reply.
inline double latency_ms(const Sent& s) { return (s.done_s - s.due_s) * 1e3; }
/// How late the generator sent it.
inline double lateness_ms(const Sent& s) { return (s.sent_s - s.due_s) * 1e3; }

/// The most requests that were due but not yet sent at any one instant.
std::size_t max_backlog(const std::vector<Sent>& sent);

/// Send `schedule` open-loop. Hits go out on `hit_lanes` lanes and misses
/// on `miss_lanes`, so a slow miss never holds a hit behind it in the
/// client. Each lane takes the next request of its kind in due order, sleeps
/// until it is due (not before), and calls `send` with its lane number (hit
/// lanes first: 0 .. hit_lanes-1, then the miss lanes) and a reference into
/// `schedule`, so a caller can keep one connection per lane. `send` returns
/// whether the reply was correct, and an exception counts as an incorrect
/// reply. Results are indexed like `schedule`.
std::vector<Sent> run_open_loop(const std::vector<PlannedRequest>& schedule, int hit_lanes,
                                int miss_lanes,
                                const std::function<bool(int lane, const PlannedRequest&)>& send);

}  // namespace perfbench
