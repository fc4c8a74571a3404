#include "openloop.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <thread>
#include <utility>

#include <sys/prctl.h>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Uniform double in [0, 1) from the top 53 bits, so the schedule does not
/// depend on a standard library's distribution implementation.
double unit(std::mt19937_64& rng) { return static_cast<double>(rng() >> 11) * 0x1.0p-53; }

}  // namespace

std::vector<PlannedRequest> make_schedule(const LoadPlan& plan) {
  std::mt19937_64 rng(plan.seed ^ 0x9E3779B97F4A7C15ull);
  std::vector<double> cdf(static_cast<std::size_t>(std::max(1, plan.hot_set)));
  double total = 0;
  for (std::size_t k = 0; k < cdf.size(); ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;

  std::vector<PlannedRequest> out;
  std::uint64_t misses = 0;
  for (double t = -std::log1p(-unit(rng)) / plan.rate_per_s; t < plan.seconds;
       t += -std::log1p(-unit(rng)) / plan.rate_per_s) {
    PlannedRequest r;
    r.due_s = t;
    r.miss = unit(rng) < plan.miss_share;
    if (r.miss) {
      r.miss_index = misses++;
    } else {
      const double u = unit(rng);
      r.hot_index = static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      r.hot_index = std::min(r.hot_index, static_cast<int>(cdf.size()) - 1);
    }
    out.push_back(r);
  }
  return out;
}

std::size_t max_backlog(const std::vector<Sent>& sent) {
  // +1 when a request falls due, -1 when it is sent; at equal times the send
  // is applied first, so a request sent exactly on time never counts.
  std::vector<std::pair<double, int>> steps;
  steps.reserve(sent.size() * 2);
  for (const Sent& s : sent) {
    steps.emplace_back(s.due_s, +1);
    steps.emplace_back(std::max(s.sent_s, s.due_s), -1);
  }
  std::sort(steps.begin(), steps.end());
  long depth = 0, peak = 0;
  for (const auto& [t, d] : steps) {
    depth += d;
    peak = std::max(peak, depth);
  }
  return static_cast<std::size_t>(peak);
}

std::vector<Sent> run_open_loop(const std::vector<PlannedRequest>& schedule, int hit_lanes,
                                int miss_lanes,
                                const std::function<bool(int lane, const PlannedRequest&)>& send) {
  std::vector<Sent> out(schedule.size());
  std::vector<std::size_t> hits, misses;
  for (std::size_t i = 0; i < schedule.size(); ++i)
    (schedule[i].miss ? misses : hits).push_back(i);

  std::atomic<std::size_t> next_hit{0}, next_miss{0};
  const Clock::time_point t0 = Clock::now();
  const auto seconds_since = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  const auto lane = [&](int id, const std::vector<std::size_t>& mine,
                        std::atomic<std::size_t>& next) {
    // Wake at the due time, not up to the default 50 us timer slack later.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (std::size_t k = next.fetch_add(1); k < mine.size(); k = next.fetch_add(1)) {
      const std::size_t i = mine[k];
      const PlannedRequest& r = schedule[i];
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(r.due_s)));
      Sent& s = out[i];
      s.due_s = r.due_s;
      s.miss = r.miss;
      s.sent_s = seconds_since(Clock::now());
      try {
        s.ok = send(id, r);
      } catch (...) {
        s.ok = false;  // a failed exchange is a failed operation, not a crash
      }
      s.done_s = seconds_since(Clock::now());
    }
  };
  std::vector<std::thread> threads;
  for (int l = 0; l < hit_lanes; ++l)
    threads.emplace_back(lane, l, std::cref(hits), std::ref(next_hit));
  for (int l = 0; l < miss_lanes; ++l)
    threads.emplace_back(lane, hit_lanes + l, std::cref(misses), std::ref(next_miss));
  for (std::thread& t : threads) t.join();
  return out;
}

}  // namespace perfbench
