// Tests of the benchmark's own logic: the tail-percentile rule, open-loop
// timing from due time with its lateness and backlog accounting, and each
// workload running clean on a seed other than the default.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <numeric>
#include <thread>
#include <vector>

#include <unistd.h>

#include "openloop.hpp"
#include "percentile.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

// ------------------------------------------------------------- percentiles

TEST(TailPercentile, NominalWhenTenSamplesLieBeyond) {
  const Percentile p = tail_percentile(one_to(1000), 99);
  EXPECT_DOUBLE_EQ(p.pct, 99);
  EXPECT_NEAR(p.value, 990.01, 1e-9);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_EQ(p.samples, 1000u);
}

TEST(TailPercentile, FallsBackToTheHighestSupportedPercentile) {
  // p99 of 500 samples has only 5 beyond it; p98 is the highest with 10.
  const Percentile p = tail_percentile(one_to(500), 99);
  EXPECT_DOUBLE_EQ(p.pct, 98);
  EXPECT_DOUBLE_EQ(p.value, 490);
  EXPECT_EQ(p.beyond, 10u);
}

TEST(TailPercentile, P90NeedsAHundredSamples) {
  const Percentile ok = tail_percentile(one_to(100), 90);
  EXPECT_DOUBLE_EQ(ok.pct, 90);
  EXPECT_EQ(ok.beyond, 10u);
  const Percentile low = tail_percentile(one_to(60), 90);
  EXPECT_LT(low.pct, 90);
  EXPECT_NEAR(low.pct, 100.0 * 50 / 60, 1e-9);
  EXPECT_DOUBLE_EQ(low.value, 50);
  EXPECT_EQ(low.beyond, 10u);
}

TEST(TailPercentile, TooFewSamplesReportTheMaximum) {
  const Percentile p = tail_percentile({3, 1, 2}, 99);
  EXPECT_DOUBLE_EQ(p.pct, 100);
  EXPECT_DOUBLE_EQ(p.value, 3);
  EXPECT_EQ(p.beyond, 0u);
  EXPECT_EQ(tail_percentile({}, 50).samples, 0u);
}

TEST(TailPercentile, TiesAreNotCountedAsBeyond) {
  const Percentile p = tail_percentile(std::vector<double>(50, 7.0), 99);
  EXPECT_DOUBLE_EQ(p.value, 7.0);
  EXPECT_EQ(p.beyond, 0u);
}

TEST(Median, InterpolatesEvenCounts) {
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({5}), 5);
}

// --------------------------------------------------------------- open loop

TEST(OpenLoop, LatencyIsTimedFromDueTime) {
  const Sent s{/*due_s=*/1.0, /*sent_s=*/1.25, /*done_s=*/1.5, false, true};
  EXPECT_DOUBLE_EQ(latency_ms(s), 500);
  EXPECT_DOUBLE_EQ(lateness_ms(s), 250);
}

TEST(OpenLoop, BacklogCountsRequestsDueButNotSent) {
  std::vector<Sent> on_time = {{0.0, 0.0, 0.1, false, true}, {0.2, 0.2, 0.3, false, true}};
  EXPECT_EQ(max_backlog(on_time), 0u);
  // A stall from 0.0 to 0.5 holds back everything due in between.
  std::vector<Sent> stalled = {{0.0, 0.5, 0.6, false, true},
                               {0.1, 0.6, 0.7, false, true},
                               {0.2, 0.7, 0.8, false, true},
                               {0.9, 0.9, 1.0, false, true}};
  EXPECT_EQ(max_backlog(stalled), 3u);
}

TEST(OpenLoop, ScheduleIsSeededPoissonWithZipfHits) {
  LoadPlan plan;
  plan.seed = 7;
  plan.seconds = 20;
  plan.rate_per_s = 100;
  plan.miss_share = 0.1;
  plan.hot_set = 16;
  const auto a = make_schedule(plan);
  const auto b = make_schedule(plan);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].miss, b[i].miss);
  }
  EXPECT_NEAR(static_cast<double>(a.size()), 2000, 200);
  std::size_t misses = 0, top = 0, last = 0;
  double prev = 0;
  for (const PlannedRequest& r : a) {
    EXPECT_GE(r.due_s, prev);
    EXPECT_LT(r.due_s, plan.seconds);
    prev = r.due_s;
    if (r.miss) {
      EXPECT_EQ(r.miss_index, misses);  // fresh seeds are numbered in order
      ++misses;
      continue;
    }
    ASSERT_GE(r.hot_index, 0);
    ASSERT_LT(r.hot_index, plan.hot_set);
    top += r.hot_index == 0;
    last += r.hot_index == plan.hot_set - 1;
  }
  EXPECT_NEAR(static_cast<double>(misses) / static_cast<double>(a.size()), 0.1, 0.03);
  EXPECT_GT(top, 8 * last);  // Zipf(1): rank 1 is 16x as popular as rank 16

  plan.seed = 8;
  const auto c = make_schedule(plan);
  EXPECT_TRUE(c.size() != a.size() || c.front().due_s != a.front().due_s);
}

TEST(OpenLoop, AStalledSendMakesLaterRequestsLateAndCountsTheWait) {
  // One lane, requests due every 10 ms, each exchange takes 40 ms: the
  // open loop keeps the schedule, so each request waits longer than the last.
  std::vector<PlannedRequest> schedule;
  for (int i = 0; i < 4; ++i) schedule.push_back({0.01 * i, false, 0, 0});
  const auto sent = run_open_loop(schedule, 1, 0, [](int, const PlannedRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    return true;
  });
  ASSERT_EQ(sent.size(), 4u);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_TRUE(sent[i].ok);
    EXPECT_GE(sent[i].sent_s, sent[i].due_s);  // never sent early
    // Latency from due time = lateness + the exchange itself.
    EXPECT_NEAR(latency_ms(sent[i]),
                lateness_ms(sent[i]) + (sent[i].done_s - sent[i].sent_s) * 1e3, 1e-9);
    EXPECT_GE(latency_ms(sent[i]), 40.0);
  }
  // Request 3 was due at 30 ms but could only start after three 40 ms
  // exchanges: at least 90 ms late.
  EXPECT_GE(lateness_ms(sent[3]), 90.0);
  EXPECT_GE(latency_ms(sent[3]), 130.0);
  EXPECT_GE(max_backlog(sent), 2u);
}

TEST(OpenLoop, MissesNeverHoldUpHits) {
  std::vector<PlannedRequest> schedule = {{0.0, true, -1, 0}, {0.005, false, 0, 0},
                                          {0.010, false, 1, 0}};
  const auto sent = run_open_loop(schedule, 1, 1, [](int, const PlannedRequest& r) {
    if (r.miss) std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return true;
  });
  EXPECT_LT(latency_ms(sent[1]), 150.0);
  EXPECT_LT(latency_ms(sent[2]), 150.0);
  EXPECT_GE(latency_ms(sent[0]), 200.0);
}

TEST(OpenLoop, HitLanesComeFirstAndEachLaneKeepsItsNumber) {
  std::vector<PlannedRequest> schedule;
  for (int i = 0; i < 12; ++i) schedule.push_back({0.001 * i, i % 3 == 0, i % 3 ? 0 : -1, 0});
  std::vector<int> lane_of(schedule.size(), -1);
  run_open_loop(schedule, 2, 3, [&](int lane, const PlannedRequest& r) {
    lane_of[static_cast<std::size_t>(&r - schedule.data())] = lane;
    return true;
  });
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].miss) {
      EXPECT_GE(lane_of[i], 2);
      EXPECT_LT(lane_of[i], 5);
    } else {
      EXPECT_GE(lane_of[i], 0);
      EXPECT_LT(lane_of[i], 2);
    }
  }
}

TEST(OpenLoop, AThrowingSendIsAFailedRequest) {
  std::vector<PlannedRequest> schedule = {{0.0, false, 0, 0}};
  const auto sent =
      run_open_loop(schedule, 1, 0, [](int, const PlannedRequest&) -> bool { throw 1; });
  EXPECT_FALSE(sent[0].ok);
}

// ---------------------------------------------- a non-default seed, clean

Options small(std::uint64_t seed) {
  Options o;
  o.seed = seed;
  o.seconds = 0;  // one pass
  o.max_specs = 12;
  return o;
}

TEST(Workloads, CorpusSimRunsCleanOnANonDefaultSeed) {
  const RunResult r = run_corpus_sim(small(7));
  EXPECT_EQ(r.attempted, 12u * 4 + 1);
  EXPECT_EQ(r.failed, 0u);
  for (const char* m : {"setup_s", "peak_rss_mb", "study_s"})
    EXPECT_GT(r.end_to_end.at(m).value, 0) << m;
}

TEST(Workloads, TracedCorpusSimReproducesTheUntracedDigest) {
  Options o = small(7);
  o.trace = true;
  const RunResult r = run_corpus_sim(o);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.per_layer.at("trace.digest_disagreements").value, 0);
  EXPECT_GT(r.per_layer.at("des.packet.events").value, 0);
  EXPECT_GT(r.per_layer.at("maxmin.rate_updates").value, 0);
  EXPECT_EQ(r.per_layer.at("stats.cv_splits").value, 100);
}

TEST(Workloads, CorpusModelRunsCleanOnANonDefaultSeed) {
  Options o = small(7);
  o.trace = true;
  const RunResult r = run_corpus_model(o);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.per_layer.at("trace.digest_disagreements").value, 0);
  EXPECT_GT(r.per_layer.at("trace.io_bytes").value, 0);
  EXPECT_EQ(r.per_layer.at("des.packet.events").value, 0);  // bypasses the simulators
}

TEST(Workloads, ServeMixedRunsCleanOnANonDefaultSeed) {
  Options o;
  o.seed = 7;
  o.seconds = 1.5;
  o.trace = true;
  o.work_dir = "perfbench_test_serve";
  const RunResult r = run_serve_mixed(o);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.attempted, 48u);  // three warm-ups of 16 plus the load
  EXPECT_GT(r.per_layer.at("loadgen.hits").value, 0);
  EXPECT_EQ(r.per_layer.at("serve.rejected").value, 0);
  EXPECT_FALSE(std::filesystem::exists(o.work_dir + "/serve-7-" + std::to_string(::getpid())));
  std::filesystem::remove_all(o.work_dir);
}

}  // namespace
