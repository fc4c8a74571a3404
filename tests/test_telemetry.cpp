// Unit tests for the telemetry subsystem: registry semantics under
// concurrency, histogram bucketing, the disabled fast path, exporters, and a
// run_study smoke test tying cache counters to observable behavior.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/study.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace hps::telemetry {
namespace {

TEST(Registry, DisabledByDefaultAndCountsNothing) {
  Registry reg;
  EXPECT_FALSE(reg.enabled());
  Counter c = reg.counter("x");
  c.add(42);
  EXPECT_EQ(reg.snapshot().value("x"), 0u);
}

TEST(Registry, DefaultConstructedHandlesAreInertAndSafe) {
  Counter c;
  Gauge g;
  Histogram h;
  c.add();  // must not dereference a null registry
  g.record(7);
  h.observe(1.0);
  EXPECT_FALSE(h.live());
}

TEST(Registry, CounterRoundTrip) {
  Registry reg;
  reg.set_enabled(true);
  Counter c = reg.counter("a.b");
  c.add();
  c.add(9);
  EXPECT_EQ(reg.snapshot().value("a.b"), 10u);
  // Re-registering the same name returns a handle to the same metric.
  reg.counter("a.b").add(5);
  EXPECT_EQ(reg.snapshot().value("a.b"), 15u);
}

TEST(Registry, ConcurrentCounterSumsAreExact) {
  Registry reg;
  reg.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIters = 20000;
  Counter c = reg.counter("hits");
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kIters; ++i) c.add();
    });
  for (auto& t : pool) t.join();
  // Per-thread shards mean no increments are lost to racing read-modify-writes.
  EXPECT_EQ(reg.snapshot().value("hits"), kThreads * kIters);
}

// A daemon observes from one short-lived thread per connection: each exited
// thread's shard must go back to the registry for the next thread, with its
// values kept, or memory and scrape time grow with every connection.
TEST(Registry, ExitedThreadShardsAreReusedAndKeepTheirCounts) {
  Registry reg;
  reg.set_enabled(true);
  reg.set_tracing(true);
  const Counter c = reg.counter("conns");
  constexpr int kThreads = 1000;
  for (int i = 0; i < kThreads; ++i)
    std::thread([&] {
      c.add();
      Span s(reg, "conn", "test");
    }).join();
  EXPECT_EQ(reg.snapshot().value("conns"), static_cast<std::uint64_t>(kThreads));
  const auto spans = reg.spans();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kThreads));
  std::vector<std::uint32_t> tids;
  for (const SpanRecord& sp : spans) tids.push_back(sp.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_LE(tids.size(), 2u);
}

TEST(Registry, ThreadOutlivingItsRegistryExitsCleanly) {
  auto reg = std::make_unique<Registry>();
  reg->set_enabled(true);
  const Counter c = reg->counter("x");
  std::mutex mu;
  std::condition_variable cv;
  bool touched = false, reg_gone = false;
  std::thread t([&] {
    c.add();
    std::unique_lock<std::mutex> lk(mu);
    touched = true;
    cv.notify_all();
    cv.wait(lk, [&] { return reg_gone; });
    // Exits here: the shard's registry no longer exists.
  });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return touched; });
  }
  EXPECT_EQ(reg->snapshot().value("x"), 1u);
  reg.reset();
  {
    const std::lock_guard<std::mutex> lk(mu);
    reg_gone = true;
  }
  cv.notify_all();
  t.join();
}

TEST(Registry, GaugeMergesByMax) {
  Registry reg;
  reg.set_enabled(true);
  Gauge g = reg.gauge("depth");
  std::thread t1([&] { g.record(5); });
  std::thread t2([&] { g.record(17); });
  t1.join();
  t2.join();
  g.record(3);  // lower than the watermark; must not regress it
  EXPECT_EQ(reg.snapshot().value("depth"), 17u);
}

TEST(Registry, HistogramBucketBoundsAreUpperInclusive) {
  Registry reg;
  reg.set_enabled(true);
  Histogram h = reg.histogram("lat", {1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1      -> bucket 0
  h.observe(1.0);    // == bound  -> bucket 0 (upper-inclusive)
  h.observe(1.001);  // > 1       -> bucket 1
  h.observe(10.0);   // == bound  -> bucket 1
  h.observe(99.0);   //           -> bucket 2
  h.observe(5000.0); // > last    -> overflow bucket
  const Snapshot snap = reg.snapshot();
  const MetricValue* m = snap.find("lat");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->hist.buckets.size(), 4u);
  EXPECT_EQ(m->hist.buckets[0], 2u);
  EXPECT_EQ(m->hist.buckets[1], 2u);
  EXPECT_EQ(m->hist.buckets[2], 1u);
  EXPECT_EQ(m->hist.buckets[3], 1u);
  EXPECT_EQ(m->hist.count, 6u);
  EXPECT_DOUBLE_EQ(m->hist.sum, 0.5 + 1.0 + 1.001 + 10.0 + 99.0 + 5000.0);
}

TEST(Registry, ResetValuesKeepsHandlesValid) {
  Registry reg;
  reg.set_enabled(true);
  Counter c = reg.counter("n");
  c.add(3);
  reg.reset_values();
  EXPECT_EQ(reg.snapshot().value("n"), 0u);
  c.add(2);
  EXPECT_EQ(reg.snapshot().value("n"), 2u);
}

TEST(LocalCounter, FlushesDeltasOnly) {
  Registry reg;
  reg.set_enabled(true);
  Counter shared = reg.counter("total");
  LocalCounter local;
  local.add(10);
  local.flush_to(shared);
  local.flush_to(shared);  // no new increments: must not double-count
  local.add(5);
  local.flush_to(shared);
  EXPECT_EQ(reg.snapshot().value("total"), 15u);
  EXPECT_EQ(local.value(), 15u);
}

TEST(Span, RecordedOnlyWhenTracing) {
  Registry reg;
  { Span s(reg, "ignored", "test"); }
  EXPECT_TRUE(reg.spans().empty());
  reg.set_tracing(true);
  {
    Span s(reg, "work", "test");
    s.arg("k", "v");
  }
  const auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].cat, "test");
  EXPECT_GE(spans[0].dur_ns, 0);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].first, "k");
}

TEST(ScopedTimer, ObservesElapsedSeconds) {
  Registry reg;
  reg.set_enabled(true);
  Histogram h = reg.histogram("t", duration_bounds());
  { ScopedTimer timer(h); }
  const Snapshot snap = reg.snapshot();
  const MetricValue* m = snap.find("t");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->hist.count, 1u);
  EXPECT_GE(m->hist.sum, 0.0);
}

// --- Histogram quantiles ---------------------------------------------------

TEST(HistogramQuantile, EmptySingleAndOverflowEdgeCases) {
  HistogramData h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty -> 0

  Registry reg;
  reg.set_enabled(true);
  Histogram one = reg.histogram("one", {1.0, 10.0});
  one.observe(4.0);
  const Snapshot snap1 = reg.snapshot();
  const MetricValue* m = snap1.find("one");
  ASSERT_NE(m, nullptr);
  // One sample in (1,10]: every quantile interpolates inside that bucket.
  for (const double q : {0.0, 0.5, 0.999, 1.0}) {
    const double v = m->hist.quantile(q);
    EXPECT_GE(v, 1.0) << q;
    EXPECT_LE(v, 10.0) << q;
  }

  Histogram over = reg.histogram("over", {1.0, 10.0});
  over.observe(5000.0);  // lands in the overflow bucket
  const Snapshot snap2 = reg.snapshot();
  const MetricValue* mo = snap2.find("over");
  ASSERT_NE(mo, nullptr);
  // The overflow bucket has no upper bound; quantile reports its lower bound
  // rather than inventing one.
  EXPECT_DOUBLE_EQ(mo->hist.quantile(0.99), 10.0);
}

TEST(HistogramQuantile, CrossShardMergeMatchesSingleThreadedFill) {
  // The same observations spread across 4 threads (4 shards) must merge to
  // the same histogram — and hence the same quantiles — as one thread doing
  // all the work.
  const std::vector<double> bounds = latency_bounds();
  std::vector<double> values;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 4000; ++i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    // Log-uniform-ish across the microsecond..second range the bounds cover.
    const double exp = static_cast<double>((rng >> 33) % 6000) / 1000.0;  // [0,6)
    values.push_back(1e-6 * std::pow(10.0, exp));
  }

  Registry solo;
  solo.set_enabled(true);
  Histogram hs = solo.histogram("lat", bounds);
  for (const double v : values) hs.observe(v);

  Registry sharded;
  sharded.set_enabled(true);
  Histogram hp = sharded.histogram("lat", bounds);
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t)
    pool.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < values.size(); i += 4)
        hp.observe(values[i]);
    });
  for (auto& t : pool) t.join();

  const Snapshot snap_solo = solo.snapshot();
  const Snapshot snap_sharded = sharded.snapshot();
  const MetricValue* a = snap_solo.find("lat");
  const MetricValue* b = snap_sharded.find("lat");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->hist.count, values.size());
  EXPECT_EQ(b->hist.count, values.size());
  EXPECT_EQ(a->hist.buckets, b->hist.buckets);
  EXPECT_NEAR(a->hist.sum, b->hist.sum, 1e-9 * a->hist.sum);
  for (const double q : {0.5, 0.9, 0.99, 0.999})
    EXPECT_DOUBLE_EQ(a->hist.quantile(q), b->hist.quantile(q)) << q;
}

TEST(HistogramQuantile, RandomizedDifferentialAgainstSortedVectorOracle) {
  // Histogram quantiles are bucket-interpolated; their error is bounded by
  // the width of the bucket holding the true quantile. Check p50/p99/p99.9
  // against a sorted-vector oracle over deterministic pseudo-random data.
  const std::vector<double> bounds = latency_bounds();
  std::uint64_t rng = 42;
  for (int round = 0; round < 8; ++round) {
    std::vector<double> values;
    const int n = 500 + round * 700;
    for (int i = 0; i < n; ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const double exp = static_cast<double>((rng >> 33) % 7000) / 1000.0;  // [0,7)
      values.push_back(2e-6 * std::pow(10.0, exp));
    }

    Registry reg;
    reg.set_enabled(true);
    Histogram h = reg.histogram("lat", bounds);
    for (const double v : values) h.observe(v);
    const Snapshot snap = reg.snapshot();
    const MetricValue* m = snap.find("lat");
    ASSERT_NE(m, nullptr);

    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.5, 0.99, 0.999}) {
      const double oracle =
          sorted[std::min(sorted.size() - 1,
                          static_cast<std::size_t>(q * static_cast<double>(sorted.size())))];
      // The bucket containing the oracle value bounds the estimate.
      std::size_t bi = 0;
      while (bi < bounds.size() && oracle > bounds[bi]) ++bi;
      const double lo = bi == 0 ? 0.0 : bounds[bi - 1];
      const double hi = bi < bounds.size() ? bounds[bi] : bounds.back();
      const double est = m->hist.quantile(q);
      EXPECT_GE(est, lo) << "round " << round << " q " << q;
      EXPECT_LE(est, hi) << "round " << round << " q " << q;
    }
  }
}

// --- Span ring buffer and trace ids ----------------------------------------

TEST(SpanRing, BoundedStorageDropsOldestAndCountsDrops) {
  Registry reg;
  reg.set_tracing(true);
  reg.set_span_capacity(8);
  EXPECT_EQ(reg.span_capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    SpanRecord s;
    s.name = "s";
    s.name += std::to_string(i);
    s.cat = "test";
    reg.record_span(std::move(s));
  }
  const auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 8u);        // bounded, not 20
  EXPECT_EQ(reg.spans_dropped(), 12u);
  // The ring keeps the *newest* spans in insertion order.
  for (int i = 0; i < 8; ++i) {
    const std::string want = "s" + std::to_string(12 + i);
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].name, want);
  }
  reg.reset_values();
  EXPECT_EQ(reg.spans_dropped(), 0u);
  EXPECT_TRUE(reg.spans().empty());
}

TEST(SpanRing, RecordSpanIsNoOpUnlessTracing) {
  Registry reg;
  SpanRecord s;
  s.name = "dropped";
  reg.record_span(std::move(s));
  EXPECT_TRUE(reg.spans().empty());
  EXPECT_EQ(reg.spans_dropped(), 0u);
}

TEST(TraceId, ScopeSetsNestsAndRestores) {
  EXPECT_EQ(current_trace_id(), 0u);
  {
    TraceIdScope outer(7);
    EXPECT_EQ(current_trace_id(), 7u);
    {
      TraceIdScope inner(9);
      EXPECT_EQ(current_trace_id(), 9u);
    }
    EXPECT_EQ(current_trace_id(), 7u);

    // Spans born inside the scope inherit the id.
    Registry reg;
    reg.set_tracing(true);
    { Span s(reg, "tagged", "test"); }
    const auto spans = reg.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].trace_id, 7u);
  }
  EXPECT_EQ(current_trace_id(), 0u);
}

// --- Exporters -------------------------------------------------------------

// Minimal JSON structural validator: enough to prove the exporters emit
// syntactically well-formed documents without pulling in a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Export, ParseSpec) {
  EXPECT_EQ(parse_export_spec("summary")->mode, ExportConfig::Mode::kSummary);
  EXPECT_EQ(parse_export_spec("json")->mode, ExportConfig::Mode::kJson);
  const auto j = parse_export_spec("json:/tmp/m.json");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->path, "/tmp/m.json");
  const auto c = parse_export_spec("chrome:/tmp/t.json");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->mode, ExportConfig::Mode::kChrome);
  EXPECT_FALSE(parse_export_spec("chrome").has_value());  // chrome needs a path
  EXPECT_FALSE(parse_export_spec("bogus").has_value());
}

TEST(Export, SummaryTableListsMetrics) {
  Registry reg;
  reg.set_enabled(true);
  reg.counter("sim.events").add(123);
  reg.gauge("sim.depth").record(9);
  const std::string table = render_summary(reg.snapshot());
  EXPECT_NE(table.find("sim.events"), std::string::npos);
  EXPECT_NE(table.find("123"), std::string::npos);
  EXPECT_NE(table.find("gauge"), std::string::npos);
}

TEST(Export, MetricsJsonIsWellFormed) {
  Registry reg;
  reg.set_enabled(true);
  reg.counter("c\"quoted\"").add(1);  // name needing escaping
  reg.gauge("g").record(2);
  reg.histogram("h", {1.0, 10.0}).observe(3.5);
  std::ostringstream os;
  write_metrics_json(reg.snapshot(), os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(Export, ChromeTraceParsesBackAndContainsSpans) {
  Registry reg;
  reg.set_tracing(true);
  {
    Span outer(reg, "study \"q\"", "study");  // name needing escaping
    Span inner(reg, "scheme packet", "scheme");
  }
  std::ostringstream os;
  write_chrome_trace(reg.spans(), os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("scheme packet"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// --- Study integration -----------------------------------------------------

TEST(StudySmoke, CacheCountersMatchFromCache) {
  auto& reg = Registry::global();
  reg.set_enabled(true);
  reg.set_tracing(true);
  reg.reset_values();

  core::StudyOptions opts;
  opts.corpus.limit = 3;
  opts.corpus.duration_scale = 0.1;
  opts.threads = 2;
  opts.progress = false;
  opts.cache_path = "/tmp/hps_telemetry_cache_" + std::to_string(getpid()) + ".bin";
  std::remove(opts.cache_path.c_str());

  const core::StudyResult first = core::run_study(opts);
  EXPECT_FALSE(first.from_cache);
  Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value("study.cache_hits"), 0u);
  EXPECT_EQ(snap.value("study.cache_misses"), 1u);
  EXPECT_EQ(snap.value("core.traces"), 3u);
  // Simulation schemes ran a DES; the analytic model registered a zero.
  EXPECT_GT(snap.value("scheme.packet.des_events_processed"), 0u);
  EXPECT_GT(snap.value("scheme.flow.des_events_processed"), 0u);
  EXPECT_GT(snap.value("scheme.packet-flow.des_events_processed"), 0u);
  EXPECT_EQ(snap.value("scheme.mfact.des_events_processed"), 0u);
  EXPECT_GT(snap.value("scheme.mfact.model_evals"), 0u);
  // Every trace produced a per-scheme span plus its own trace span.
  std::size_t scheme_spans = 0, trace_spans = 0;
  for (const SpanRecord& s : reg.spans()) {
    scheme_spans += s.cat == std::string("scheme") ? 1 : 0;
    trace_spans += s.cat == std::string("trace") ? 1 : 0;
  }
  EXPECT_EQ(trace_spans, 3u);
  EXPECT_EQ(scheme_spans, 3u * 4u);  // mfact + three simulators per trace

  const core::StudyResult second = core::run_study(opts);
  EXPECT_TRUE(second.from_cache);
  snap = reg.snapshot();
  EXPECT_EQ(snap.value("study.cache_hits"), 1u);
  EXPECT_EQ(snap.value("study.cache_misses"), 1u);
  EXPECT_EQ(second.outcomes.size(), first.outcomes.size());

  std::remove(opts.cache_path.c_str());
  reg.set_enabled(false);
  reg.set_tracing(false);
  reg.reset_values();
}

}  // namespace
}  // namespace hps::telemetry
