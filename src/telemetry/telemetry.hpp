// Low-overhead metrics and tracing for the DES engine, the simulators and
// the study runner.
//
// A Registry holds named counters, gauges and fixed-bucket histograms. Hot
// paths hold cheap value handles (Counter/Gauge/Histogram); when telemetry is
// disabled — the default — every update is a single relaxed-load branch.
// When enabled, updates go to a per-thread shard that only its owning thread
// writes, so worker threads never contend on a shared cache line; the
// exporting thread merges all shards on snapshot(). When a thread exits, its
// shard (values kept) passes to the registry's next new thread, so storage
// tracks peak concurrency, not the number of threads ever seen.
//
// Spans are RAII scoped regions feeding a Chrome trace_event timeline
// (export.hpp renders them for chrome://tracing / Perfetto). Tracing is a
// separate flag from metrics so summary/JSON modes pay nothing for spans.
//
// Single-threaded hot loops (the DES engine's event dispatch) use
// LocalCounter/LocalMax: a plain integer increment with an explicit flush of
// the delta into a shared registry counter at run boundaries.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hps::telemetry {

class Registry;

namespace detail {
/// Enabled flag a default-constructed handle points at: never set, so an
/// unbound handle is a safe no-op without a null check on the hot path.
inline const std::atomic<bool> kNeverEnabled{false};
}  // namespace detail

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* metric_kind_name(MetricKind k);

/// Merged histogram contents. Bucket i counts observations v <= bounds[i]
/// (and above the previous bound); the last bucket is the overflow.
struct HistogramData {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0;
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  /// Estimated q-quantile (q in [0,1]) by linear interpolation inside the
  /// bucket containing the rank. Error is bounded by the bucket width; the
  /// overflow bucket reports its lower bound. 0 when the histogram is empty.
  double quantile(double q) const;
};

struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;  ///< counter total / gauge max over all threads
  HistogramData hist;       ///< kHistogram only
};

/// Point-in-time merge of every shard, sorted by metric name.
struct Snapshot {
  std::vector<MetricValue> metrics;

  const MetricValue* find(const std::string& name) const;
  /// Counter or gauge value by name; 0 when absent.
  std::uint64_t value(const std::string& name) const;
};

/// One completed span, timestamped in nanoseconds since the registry epoch.
struct SpanRecord {
  std::string name;
  std::string cat;
  std::uint32_t tid = 0;
  /// Request trace id (current_trace_id() at span construction); 0 when the
  /// span is not attributed to a request.
  std::uint64_t trace_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Trace id attributed to work on the current thread; 0 = unattributed.
/// Spans stamp it at construction, so study-internal spans pick up the
/// serving request that caused them without any signature changes.
std::uint64_t current_trace_id();
void set_current_trace_id(std::uint64_t id);

/// RAII scope: sets the thread's trace id, restoring the previous value on
/// exit (scopes nest — a coalesced study keeps its owner's id).
class TraceIdScope {
 public:
  explicit TraceIdScope(std::uint64_t id) : prev_(current_trace_id()) {
    set_current_trace_id(id);
  }
  ~TraceIdScope() { set_current_trace_id(prev_); }
  TraceIdScope(const TraceIdScope&) = delete;
  TraceIdScope& operator=(const TraceIdScope&) = delete;

 private:
  std::uint64_t prev_;
};

/// Monotonically increasing counter handle.
class Counter {
 public:
  Counter() = default;
  inline void add(std::uint64_t delta = 1) const;

 private:
  friend class Registry;
  Counter(const std::atomic<bool>* enabled, Registry* reg, std::uint32_t slot)
      : enabled_(enabled), reg_(reg), slot_(slot) {}
  const std::atomic<bool>* enabled_ = &detail::kNeverEnabled;
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Gauge recording the maximum value observed (merged by max over threads) —
/// the aggregation that makes sense for watermarks like queue depth.
class Gauge {
 public:
  Gauge() = default;
  inline void record(std::uint64_t v) const;

 private:
  friend class Registry;
  Gauge(const std::atomic<bool>* enabled, Registry* reg, std::uint32_t slot)
      : enabled_(enabled), reg_(reg), slot_(slot) {}
  const std::atomic<bool>* enabled_ = &detail::kNeverEnabled;
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Fixed-bucket histogram handle. Bucket bounds are set at registration and
/// immutable afterwards.
class Histogram {
 public:
  Histogram() = default;
  inline void observe(double v) const;
  /// True when observations are currently being recorded.
  bool live() const { return enabled_->load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  friend class ScopedTimer;
  Histogram(const std::atomic<bool>* enabled, Registry* reg, const void* def)
      : enabled_(enabled), reg_(reg), def_(def) {}
  const std::atomic<bool>* enabled_ = &detail::kNeverEnabled;
  Registry* reg_ = nullptr;
  const void* def_ = nullptr;  // Registry::MetricDef, opaque to callers
};

class Registry {
 public:
  /// Per-thread storage and the list of shards freed by exited threads;
  /// defined in the .cpp (public names so the implementation's thread-local
  /// bookkeeping can refer to them).
  struct Shard;
  struct FreeShards;

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every built-in instrumentation point uses.
  static Registry& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  /// Span recording; implies nothing about metrics (set both for chrome).
  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }

  /// Register (or look up) a metric. Re-registering an existing name returns
  /// the same handle; the kind must match.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name, std::vector<double> bounds);

  /// Merge every thread shard into one consistent-enough view. Safe to call
  /// while workers are still updating (relaxed reads; per-slot atomicity).
  Snapshot snapshot() const;

  /// All retained spans, across threads, in per-thread insertion order.
  /// Span storage is a per-thread ring of span_capacity() records; once a
  /// thread overflows its ring the oldest spans are overwritten and counted
  /// in spans_dropped() — a long-lived traced daemon stays bounded.
  std::vector<SpanRecord> spans() const;

  /// Per-thread span ring capacity (applies to rings created afterwards and
  /// truncates existing ones on next write). Must be > 0.
  void set_span_capacity(std::size_t capacity);
  std::size_t span_capacity() const;
  /// Spans overwritten because a thread's ring was full, across threads.
  std::uint64_t spans_dropped() const;

  /// Record an externally-built span (the serving path emits retroactive
  /// per-phase spans from timestamps it already took). No-op unless tracing;
  /// the record's tid is overwritten with the calling thread's shard id.
  void record_span(SpanRecord rec);

  /// Zero every metric in every shard and drop recorded spans. Metric
  /// definitions (and outstanding handles) stay valid. Intended for tests.
  void reset_values();

  /// Nanoseconds since this registry was constructed (steady clock).
  std::int64_t now_ns() const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;
  friend class Span;

  struct MetricDef {
    std::string name;
    MetricKind kind;
    std::uint32_t slot;    ///< first slot in every shard's slot array
    std::uint32_t nslots;  ///< slots occupied (histograms: buckets + count + sum)
    std::vector<double> bounds;
  };

  const MetricDef& define(const std::string& name, MetricKind kind,
                          std::vector<double> bounds);
  Shard& local_shard();
  void slot_add(std::uint32_t slot, std::uint64_t delta);
  void slot_max(std::uint32_t slot, std::uint64_t v);
  void hist_observe(const void* def, double v);
  void push_span(SpanRecord rec);

  mutable std::mutex mu_;  // guards defs_/by_name_/shards_ growth and snapshot
  std::vector<std::unique_ptr<MetricDef>> defs_;  // unique_ptr: stable addresses
  std::unordered_map<std::string, MetricDef*> by_name_;
  std::vector<std::unique_ptr<Shard>> shards_;
  const std::shared_ptr<FreeShards> free_;  // shards_ entries no thread holds
  std::uint32_t next_slot_ = 0;
  std::atomic<std::size_t> span_capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<bool> tracing_{false};
  const std::uint64_t id_;  // unique per instance, keys the thread-local cache
  const std::chrono::steady_clock::time_point epoch_;
};

inline void Counter::add(std::uint64_t delta) const {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  reg_->slot_add(slot_, delta);
}

inline void Gauge::record(std::uint64_t v) const {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  reg_->slot_max(slot_, v);
}

inline void Histogram::observe(double v) const {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  reg_->hist_observe(def_, v);
}

/// RAII region recorded into the Chrome trace timeline. Inactive (and nearly
/// free) unless the registry's tracing flag is on at construction time.
class Span {
 public:
  Span(Registry& reg, std::string name, const char* cat);
  /// Convenience: span on the global registry.
  Span(std::string name, const char* cat);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return reg_ != nullptr; }
  /// Attach a key/value shown under "args" in the trace viewer.
  void arg(std::string key, std::string value);

 private:
  Registry* reg_ = nullptr;  // null: tracing was off, span is a no-op
  std::int64_t start_ns_ = 0;
  SpanRecord rec_;
};

/// RAII timer observing its lifetime, in seconds, into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram h);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram h_;
  bool live_ = false;
  std::chrono::steady_clock::time_point start_;
};

/// Single-writer counter for single-threaded hot loops: a plain increment,
/// with an explicit flush of the accumulated delta into a shared registry
/// counter at run boundaries (so the hot path never touches atomics).
class LocalCounter {
 public:
  void add(std::uint64_t delta = 1) { v_ += delta; }
  std::uint64_t value() const { return v_; }
  void reset() { v_ = 0; flushed_ = 0; }
  void flush_to(const Counter& c) {
    if (v_ != flushed_) {
      c.add(v_ - flushed_);
      flushed_ = v_;
    }
  }

 private:
  std::uint64_t v_ = 0;
  std::uint64_t flushed_ = 0;
};

/// Single-writer watermark companion to LocalCounter.
class LocalMax {
 public:
  void record(std::uint64_t v) {
    if (v > v_) v_ = v;
  }
  std::uint64_t value() const { return v_; }
  void reset() { v_ = 0; }
  void flush_to(const Gauge& g) const { g.record(v_); }

 private:
  std::uint64_t v_ = 0;
};

/// Standard log-spaced bounds for wall-clock duration histograms: 1 µs to
/// 100 s in decades.
std::vector<double> duration_bounds();

/// Finer 1-2-5 log-spaced bounds (1 µs to 100 s) for serving-latency
/// histograms, where quantile() interpolation error must stay small enough
/// for p50/p99/p99.9 to be meaningful.
std::vector<double> latency_bounds();

}  // namespace hps::telemetry
