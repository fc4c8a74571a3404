#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <iterator>

#include "common/error.hpp"

namespace hps::telemetry {

namespace {

/// Slot capacity per shard. Counters and gauges take one slot; a histogram
/// takes buckets + 2. 4096 slots (32 KiB/thread) is far beyond what the
/// built-in instrumentation registers.
constexpr std::uint32_t kSlotCapacity = 4096;

/// Default per-thread span ring capacity. A long-lived traced daemon keeps
/// at most this many spans per thread; older ones are overwritten and
/// counted in spans_dropped().
constexpr std::size_t kDefaultSpanCapacity = 16384;

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Trace id attributed to work on this thread; crosses registries on
/// purpose (the serving request id must reach study-internal spans on the
/// global registry).
thread_local std::uint64_t tls_trace_id = 0;

}  // namespace

std::uint64_t current_trace_id() { return tls_trace_id; }

void set_current_trace_id(std::uint64_t id) { tls_trace_id = id; }

const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

const MetricValue* Snapshot::find(const std::string& name) const {
  for (const auto& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

std::uint64_t Snapshot::value(const std::string& name) const {
  const MetricValue* m = find(name);
  return m != nullptr ? m->value : 0;
}

double HistogramData::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t c = buckets[i];
    if (c == 0) continue;
    if (static_cast<double>(cum) + static_cast<double>(c) >= rank) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      if (i >= bounds.size()) return lo;  // overflow: no upper bound to interpolate to
      const double frac =
          std::clamp((rank - static_cast<double>(cum)) / static_cast<double>(c), 0.0, 1.0);
      return lo + (bounds[i] - lo) * frac;
    }
    cum += c;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

/// Per-thread storage. Only the owning thread writes; relaxed atomics make
/// the concurrent snapshot reads well-defined without fetch_add traffic.
struct Registry::Shard {
  explicit Shard(std::uint32_t tid_in) : tid(tid_in) {}
  std::array<std::atomic<std::uint64_t>, kSlotCapacity> slots{};
  std::mutex span_mu;  // uncontended: taken by the owner and the exporter
  /// Ring of the most recent spans: below capacity it's a plain vector
  /// (span_head 0); at capacity, span_head is the oldest entry, overwritten
  /// on the next push. Insertion order = [span_head..end) + [0..span_head).
  std::vector<SpanRecord> spans;
  std::size_t span_head = 0;
  std::uint64_t span_dropped = 0;
  const std::uint32_t tid;
};

/// Shards whose threads have exited, waiting for the registry's next new
/// thread. Shared with every thread holding one of the registry's shards, so
/// a thread that exits after the registry is gone touches only this.
struct Registry::FreeShards {
  std::mutex mu;
  std::vector<Shard*> shards;
};

namespace {
struct TlsEntry {
  std::uint64_t registry_id;
  Registry::Shard* shard;
  std::weak_ptr<Registry::FreeShards> free;
};
/// Shards this thread has joined, keyed by registry id. Registries get
/// unique ids, so an entry for a destroyed registry can never be matched
/// (and its dangling pointer never dereferenced). On thread exit each shard
/// goes back to its registry's free list, values kept, if the registry is
/// still alive.
struct TlsShards {
  std::vector<TlsEntry> entries;
  ~TlsShards() {
    for (const TlsEntry& e : entries)
      if (const auto pool = e.free.lock()) {
        const std::lock_guard<std::mutex> lk(pool->mu);
        pool->shards.push_back(e.shard);
      }
  }
};
thread_local TlsShards tls_shards;
}  // namespace

Registry::Registry()
    : free_(std::make_shared<FreeShards>()),
      span_capacity_(kDefaultSpanCapacity),
      id_(next_registry_id()),
      epoch_(std::chrono::steady_clock::now()) {}

Registry::~Registry() = default;

Registry& Registry::global() {
  static Registry reg;
  return reg;
}

std::int64_t Registry::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Registry::Shard& Registry::local_shard() {
  for (const TlsEntry& e : tls_shards.entries)
    if (e.registry_id == id_) return *e.shard;
  Shard* s = nullptr;
  {
    const std::lock_guard<std::mutex> lk(free_->mu);
    if (!free_->shards.empty()) {
      s = free_->shards.back();
      free_->shards.pop_back();
    }
  }
  if (s == nullptr) {
    const std::lock_guard<std::mutex> lk(mu_);
    shards_.push_back(std::make_unique<Shard>(static_cast<std::uint32_t>(shards_.size())));
    s = shards_.back().get();
  }
  tls_shards.entries.push_back({id_, s, free_});
  return *s;
}

const Registry::MetricDef& Registry::define(const std::string& name, MetricKind kind,
                                            std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lk(mu_);
  if (const auto it = by_name_.find(name); it != by_name_.end()) {
    HPS_CHECK_MSG(it->second->kind == kind,
                  "telemetry metric re-registered with a different kind: " + name);
    return *it->second;
  }
  const auto nslots =
      kind == MetricKind::kHistogram ? static_cast<std::uint32_t>(bounds.size()) + 3 : 1u;
  HPS_CHECK_MSG(next_slot_ + nslots <= kSlotCapacity, "telemetry slot capacity exhausted");
  auto def = std::make_unique<MetricDef>();
  def->name = name;
  def->kind = kind;
  def->slot = next_slot_;
  def->nslots = nslots;
  def->bounds = std::move(bounds);
  next_slot_ += nslots;
  MetricDef* raw = def.get();
  defs_.push_back(std::move(def));
  by_name_.emplace(name, raw);
  return *raw;
}

Counter Registry::counter(const std::string& name) {
  const MetricDef& def = define(name, MetricKind::kCounter, {});
  return Counter(&enabled_, this, def.slot);
}

Gauge Registry::gauge(const std::string& name) {
  const MetricDef& def = define(name, MetricKind::kGauge, {});
  return Gauge(&enabled_, this, def.slot);
}

Histogram Registry::histogram(const std::string& name, std::vector<double> bounds) {
  HPS_CHECK_MSG(std::is_sorted(bounds.begin(), bounds.end()),
                "histogram bounds must be ascending: " + name);
  const MetricDef& def = define(name, MetricKind::kHistogram, std::move(bounds));
  return Histogram(&enabled_, this, &def);
}

void Registry::slot_add(std::uint32_t slot, std::uint64_t delta) {
  auto& s = local_shard().slots[slot];
  s.store(s.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

void Registry::slot_max(std::uint32_t slot, std::uint64_t v) {
  auto& s = local_shard().slots[slot];
  if (v > s.load(std::memory_order_relaxed)) s.store(v, std::memory_order_relaxed);
}

void Registry::hist_observe(const void* def_ptr, double v) {
  const auto& def = *static_cast<const MetricDef*>(def_ptr);
  Shard& sh = local_shard();
  std::size_t i = 0;
  while (i < def.bounds.size() && v > def.bounds[i]) ++i;
  auto bump = [&sh](std::uint32_t slot, std::uint64_t d) {
    auto& s = sh.slots[slot];
    s.store(s.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  };
  bump(def.slot + static_cast<std::uint32_t>(i), 1);                      // bucket
  bump(def.slot + def.nslots - 2, 1);                                     // count
  auto& sum = sh.slots[def.slot + def.nslots - 1];                        // double bits
  const double cur = std::bit_cast<double>(sum.load(std::memory_order_relaxed));
  sum.store(std::bit_cast<std::uint64_t>(cur + v), std::memory_order_relaxed);
}

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lk(mu_);
  Snapshot snap;
  snap.metrics.reserve(defs_.size());
  for (const auto& def : defs_) {
    MetricValue mv;
    mv.name = def->name;
    mv.kind = def->kind;
    switch (def->kind) {
      case MetricKind::kCounter:
        for (const auto& sh : shards_)
          mv.value += sh->slots[def->slot].load(std::memory_order_relaxed);
        break;
      case MetricKind::kGauge:
        for (const auto& sh : shards_)
          mv.value = std::max(mv.value, sh->slots[def->slot].load(std::memory_order_relaxed));
        break;
      case MetricKind::kHistogram: {
        mv.hist.bounds = def->bounds;
        mv.hist.buckets.assign(def->bounds.size() + 1, 0);
        for (const auto& sh : shards_) {
          for (std::size_t b = 0; b < mv.hist.buckets.size(); ++b)
            mv.hist.buckets[b] +=
                sh->slots[def->slot + b].load(std::memory_order_relaxed);
          mv.hist.count += sh->slots[def->slot + def->nslots - 2].load(std::memory_order_relaxed);
          mv.hist.sum += std::bit_cast<double>(
              sh->slots[def->slot + def->nslots - 1].load(std::memory_order_relaxed));
        }
        mv.value = mv.hist.count;
        break;
      }
    }
    snap.metrics.push_back(std::move(mv));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) { return a.name < b.name; });
  return snap;
}

std::vector<SpanRecord> Registry::spans() const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::vector<SpanRecord> out;
  for (const auto& sh : shards_) {
    const std::lock_guard<std::mutex> slk(sh->span_mu);
    out.insert(out.end(), sh->spans.begin() + static_cast<std::ptrdiff_t>(sh->span_head),
               sh->spans.end());
    out.insert(out.end(), sh->spans.begin(),
               sh->spans.begin() + static_cast<std::ptrdiff_t>(sh->span_head));
  }
  return out;
}

void Registry::set_span_capacity(std::size_t capacity) {
  HPS_CHECK_MSG(capacity > 0, "telemetry span capacity must be > 0");
  span_capacity_.store(capacity, std::memory_order_relaxed);
}

std::size_t Registry::span_capacity() const {
  return span_capacity_.load(std::memory_order_relaxed);
}

std::uint64_t Registry::spans_dropped() const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    const std::lock_guard<std::mutex> slk(sh->span_mu);
    total += sh->span_dropped;
  }
  return total;
}

void Registry::record_span(SpanRecord rec) {
  if (!tracing()) return;
  push_span(std::move(rec));
}

void Registry::reset_values() {
  const std::lock_guard<std::mutex> lk(mu_);
  for (const auto& sh : shards_) {
    for (auto& s : sh->slots) s.store(0, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> slk(sh->span_mu);
    sh->spans.clear();
    sh->span_head = 0;
    sh->span_dropped = 0;
  }
}

void Registry::push_span(SpanRecord rec) {
  Shard& sh = local_shard();
  rec.tid = sh.tid;
  const std::size_t cap = span_capacity_.load(std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lk(sh.span_mu);
  if (sh.spans.size() > cap) {
    // Capacity was lowered: keep the newest `cap` spans (insertion order is
    // the rotation at span_head), count the rest as dropped.
    std::vector<SpanRecord> ordered;
    ordered.reserve(sh.spans.size());
    std::move(sh.spans.begin() + static_cast<std::ptrdiff_t>(sh.span_head), sh.spans.end(),
              std::back_inserter(ordered));
    std::move(sh.spans.begin(), sh.spans.begin() + static_cast<std::ptrdiff_t>(sh.span_head),
              std::back_inserter(ordered));
    sh.span_dropped += ordered.size() - cap;
    sh.spans.assign(std::make_move_iterator(ordered.end() - static_cast<std::ptrdiff_t>(cap)),
                    std::make_move_iterator(ordered.end()));
    sh.span_head = 0;
  }
  if (sh.spans.size() < cap) {
    sh.spans.push_back(std::move(rec));
  } else {
    sh.spans[sh.span_head] = std::move(rec);
    sh.span_head = (sh.span_head + 1) % cap;
    ++sh.span_dropped;
  }
}

Span::Span(Registry& reg, std::string name, const char* cat) {
  if (!reg.tracing()) return;
  reg_ = &reg;
  rec_.name = std::move(name);
  rec_.cat = cat;
  rec_.trace_id = current_trace_id();
  start_ns_ = reg.now_ns();
}

Span::Span(std::string name, const char* cat) : Span(Registry::global(), std::move(name), cat) {}

Span::~Span() {
  if (reg_ == nullptr) return;
  rec_.start_ns = start_ns_;
  rec_.dur_ns = reg_->now_ns() - start_ns_;
  reg_->push_span(std::move(rec_));
}

void Span::arg(std::string key, std::string value) {
  if (reg_ == nullptr) return;
  rec_.args.emplace_back(std::move(key), std::move(value));
}

ScopedTimer::ScopedTimer(Histogram h) : h_(h), live_(h.live()) {
  if (live_) start_ = std::chrono::steady_clock::now();
}

ScopedTimer::~ScopedTimer() {
  if (!live_) return;
  const auto end = std::chrono::steady_clock::now();
  h_.observe(std::chrono::duration<double>(end - start_).count());
}

std::vector<double> duration_bounds() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0};
}

std::vector<double> latency_bounds() {
  std::vector<double> b;
  for (double decade = 1e-6; decade < 20.0; decade *= 10.0)
    for (const double m : {1.0, 2.0, 5.0}) b.push_back(decade * m);
  b.push_back(100.0);
  return b;
}

}  // namespace hps::telemetry
