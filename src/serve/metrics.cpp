#include "serve/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace hps::serve {

namespace {

std::string fmt_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string fmt_ms(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.2f", seconds * 1e3);
  return buf;
}

/// Prometheus family + label for a serving-registry histogram name.
struct Family {
  std::string family;
  std::string label;  ///< "" = no label, else `key="value"`
};

Family prometheus_family(const std::string& name) {
  const std::size_t phase_len = std::strlen(kPhaseMetricPrefix);
  const std::size_t class_len = std::strlen(kClassMetricPrefix);
  if (name.rfind(kPhaseMetricPrefix, 0) == 0)
    return {"hpcsweepd_phase_latency_seconds",
            "phase=\"" + name.substr(phase_len) + "\""};
  if (name.rfind(kClassMetricPrefix, 0) == 0)
    return {"hpcsweepd_class_latency_seconds",
            "class=\"" + name.substr(class_len) + "\""};
  if (name == kRequestMetric) return {"hpcsweepd_request_latency_seconds", ""};
  // Unknown histograms still export, distinguished by a metric label.
  return {"hpcsweepd_latency_seconds", "metric=\"" + name + "\""};
}

}  // namespace

const MetricsReply::Hist* MetricsReply::find(const std::string& name) const {
  for (const Hist& h : hists)
    if (h.name == name) return &h;
  return nullptr;
}

std::string encode_metrics(const MetricsReply& m) {
  std::string out;
  out.reserve(512);
  put_u32(out, kProtocolVersion);
  put_str(out, encode_stats(m.stats));  // nested blob keeps its own version
  put_f64(out, m.uptime_seconds);
  put_u32(out, static_cast<std::uint32_t>(m.hists.size()));
  for (const MetricsReply::Hist& h : m.hists) {
    put_str(out, h.name);
    put_u32(out, static_cast<std::uint32_t>(h.data.bounds.size()));
    for (const double b : h.data.bounds) put_f64(out, b);
    put_u32(out, static_cast<std::uint32_t>(h.data.buckets.size()));
    for (const std::uint64_t b : h.data.buckets) put_u64(out, b);
    put_u64(out, h.data.count);
    put_f64(out, h.data.sum);
  }
  put_u32(out, static_cast<std::uint32_t>(m.costs.size()));
  for (const obs::CostCell& c : m.costs) {
    put_str(out, c.app_class);
    put_str(out, c.scheme);
    put_u64(out, c.count);
    put_f64(out, c.wall_seconds);
  }
  return out;
}

MetricsReply decode_metrics(const std::string& payload) {
  // A metrics reply is a response frame: its strings are capped by the
  // transport's frame limit, not kMaxRequestBytes.
  ByteReader rd(payload, "serve metrics payload");
  const std::uint32_t version = rd.u32();
  HPS_REQUIRE(version >= 2 && version <= kProtocolVersion,
              "serve metrics version " + std::to_string(version) + " unsupported");
  MetricsReply m;
  m.stats = decode_stats(rd.str());
  m.uptime_seconds = rd.f64();
  const std::uint32_t nhists = rd.u32();
  HPS_REQUIRE(nhists <= 4096, "serve metrics histogram count out of range");
  m.hists.resize(nhists);
  for (MetricsReply::Hist& h : m.hists) {
    h.name = rd.str();
    const std::uint32_t nbounds = rd.u32();
    HPS_REQUIRE(nbounds <= 4096, "serve metrics bound count out of range");
    h.data.bounds.resize(nbounds);
    for (double& b : h.data.bounds) b = rd.f64();
    const std::uint32_t nbuckets = rd.u32();
    HPS_REQUIRE(nbuckets == nbounds + 1, "serve metrics bucket count mismatch");
    h.data.buckets.resize(nbuckets);
    for (std::uint64_t& b : h.data.buckets) b = rd.u64();
    h.data.count = rd.u64();
    h.data.sum = rd.f64();
  }
  const std::uint32_t ncosts = rd.u32();
  HPS_REQUIRE(ncosts <= 4096, "serve metrics cost-cell count out of range");
  m.costs.resize(ncosts);
  for (obs::CostCell& c : m.costs) {
    c.app_class = rd.str();
    c.scheme = rd.str();
    c.count = rd.u64();
    c.wall_seconds = rd.f64();
  }
  rd.done();
  return m;
}

std::string render_prometheus(const MetricsReply& m) {
  std::ostringstream os;
  const auto counter = [&os](const char* name, std::uint64_t v) {
    os << "# TYPE " << name << " counter\n" << name << " " << v << "\n";
  };
  const auto gauge = [&os](const char* name, const std::string& v) {
    os << "# TYPE " << name << " gauge\n" << name << " " << v << "\n";
  };

  const Stats& s = m.stats;
  counter("hpcsweepd_requests_total", s.requests);
  counter("hpcsweepd_studies_run_total", s.studies_run);
  counter("hpcsweepd_coalesced_total", s.coalesced);
  counter("hpcsweepd_cache_hits_total", s.cache_hits);
  counter("hpcsweepd_cache_misses_total", s.cache_misses);
  counter("hpcsweepd_cache_evictions_total", s.cache_evictions);
  os << "# TYPE hpcsweepd_rejected_total counter\n";
  os << "hpcsweepd_rejected_total{reason=\"queue_full\"} " << s.rejected_queue_full << "\n";
  os << "hpcsweepd_rejected_total{reason=\"draining\"} " << s.rejected_draining << "\n";
  os << "hpcsweepd_rejected_total{reason=\"bad_request\"} " << s.rejected_bad << "\n";
  os << "hpcsweepd_rejected_total{reason=\"conn_limit\"} " << s.rejected_conn_limit << "\n";
  os << "hpcsweepd_rejected_total{reason=\"expired\"} " << s.rejected_expired << "\n";
  os << "hpcsweepd_rejected_total{reason=\"slow_read\"} " << s.rejected_slow_read << "\n";
  counter("hpcsweepd_shed_total", s.shed_queue_delay);
  counter("hpcsweepd_degraded_fallback_total", s.degraded_fallback);
  counter("hpcsweepd_cache_spilled_total", s.cache_spilled);
  counter("hpcsweepd_cache_recovered_total", s.cache_recovered);
  counter("hpcsweepd_cache_quarantined_total", s.cache_quarantined);
  counter("hpcsweepd_cache_scrub_passes_total", s.cache_scrub_passes);
  counter("hpcsweepd_cache_scrub_corrupt_total", s.cache_scrub_corrupt);
  counter("hpcsweepd_serve_ledger_records_total", s.ledger_records);
  counter("hpcsweepd_ledger_write_errors_total", s.ledger_write_errors);
  counter("hpcsweepd_spans_dropped_total", s.spans_dropped);
  gauge("hpcsweepd_cache_bytes", std::to_string(s.cache_bytes));
  gauge("hpcsweepd_cache_entries", std::to_string(s.cache_entries));
  gauge("hpcsweepd_active_studies", std::to_string(s.active));
  gauge("hpcsweepd_queue_depth", std::to_string(s.queued));
  gauge("hpcsweepd_uptime_seconds", fmt_g(m.uptime_seconds));
  gauge("hpcsweepd_cache_recovery_ms", std::to_string(s.cache_recovery_ms));

  // Histograms grouped by family so each # TYPE header appears once.
  std::vector<std::string> typed;
  for (const MetricsReply::Hist& h : m.hists) {
    const Family fam = prometheus_family(h.name);
    if (std::find(typed.begin(), typed.end(), fam.family) == typed.end()) {
      typed.push_back(fam.family);
      os << "# TYPE " << fam.family << " histogram\n";
    }
    const std::string open = fam.label.empty() ? "{" : "{" + fam.label + ",";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.data.bounds.size(); ++i) {
      cum += i < h.data.buckets.size() ? h.data.buckets[i] : 0;
      os << fam.family << "_bucket" << open << "le=\"" << fmt_g(h.data.bounds[i]) << "\"} "
         << cum << "\n";
    }
    os << fam.family << "_bucket" << open << "le=\"+Inf\"} " << h.data.count << "\n";
    const std::string labels = fam.label.empty() ? "" : "{" + fam.label + "}";
    os << fam.family << "_sum" << labels << " " << fmt_g(h.data.sum) << "\n";
    os << fam.family << "_count" << labels << " " << h.data.count << "\n";
  }

  if (!m.costs.empty()) {
    os << "# TYPE hpcsweepd_cost_wall_seconds_total counter\n";
    os << "# TYPE hpcsweepd_cost_runs_total counter\n";
    for (const obs::CostCell& c : m.costs) {
      const std::string labels =
          "{class=\"" + c.app_class + "\",scheme=\"" + c.scheme + "\"}";
      os << "hpcsweepd_cost_wall_seconds_total" << labels << " " << fmt_g(c.wall_seconds)
         << "\n";
      os << "hpcsweepd_cost_runs_total" << labels << " " << c.count << "\n";
    }
  }
  return os.str();
}

std::string render_dashboard(const MetricsReply& m, const MetricsReply* prev,
                             double interval_s) {
  const Stats& s = m.stats;
  std::ostringstream os;
  char line[256];

  double qps = 0;
  if (prev != nullptr && interval_s > 0) {
    qps = static_cast<double>(s.requests - prev->stats.requests) / interval_s;
  } else if (m.uptime_seconds > 0) {
    qps = static_cast<double>(s.requests) / m.uptime_seconds;
  }
  const std::uint64_t looked_up = s.cache_hits + s.cache_misses;
  const double hit_ratio =
      looked_up > 0 ? 100.0 * static_cast<double>(s.cache_hits) / static_cast<double>(looked_up)
                    : 0.0;

  std::snprintf(line, sizeof line, "hpcsweepd  up %.1fs  qps %.2f\n", m.uptime_seconds, qps);
  os << line;
  std::snprintf(line, sizeof line,
                "  requests %llu  studies %llu  coalesced %llu  in-flight %llu  queued %llu\n",
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.studies_run),
                static_cast<unsigned long long>(s.coalesced),
                static_cast<unsigned long long>(s.active),
                static_cast<unsigned long long>(s.queued));
  os << line;
  std::snprintf(line, sizeof line,
                "  cache: hit %.1f%%  (%llu/%llu)  %llu entries  %llu bytes  %llu evicted\n",
                hit_ratio, static_cast<unsigned long long>(s.cache_hits),
                static_cast<unsigned long long>(looked_up),
                static_cast<unsigned long long>(s.cache_entries),
                static_cast<unsigned long long>(s.cache_bytes),
                static_cast<unsigned long long>(s.cache_evictions));
  os << line;
  const std::uint64_t rejected = s.rejected_queue_full + s.rejected_draining +
                                 s.rejected_bad + s.rejected_conn_limit +
                                 s.rejected_expired + s.rejected_slow_read;
  std::snprintf(line, sizeof line,
                "  rejected %llu (full %llu, draining %llu, bad %llu, conns %llu, "
                "expired %llu, slow-read %llu)\n",
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(s.rejected_queue_full),
                static_cast<unsigned long long>(s.rejected_draining),
                static_cast<unsigned long long>(s.rejected_bad),
                static_cast<unsigned long long>(s.rejected_conn_limit),
                static_cast<unsigned long long>(s.rejected_expired),
                static_cast<unsigned long long>(s.rejected_slow_read));
  os << line;
  std::snprintf(line, sizeof line,
                "  overload: shed %llu  mfact-fallback %llu  |  ledger %llu "
                "(write-errors %llu)  spans-dropped %llu\n",
                static_cast<unsigned long long>(s.shed_queue_delay),
                static_cast<unsigned long long>(s.degraded_fallback),
                static_cast<unsigned long long>(s.ledger_records),
                static_cast<unsigned long long>(s.ledger_write_errors),
                static_cast<unsigned long long>(s.spans_dropped));
  os << line;
  if (s.cache_spilled + s.cache_recovered + s.cache_quarantined + s.cache_scrub_passes > 0) {
    std::snprintf(line, sizeof line,
                  "  durable: spilled %llu  recovered %llu (%llu ms)  quarantined %llu  "
                  "scrubs %llu (rot %llu)\n",
                  static_cast<unsigned long long>(s.cache_spilled),
                  static_cast<unsigned long long>(s.cache_recovered),
                  static_cast<unsigned long long>(s.cache_recovery_ms),
                  static_cast<unsigned long long>(s.cache_quarantined),
                  static_cast<unsigned long long>(s.cache_scrub_passes),
                  static_cast<unsigned long long>(s.cache_scrub_corrupt));
    os << line;
  }

  os << "  latency p50/p99/p99.9 ms (count)\n";
  for (const MetricsReply::Hist& h : m.hists) {
    std::string label;
    if (h.name == kRequestMetric) {
      label = "request";
    } else if (h.name.rfind(kPhaseMetricPrefix, 0) == 0) {
      label = "phase " + h.name.substr(std::strlen(kPhaseMetricPrefix));
    } else if (h.name.rfind(kClassMetricPrefix, 0) == 0) {
      label = "class " + h.name.substr(std::strlen(kClassMetricPrefix));
    } else {
      label = h.name;
    }
    std::snprintf(line, sizeof line, "    %-28s %8s %8s %8s  (%llu)\n", label.c_str(),
                  fmt_ms(h.data.quantile(0.50)).c_str(), fmt_ms(h.data.quantile(0.99)).c_str(),
                  fmt_ms(h.data.quantile(0.999)).c_str(),
                  static_cast<unsigned long long>(h.data.count));
    os << line;
  }

  if (!m.costs.empty()) {
    os << "  measured cost (class x scheme -> mean s, runs)\n";
    for (const obs::CostCell& c : m.costs) {
      std::snprintf(line, sizeof line, "    %-24s %-12s %10.4f  (%llu)\n", c.app_class.c_str(),
                    c.scheme.c_str(), c.mean_seconds(),
                    static_cast<unsigned long long>(c.count));
      os << line;
    }
  }
  return os.str();
}

}  // namespace hps::serve
