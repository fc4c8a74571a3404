#include "telemetry/export.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>

#include "common/json.hpp"
#include "common/table.hpp"

namespace hps::telemetry {

namespace {

std::string fmt_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::mutex g_mu;
std::optional<ExportConfig> g_config;
bool g_flushed = false;
bool g_atexit_registered = false;

}  // namespace

std::optional<ExportConfig> parse_export_spec(const std::string& spec) {
  std::string mode = spec;
  std::string path;
  if (const auto colon = spec.find(':'); colon != std::string::npos) {
    mode = spec.substr(0, colon);
    path = spec.substr(colon + 1);
  }
  ExportConfig cfg;
  cfg.path = path;
  if (mode == "summary") {
    cfg.mode = ExportConfig::Mode::kSummary;
  } else if (mode == "json") {
    cfg.mode = ExportConfig::Mode::kJson;
  } else if (mode == "chrome" && !path.empty()) {
    cfg.mode = ExportConfig::Mode::kChrome;
  } else {
    return std::nullopt;
  }
  return cfg;
}

void configure(const ExportConfig& cfg) {
  Registry& reg = Registry::global();
  reg.set_enabled(true);
  if (cfg.mode == ExportConfig::Mode::kChrome) reg.set_tracing(true);
  const std::lock_guard<std::mutex> lk(g_mu);
  g_config = cfg;
  g_flushed = false;
  if (!g_atexit_registered) {
    g_atexit_registered = true;
    std::atexit([] { flush_exports(); });
  }
}

bool init_from_env() {
  static bool configured = [] {
    const char* env = std::getenv("HPS_TELEMETRY");
    if (env == nullptr || *env == '\0') return false;
    const auto cfg = parse_export_spec(env);
    if (!cfg) {
      std::fprintf(stderr, "[telemetry] ignoring unrecognized HPS_TELEMETRY=%s\n", env);
      return false;
    }
    configure(*cfg);
    return true;
  }();
  return configured;
}

std::string render_summary(const Snapshot& snap) {
  TextTable t;
  t.set_header({"metric", "type", "value"});
  for (const auto& m : snap.metrics) {
    std::string value;
    switch (m.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        value = std::to_string(m.value);
        break;
      case MetricKind::kHistogram:
        value = "count " + std::to_string(m.hist.count) + "  mean " + fmt_g(m.hist.mean()) +
                "  sum " + fmt_g(m.hist.sum);
        break;
    }
    t.add_row({m.name, metric_kind_name(m.kind), value});
  }
  return t.render();
}

void write_metrics_json(const Snapshot& snap, std::ostream& os) {
  auto emit_kind = [&](MetricKind kind, const char* key, bool first_section) {
    if (!first_section) os << ",";
    os << "\"" << key << "\":{";
    bool first = true;
    for (const auto& m : snap.metrics) {
      if (m.kind != kind) continue;
      if (!first) os << ",";
      first = false;
      os << json_string(m.name) << ":";
      if (kind == MetricKind::kHistogram) {
        os << "{\"bounds\":[";
        for (std::size_t i = 0; i < m.hist.bounds.size(); ++i)
          os << (i ? "," : "") << fmt_g(m.hist.bounds[i]);
        os << "],\"buckets\":[";
        for (std::size_t i = 0; i < m.hist.buckets.size(); ++i)
          os << (i ? "," : "") << m.hist.buckets[i];
        os << "],\"count\":" << m.hist.count << ",\"sum\":" << fmt_g(m.hist.sum) << "}";
      } else {
        os << m.value;
      }
    }
    os << "}";
  };
  os << "{";
  emit_kind(MetricKind::kCounter, "counters", true);
  emit_kind(MetricKind::kGauge, "gauges", false);
  emit_kind(MetricKind::kHistogram, "histograms", false);
  os << "}\n";
}

void write_chrome_trace(const std::vector<SpanRecord>& spans, std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const SpanRecord& s : spans) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":" << json_string(s.name) << ",\"cat\":" << json_string(s.cat)
       << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid;
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) / 1e3, static_cast<double>(s.dur_ns) / 1e3);
    os << buf;
    if (!s.args.empty() || s.trace_id != 0) {
      os << ",\"args\":{";
      bool first_arg = true;
      if (s.trace_id != 0) {
        std::snprintf(buf, sizeof buf, "\"trace_id\":\"%016llx\"",
                      static_cast<unsigned long long>(s.trace_id));
        os << buf;
        first_arg = false;
      }
      for (std::size_t i = 0; i < s.args.size(); ++i) {
        if (!first_arg) os << ",";
        first_arg = false;
        os << json_string(s.args[i].first) << ":" << json_string(s.args[i].second);
      }
      os << "}";
    }
    os << "}";
  }
  os << "]}\n";
}

void flush_exports() {
  ExportConfig cfg;
  {
    const std::lock_guard<std::mutex> lk(g_mu);
    if (!g_config || g_flushed) return;
    g_flushed = true;
    cfg = *g_config;
  }
  Registry& reg = Registry::global();
  switch (cfg.mode) {
    case ExportConfig::Mode::kSummary:
    case ExportConfig::Mode::kJson: {
      std::ostringstream body;
      if (cfg.mode == ExportConfig::Mode::kSummary) {
        body << "[telemetry]\n" << render_summary(reg.snapshot());
      } else {
        write_metrics_json(reg.snapshot(), body);
      }
      if (cfg.path.empty()) {
        std::fputs(body.str().c_str(), stderr);
      } else {
        std::ofstream os(cfg.path);
        if (!os.is_open()) {
          std::fprintf(stderr, "[telemetry] cannot write %s\n", cfg.path.c_str());
          return;
        }
        os << body.str();
      }
      break;
    }
    case ExportConfig::Mode::kChrome: {
      std::ofstream os(cfg.path, std::ios::binary);
      if (!os.is_open()) {
        std::fprintf(stderr, "[telemetry] cannot write %s\n", cfg.path.c_str());
        return;
      }
      write_chrome_trace(reg.spans(), os);
      std::fprintf(stderr, "[telemetry] wrote Chrome trace to %s (open in chrome://tracing)\n",
                   cfg.path.c_str());
      break;
    }
  }
}

}  // namespace hps::telemetry
