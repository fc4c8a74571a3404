// What a benchmark run reports, and the host context it ran in: the metric
// map, the one-line JSON result, the span file of traced runs, and the
// digest lines the output checks compare.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace perfbench {

struct MetricValue {
  double value = 0;
  std::string unit;
};

/// Metrics by name. Names are the ones perfbench/README.md documents.
using Metrics = std::map<std::string, MetricValue>;

/// The outcome of one workload run.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed operations plus output-check mismatches
  Metrics end_to_end;        ///< untraced runs
  Metrics per_layer;         ///< traced runs
};

/// The result line: {"correct", "attempted", "failed", "metrics"}. `correct`
/// is true exactly when nothing failed.
std::string result_json(const RunResult& r, const Metrics& metrics);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Host context for telling a host shift from a code change: processor
/// count, the one-minute load average, and the time of a fixed integer loop.
void add_host_context(Metrics& m);

/// Writes the spans `reg` kept in memory as a Chrome trace_event file;
/// returns false when the file cannot be written.
bool write_spans(const hps::telemetry::Registry& reg, const std::string& path);

/// FNV-1a 64-bit hash, as 16 hex digits.
std::string hash_hex(const std::string& text);

/// Digest lines ("<key> <hash>") compared against a reference file.
struct DigestCheck {
  std::size_t compared = 0;
  std::size_t mismatched = 0;  ///< differing or missing lines
  bool have_reference = false;
};

/// Compares `lines` with the reference file at `path` (absent file: nothing
/// compared). Mismatches are reported on stderr.
DigestCheck check_digest(const std::vector<std::string>& lines, const std::string& path);

/// Writes `lines` as the reference at `path`.
bool write_digest(const std::vector<std::string>& lines, const std::string& path);

}  // namespace perfbench
