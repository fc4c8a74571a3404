// Order statistics the benchmark reports: medians of repeated measurements
// and latency tails under the "ten samples beyond" rule.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Linearly interpolated median; 0 when there are no samples.
double median(std::vector<double> samples);

/// A latency percentile together with the sample support behind it.
struct Percentile {
  double pct = 0;           ///< the percentile actually reported, 0-100
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;   ///< samples strictly greater than `value`
};

/// The tail rule: report the nominal percentile when at least 10 samples lie
/// beyond it; otherwise report the highest percentile that still has 10
/// samples beyond it (the sample with exactly 10 above it). With 10 or fewer
/// samples the maximum is reported, at 100%, with nothing beyond it.
Percentile tail_percentile(std::vector<double> samples, double nominal_pct);

}  // namespace perfbench
