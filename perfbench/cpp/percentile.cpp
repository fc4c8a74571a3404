#include "percentile.hpp"

#include <algorithm>

namespace perfbench {

namespace {

double sorted_quantile(const std::vector<double>& s, double q) {
  if (s.empty()) return 0;
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] * (1 - frac) + s[hi] * frac;
}

std::size_t count_above(const std::vector<double>& sorted, double v) {
  return static_cast<std::size_t>(sorted.end() -
                                  std::upper_bound(sorted.begin(), sorted.end(), v));
}

}  // namespace

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return sorted_quantile(samples, 0.5);
}

Percentile tail_percentile(std::vector<double> samples, double nominal_pct) {
  constexpr std::size_t min_beyond = 10;
  std::sort(samples.begin(), samples.end());
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  p.pct = nominal_pct;
  p.value = sorted_quantile(samples, nominal_pct / 100.0);
  p.beyond = count_above(samples, p.value);
  if (p.beyond >= min_beyond) return p;
  const std::size_t n = samples.size();
  if (n <= min_beyond) {
    p.pct = 100;
    p.value = samples.back();
  } else {
    p.pct = 100.0 * static_cast<double>(n - min_beyond) / static_cast<double>(n);
    p.value = samples[n - min_beyond - 1];
  }
  p.beyond = count_above(samples, p.value);
  return p;
}

}  // namespace perfbench
