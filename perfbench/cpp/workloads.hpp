// The benchmark's three workloads. perfbench/README.md gives the reason for
// each, every metric it reports, and which end-to-end metric each layer
// metric should move.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

/// The benchmark's default seed, the one reference digests are kept for
/// alongside any others in perfbench/reference.
inline constexpr std::uint64_t kDefaultSeed = 42;

struct Options {
  std::uint64_t seed = kDefaultSeed;
  /// Measurement window. The study workloads repeat whole passes while time
  /// is left (at least one); serve-mixed offers load for exactly this long.
  double seconds = 10;
  bool trace = false;
  /// Directory of reference digests; empty = invariant checks only.
  std::string reference_dir;
  /// Scratch directory inside the checkout (serve-mixed socket and spill).
  std::string work_dir = ".";
  /// Traced runs write their spans here at exit; empty = keep them in memory.
  std::string spans_path;
  /// Rewrite the reference digest for this seed instead of checking it. For
  /// deliberate prediction changes only; say so where the change lands.
  bool write_reference = false;
  /// Study workloads: use only the first N specs of the workload's corpus
  /// (0 = all), so the unit tests stay short. A shortened run checks
  /// invariants, never a reference.
  int max_specs = 0;
};

RunResult run_corpus_sim(const Options& opts);
RunResult run_corpus_model(const Options& opts);
RunResult run_serve_mixed(const Options& opts);

}  // namespace perfbench
