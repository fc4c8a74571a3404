// How many CPUs this process may run on, as opposed to how many the machine
// has: std::thread::hardware_concurrency() counts online CPUs and ignores
// both the affinity mask (taskset, cpusets) and a cgroup CPU quota
// (container limits), so thread pools sized by it oversubscribe a
// restricted process.
#pragma once

#include <optional>
#include <string_view>

namespace hps {

/// CPUs allowed by one cgroup v2 `cpu.max` line, "<quota> <period>" in
/// microseconds: ceil(quota / period), at least 1. nullopt when the quota is
/// "max" (no limit) or the line does not parse.
std::optional<int> parse_cpu_max(std::string_view line);

/// CPUs in the calling thread's affinity mask; hardware_concurrency() (at
/// least 1) when the mask cannot be read.
int affinity_cpus();

/// CPUs this process may use: affinity_cpus() capped by the tightest cgroup
/// v2 quota on the path from its cgroup to the root. Read once, on the first
/// call; later calls return the cached count.
int usable_cpus();

}  // namespace hps
