#include "common/cpus.hpp"

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>

namespace hps {

namespace {

bool parse_u64(std::string_view s, std::uint64_t& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && end == s.data() + s.size();
}

/// The tightest cgroup v2 CPU quota from this process's cgroup up to the
/// root, if any level sets one.
std::optional<int> cgroup_cpu_limit() {
  std::ifstream self("/proc/self/cgroup");
  std::string line;
  std::string path;  // the v2 entry is "0::<path>"
  while (std::getline(self, line))
    if (line.rfind("0::", 0) == 0) path = line.substr(3);
  if (path.empty() || path.front() != '/') return std::nullopt;
  std::optional<int> limit;
  for (;;) {
    std::ifstream f("/sys/fs/cgroup" + (path == "/" ? std::string() : path) + "/cpu.max");
    if (f && std::getline(f, line))
      if (const auto n = parse_cpu_max(line)) limit = std::min(limit.value_or(INT_MAX), *n);
    if (path == "/") return limit;
    path.erase(std::max<std::size_t>(path.rfind('/'), 1));
  }
}

}  // namespace

std::optional<int> parse_cpu_max(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == ' ')) line.remove_suffix(1);
  const std::size_t space = line.find(' ');
  if (space == std::string_view::npos) return std::nullopt;
  std::uint64_t quota = 0;
  std::uint64_t period = 0;
  if (!parse_u64(line.substr(0, space), quota) || !parse_u64(line.substr(space + 1), period) ||
      quota == 0 || period == 0)
    return std::nullopt;  // includes the "max" quota
  return static_cast<int>(std::clamp<std::uint64_t>((quota + period - 1) / period, 1, INT_MAX));
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return std::max(1, CPU_COUNT(&set));
}

int usable_cpus() {
  static const int cpus = [] {
    const int mask = affinity_cpus();
    const std::optional<int> quota = cgroup_cpu_limit();
    return quota ? std::min(mask, *quota) : mask;
  }();
  return cpus;
}

}  // namespace hps
