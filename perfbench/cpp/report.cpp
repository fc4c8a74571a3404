#include "report.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include <sys/resource.h>

#include "telemetry/export.hpp"

namespace perfbench {

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;  // JSON has no NaN/Inf; callers avoid them
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string result_json(const RunResult& r, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += first ? "" : ", ";
    out += quoted(name) + ": {\"value\": " + number(m.value) + ", \"unit\": " + quoted(m.unit) +
           "}";
    first = false;
  }
  return out + "}}";
}

double peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void add_host_context(Metrics& m) {
  m["host.nproc"] = {static_cast<double>(std::thread::hardware_concurrency()), "count"};
  double load[1] = {0};
  m["host.loadavg_1m"] = {::getloadavg(load, 1) == 1 ? load[0] : -1, "load"};
  // A fixed dependent integer loop: its time moves with the host's clock
  // and contention, never with this program's code.
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 0x243F6A8885A308D3ull;
  for (int i = 0; i < 50'000'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    asm volatile("" : "+r"(x));  // one multiply-add per iteration, never folded
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0).count();
  m["host.calib_ns"] = {ns, "ns"};
}

bool write_spans(const hps::telemetry::Registry& reg, const std::string& path) {
  std::ofstream os(path);
  hps::telemetry::write_chrome_trace(reg.spans(), os);
  return static_cast<bool>(os);
}

std::string hash_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

DigestCheck check_digest(const std::vector<std::string>& lines, const std::string& path) {
  DigestCheck c;
  std::ifstream is(path);
  if (!is) return c;
  c.have_reference = true;
  // "<key> <hash>": split at the last space.
  const auto split = [](const std::string& l) {
    const std::size_t at = l.rfind(' ');
    return at == std::string::npos ? std::pair{l, std::string()}
                                   : std::pair{l.substr(0, at), l.substr(at + 1)};
  };
  std::map<std::string, std::string> ref;
  for (std::string line; std::getline(is, line);)
    if (!line.empty()) ref.insert(split(line));
  for (const std::string& l : lines) {
    ++c.compared;
    const auto [key, hash] = split(l);
    const auto it = ref.find(key);
    if (it == ref.end() || it->second != hash) {
      ++c.mismatched;
      std::fprintf(stderr, "perfbench: digest mismatch: %s (reference: %s)\n", l.c_str(),
                   it == ref.end() ? "none" : it->second.c_str());
    }
    if (it != ref.end()) ref.erase(it);
  }
  // A reference line the run did not produce is a lost prediction.
  for (const auto& [key, hash] : ref) {
    ++c.mismatched;
    std::fprintf(stderr, "perfbench: reference line not produced: %s %s\n", key.c_str(),
                 hash.c_str());
  }
  return c;
}

bool write_digest(const std::vector<std::string>& lines, const std::string& path) {
  std::ofstream os(path);
  for (const std::string& l : lines) os << l << '\n';
  return static_cast<bool>(os);
}

}  // namespace perfbench
