// Table II: actual execution times (seconds of host wall clock) of the four
// tools on three DOE applications — CMC(1024), LULESH(512), MiniFE(1152) —
// the paper's illustration of typical relative tool costs.
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/runner.hpp"
#include "workloads/generators.hpp"

int main() {
  using namespace hps;
  using core::Scheme;
  bench::print_header("Table II: execution time in seconds", "Table II");

  struct Row {
    const char* app;
    Rank ranks;
    const char* paper;  // paper's Pkt / Flow / Pkt-flow / MFACT seconds
  };
  const Row rows[] = {
      {"CMC", 1024, "172.17 / 22.45 / 25.94 / 1.26"},
      {"LULESH", 512, "941.77 / 208.63 / 110.27 / 3.02"},
      {"MiniFE", 1152, "1608.57 / 929.37 / 367.08 / 35.15"},
  };

  // Each scheme is timed alone: schemes running side by side contend for
  // the memory system and would inflate each other's wall times.
  core::SchemeThreads alone(0);
  core::RunOptions ro;
  ro.scheme_threads = &alone;

  TextTable t;
  t.set_header({"trace", "Pkt", "Flow", "Pkt-flow", "MFACT", "(paper Pkt/Flow/P-f/MFACT)"});
  for (const Row& row : rows) {
    workloads::GenParams gp;
    gp.ranks = row.ranks;
    gp.seed = 2024;
    gp.machine = "cielito";
    gp.iter_factor = 0.1;  // keep the largest runs affordable on one core
    std::fprintf(stderr, "[table2] running %s(%d)...\n", row.app, row.ranks);
    const trace::Trace tr = workloads::generate_app(row.app, gp);
    const core::TraceOutcome o = core::run_all_schemes(tr, ro);
    t.add_row({std::string(row.app) + "(" + std::to_string(row.ranks) + ")",
               fmt_double(o.of(Scheme::kPacket).wall_seconds, 2),
               fmt_double(o.of(Scheme::kFlow).wall_seconds, 2),
               fmt_double(o.of(Scheme::kPacketFlow).wall_seconds, 2),
               fmt_double(o.of(Scheme::kMfact).wall_seconds, 2), row.paper});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Absolute seconds differ from the paper (different host, shorter synthetic\n"
              "traces); the ordering MFACT << {flow, packet-flow} < packet is the result\n"
              "under reproduction.\n");
  return 0;
}
