// perfbench: runs one workload of the repository benchmark and prints its
// result, with every metric it measured, as the last line of standard
// output. perfbench/run.py builds this binary, calls it, and keeps the
// metrics BENCHMARK.json declares; perfbench/README.md documents them.
//
// Usage:
//   perfbench --workload corpus-sim|corpus-model|serve-mixed [--seed N]
//             [--seconds S] [--trace 0|1] [--reference-dir DIR]
//             [--work-dir DIR] [--spans FILE] [--write-reference]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--write-reference") {
      opts.write_reference = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") opts.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") opts.seconds = std::atof(v);
    else if (a == "--trace") opts.trace = std::atoi(v) != 0;
    else if (a == "--reference-dir") opts.reference_dir = v;
    else if (a == "--work-dir") opts.work_dir = v;
    else if (a == "--spans") opts.spans_path = v;
    else return usage(("unknown flag " + a).c_str());
  }

  RunResult r;
  try {
    if (workload == "corpus-sim") r = run_corpus_sim(opts);
    else if (workload == "corpus-model") r = run_corpus_model(opts);
    else if (workload == "serve-mixed") r = run_serve_mixed(opts);
    else return usage(("unknown workload '" + workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }

  if (opts.trace) add_host_context(r.per_layer);
  std::printf("%s\n", result_json(r, opts.trace ? r.per_layer : r.end_to_end).c_str());
  return 0;
}
