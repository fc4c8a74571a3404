// Observability companion to the study pipeline: produce and interrogate run
// ledgers, and export per-rank virtual-time Chrome traces for any corpus
// trace under any scheme.
//
// Subcommands:
//   run       run a (small) corpus study and append its JSON-lines ledger
//   timeline  replay one corpus trace under one scheme, write a Chrome trace
//   top       rank a ledger's traces by DIFF_total with component attribution
//   accuracy  per-(app, scheme) accuracy table from one ledger
//   diff      compare two ledgers; non-zero exit on regressions (CI gate)
//   check     alias for diff (reads naturally in CI: `inspect check golden new`)
//   serve     run hpcsweepd: the prediction daemon (docs/serving.md)
//   request   client for a running hpcsweepd (study / ping / stats / shutdown)
//   metrics   scrape a running hpcsweepd as Prometheus text exposition
//   watch     live terminal dashboard over a running hpcsweepd
//   cost      measured-cost model per (trace class x scheme), from a serve
//             ledger or a live daemon
//   fsck      offline integrity check / repair of durable state: cache
//             spill file, study journal, serve ledger
//
// Exit codes: 0 success / no divergence, 1 divergence or runtime error,
// 2 usage error, 3 request rejected by the daemon (backpressure / draining /
// bad request), 4 end-to-end deadline expired, 5 client circuit breaker open,
// 6 client socket timeout (request may still be executing server-side),
// 75 study interrupted by SIGINT/SIGTERM (resumable).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/error.hpp"
#include "core/runner.hpp"
#include "core/study.hpp"
#include "machine/machine.hpp"
#include "mfact/classify.hpp"
#include "obs/inspect.hpp"
#include "obs/jsonl.hpp"
#include "obs/ledger.hpp"
#include "obs/serve_ledger.hpp"
#include "obs/timeline.hpp"
#include "robust/interrupt.hpp"
#include "robust/journal.hpp"
#include "serve/client.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/spill.hpp"
#include "simmpi/replayer.hpp"
#include "workloads/corpus.hpp"

namespace {

using namespace hps;

int usage() {
  std::fprintf(
      stderr,
      "usage: hpcsweep_inspect <subcommand> [args]\n"
      "\n"
      "  run --out <ledger.jsonl> [--limit N] [--duration-scale X] [--seed S]\n"
      "      [--threads N] [--cache <path>] [--journal <path>] [--deadline SECONDS]\n"
      "      [--max-events N] [--horizon-ns N] [--allow-degraded]\n"
      "      [--isolate thread|process] [--workers N] [--retries R]\n"
      "      [--rss-limit-mb M] [--watchdog SECONDS]\n"
      "      Run the corpus study (all four schemes) and append its ledger.\n"
      "      --journal enables crash-safe resume: a killed run restarted with\n"
      "      the same options recomputes only the missing traces. The budget\n"
      "      flags cap each scheme run (wall clock / DES events / virtual time);\n"
      "      exceeding one degrades that scheme to a budget failure. Exits 1 if\n"
      "      any scheme degraded (crashed, OOMed, deadlocked, over budget)\n"
      "      unless --allow-degraded.\n"
      "      --isolate process forks a pool of worker processes (sized by\n"
      "      --workers, falling back to --threads) so a SIGSEGV/abort/OOM in\n"
      "      one trace is contained: the trace is retried up to --retries\n"
      "      times with backoff, then quarantined as fail_kind=crash/timeout\n"
      "      (its terminating signal recorded in the ledger) while the rest\n"
      "      of the sweep completes. --rss-limit-mb caps each worker's\n"
      "      address space; --watchdog hard-kills workers silent that long.\n"
      "      Healthy-trace results are byte-identical to thread mode.\n"
      "      SIGINT/SIGTERM interrupts a run gracefully: unfinished traces\n"
      "      are marked skipped, the journal is kept for resume, and the\n"
      "      exit code is 75.\n"
      "\n"
      "  timeline --spec N --scheme mfact|packet|flow|packet-flow --out <trace.json>\n"
      "      [--duration-scale X] [--seed S]\n"
      "      Replay corpus trace N under one scheme, recording per-rank (and\n"
      "      per-link) intervals in virtual time; write Chrome trace_event JSON\n"
      "      loadable in chrome://tracing or ui.perfetto.dev.\n"
      "\n"
      "  top <ledger.jsonl> [--n 10]\n"
      "      The N most model-divergent (trace, scheme) pairs, with per-component\n"
      "      virtual-time attribution next to MFACT's decomposition.\n"
      "\n"
      "  accuracy <ledger.jsonl> [--threshold 0.02]\n"
      "      Per-(app, scheme) accuracy: mean/max DIFF_total, share within\n"
      "      threshold.\n"
      "\n"
      "  diff|check <before.jsonl> <after.jsonl> [--tolerance 0.02]\n"
      "      [--wall-tolerance X] [--max-report N] [--allow-degraded]\n"
      "      Record-by-record regression diff; exits 1 when any prediction moved\n"
      "      beyond tolerance, records appear/disappear, or the after-side\n"
      "      ledger holds degraded records (unless --allow-degraded). Prints\n"
      "      per-fail_kind counts.\n"
      "\n"
      "  serve --socket <path> [--tcp PORT] [--dispatchers N] [--queue N]\n"
      "      [--max-conns N] [--cache-mb M] [--cache-dir DIR] [--cache-fsync]\n"
      "      [--scrub-interval-ms MS] [--threads N]\n"
      "      [--isolate thread|process] [--workers N]\n"
      "      [--retries R] [--rss-limit-mb M] [--watchdog SECONDS]\n"
      "      [--max-duration-scale X] [--max-limit N]\n"
      "      [--deadline S] [--max-events N] [--horizon-ns N]\n"
      "      [--serve-ledger <path>] [--trace-out <path>]\n"
      "      [--shed-target-ms T] [--shed-interval-ms I] [--slow-read-ms S]\n"
      "      Run hpcsweepd: accept study requests over the Unix socket (and\n"
      "      127.0.0.1:PORT with --tcp), execute them on up to --dispatchers\n"
      "      concurrent study runners (thread pools, or supervised worker\n"
      "      processes under --isolate process), share results through an\n"
      "      in-memory LRU cache of --cache-mb megabytes, and reject work\n"
      "      beyond --queue pending studies (or --max-conns connections)\n"
      "      with explicit backpressure.\n"
      "      The budget flags are *ceilings* clamped onto every request.\n"
      "      --serve-ledger appends one JSON-lines record per request (trace\n"
      "      id, disposition, per-phase wall latency) plus a cost-model footer\n"
      "      on drain; --trace-out writes the per-request span timeline as\n"
      "      Chrome trace JSON on drain.\n"
      "      --shed-target-ms enables CoDel-style queue-delay shedding: once\n"
      "      dequeue delay stays above T for I ms, over-target work is shed\n"
      "      (kQueueFull on the wire) until delay recovers. --slow-read-ms\n"
      "      caps how long a partial request frame may dribble in before the\n"
      "      connection is rejected (slowloris guard).\n"
      "      --cache-dir makes the result cache crash-durable: entries spill\n"
      "      to an append-only CRC-framed file under DIR, recovered (and\n"
      "      corrupt records quarantined) on the next start so a restart on\n"
      "      the same DIR comes back warm. --cache-fsync fsyncs each spill\n"
      "      append (power-loss durability at a latency cost); a background\n"
      "      scrubber re-verifies on-disk CRCs every --scrub-interval-ms\n"
      "      (default 5000, 0 disables). See docs/serving.md.\n"
      "      SIGINT/SIGTERM drains gracefully; shutdown requests are only\n"
      "      honored on the Unix socket. See docs/serving.md.\n"
      "\n"
      "  request --socket <path> | --tcp-host H --tcp-port P\n"
      "      [--limit N] [--duration-scale X] [--seed S] [--deadline S]\n"
      "      [--max-events N] [--horizon-ns N] [--out <ledger.jsonl>] [--force]\n"
      "      [--allow-degraded] [--ping] [--stats] [--shutdown]\n"
      "      [--deadline-ms D] [--timeout-ms T] [--retries R] [--backoff-ms B]\n"
      "      [--breaker-failures N] [--breaker-cooldown-ms C]\n"
      "      Send one request to a running hpcsweepd and stream the reply;\n"
      "      --out appends the returned ledger records to a file.\n"
      "      --deadline-ms sets an end-to-end deadline the daemon charges\n"
      "      queue wait against (expired requests come back status=expired;\n"
      "      the daemon may degrade to an MFACT-only study to fit the budget).\n"
      "      The remaining flags configure the resilient client: socket\n"
      "      timeout, jittered exponential-backoff retries on backpressure\n"
      "      and connect failures (never after a socket timeout), and a\n"
      "      per-endpoint circuit breaker. --socket may repeat: additional\n"
      "      sockets are failover endpoints tried in order when the\n"
      "      preferred daemon is down or draining.\n"
      "      Exits 0 on success, 1 degraded/error, 3 rejected (queue full /\n"
      "      draining / bad request), 4 deadline expired, 5 circuit breaker\n"
      "      open, 6 socket timeout (request may still be executing), 75 when\n"
      "      the daemon was interrupted mid-study.\n"
      "\n"
      "  metrics --socket <path> | --tcp-host H --tcp-port P\n"
      "      One live-metrics scrape of a running hpcsweepd, rendered as\n"
      "      Prometheus text exposition (0.0.4): request counters, cache and\n"
      "      queue gauges, per-phase / per-trace-class latency histograms,\n"
      "      and the measured-cost totals.\n"
      "\n"
      "  watch --socket <path> | --tcp-host H --tcp-port P\n"
      "      [--interval SECONDS] [--iterations N]\n"
      "      Live terminal dashboard: qps, in-flight/queued studies, cache\n"
      "      hit ratio, rejects, and p50/p99/p99.9 per serving phase,\n"
      "      refreshed every --interval (default 2) seconds. --iterations 0\n"
      "      (the default) runs until interrupted.\n"
      "\n"
      "  cost <serve-ledger.jsonl> | --socket <path> | --tcp-host H --tcp-port P\n"
      "      Measured-cost model: wall seconds per (MFACT trace class x\n"
      "      scheme), from a serve ledger's drain footer or a live daemon.\n"
      "\n"
      "  fsck [--cache-dir DIR] [--journal <path>] [--serve-ledger <path>]\n"
      "      [--repair]\n"
      "      Offline integrity check of hpcsweepd's durable state: the cache\n"
      "      spill file (per-record CRC + schema walk), a study journal\n"
      "      (CRC frame walk), and a serve ledger (JSON-lines parse). With\n"
      "      --repair: corrupt spill regions move to the .quarantine sidecar\n"
      "      and a clean spill file is rewritten, a journal's torn tail is\n"
      "      truncated, and the ledger is rewritten keeping only intact\n"
      "      lines. Exits 0 when clean (or fully repaired), 1 when damage\n"
      "      remains, 2 on usage error. Run it on a stopped daemon's files;\n"
      "      a live daemon scrubs and compacts on its own.\n");
  return 2;
}

bool want(const char* arg, const char* name) { return std::strcmp(arg, name) == 0; }

/// Parse "--flag value" pairs; returns false (usage error) on an unknown flag
/// or a flag missing its value.
struct Flags {
  std::vector<std::string> positional;
  bool ok = true;

  std::string out;
  std::string cache;
  std::string journal;
  double deadline = 0;
  std::uint64_t max_events = 0;
  std::int64_t horizon_ns = 0;
  bool allow_degraded = false;
  int limit = 0;
  int spec = -1;
  int threads = 0;
  std::size_t n = 10;
  std::uint64_t seed = 42;
  double duration_scale = 0.1;
  double threshold = 0.02;
  std::string scheme;
  std::string isolate = "thread";
  int workers = 0;
  int retries = 1;
  long rss_limit_mb = 0;
  double watchdog = 0;
  obs::DiffOptions diff;

  // serve / request
  std::string socket_path;
  int tcp = -1;  ///< serve: -1 off, 0 ephemeral, else port
  std::string tcp_host;
  int tcp_port = 0;
  int dispatchers = 2;
  int queue = 16;
  int max_conns = 256;
  double cache_mb = 64;
  double max_duration_scale = 1.0;
  int max_limit = 0;
  bool force = false;
  bool ping = false;
  bool stats = false;
  bool shutdown = false;
  std::string serve_ledger;
  std::string trace_out;
  double interval = 2.0;
  int iterations = 0;  ///< watch: 0 = until interrupted

  // serve: overload resilience (docs/serving.md)
  double shed_target_ms = 0;     ///< 0 = shedding disabled
  double shed_interval_ms = 100;
  double slow_read_ms = 5000;

  // serve: durable cache (docs/serving.md); fsck
  std::string cache_dir;
  bool cache_fsync = false;
  double scrub_interval_ms = 5000;
  bool repair = false;

  // request: every --socket in order; [0] == socket_path, rest are failover
  std::vector<std::string> sockets;

  // request: end-to-end deadline + resilient-client policy
  std::uint64_t deadline_ms = 0;       ///< 0 = no end-to-end deadline
  double timeout_ms = 0;               ///< socket deadline (0 = none)
  double backoff_ms = 50;              ///< first retry delay
  int breaker_failures = 5;            ///< consecutive failures → open
  double breaker_cooldown_ms = 1000;
};

Flags parse_flags(int argc, char** argv, int first) {
  Flags f;
  for (int i = first; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        f.ok = false;
        return "";
      }
      return argv[++i];
    };
    if (want(a, "--out")) {
      f.out = next();
    } else if (want(a, "--cache")) {
      f.cache = next();
    } else if (want(a, "--journal")) {
      f.journal = next();
    } else if (want(a, "--deadline")) {
      f.deadline = std::atof(next());
    } else if (want(a, "--max-events")) {
      f.max_events = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (want(a, "--horizon-ns")) {
      f.horizon_ns = std::atoll(next());
    } else if (want(a, "--allow-degraded")) {
      f.allow_degraded = true;
      f.diff.allow_degraded = true;
    } else if (want(a, "--limit")) {
      f.limit = std::atoi(next());
    } else if (want(a, "--spec")) {
      f.spec = std::atoi(next());
    } else if (want(a, "--threads")) {
      f.threads = std::atoi(next());
    } else if (want(a, "--n")) {
      f.n = static_cast<std::size_t>(std::atoll(next()));
    } else if (want(a, "--seed")) {
      f.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (want(a, "--duration-scale")) {
      f.duration_scale = std::atof(next());
    } else if (want(a, "--threshold")) {
      f.threshold = std::atof(next());
    } else if (want(a, "--scheme")) {
      f.scheme = next();
    } else if (want(a, "--isolate")) {
      f.isolate = next();
    } else if (want(a, "--workers")) {
      f.workers = std::atoi(next());
    } else if (want(a, "--retries")) {
      f.retries = std::atoi(next());
    } else if (want(a, "--rss-limit-mb")) {
      f.rss_limit_mb = std::atol(next());
    } else if (want(a, "--watchdog")) {
      f.watchdog = std::atof(next());
    } else if (want(a, "--socket")) {
      const char* v = next();
      if (f.socket_path.empty()) f.socket_path = v;
      f.sockets.push_back(v);
    } else if (want(a, "--tcp")) {
      f.tcp = std::atoi(next());
    } else if (want(a, "--tcp-host")) {
      f.tcp_host = next();
    } else if (want(a, "--tcp-port")) {
      f.tcp_port = std::atoi(next());
    } else if (want(a, "--dispatchers")) {
      f.dispatchers = std::atoi(next());
    } else if (want(a, "--queue")) {
      f.queue = std::atoi(next());
    } else if (want(a, "--max-conns")) {
      f.max_conns = std::atoi(next());
    } else if (want(a, "--cache-mb")) {
      f.cache_mb = std::atof(next());
    } else if (want(a, "--max-duration-scale")) {
      f.max_duration_scale = std::atof(next());
    } else if (want(a, "--max-limit")) {
      f.max_limit = std::atoi(next());
    } else if (want(a, "--force")) {
      f.force = true;
    } else if (want(a, "--ping")) {
      f.ping = true;
    } else if (want(a, "--stats")) {
      f.stats = true;
    } else if (want(a, "--shutdown")) {
      f.shutdown = true;
    } else if (want(a, "--serve-ledger")) {
      f.serve_ledger = next();
    } else if (want(a, "--trace-out")) {
      f.trace_out = next();
    } else if (want(a, "--shed-target-ms")) {
      f.shed_target_ms = std::atof(next());
    } else if (want(a, "--shed-interval-ms")) {
      f.shed_interval_ms = std::atof(next());
    } else if (want(a, "--slow-read-ms")) {
      f.slow_read_ms = std::atof(next());
    } else if (want(a, "--cache-dir")) {
      f.cache_dir = next();
    } else if (want(a, "--cache-fsync")) {
      f.cache_fsync = true;
    } else if (want(a, "--scrub-interval-ms")) {
      f.scrub_interval_ms = std::atof(next());
    } else if (want(a, "--repair")) {
      f.repair = true;
    } else if (want(a, "--deadline-ms")) {
      f.deadline_ms = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (want(a, "--timeout-ms")) {
      f.timeout_ms = std::atof(next());
    } else if (want(a, "--backoff-ms")) {
      f.backoff_ms = std::atof(next());
    } else if (want(a, "--breaker-failures")) {
      f.breaker_failures = std::atoi(next());
    } else if (want(a, "--breaker-cooldown-ms")) {
      f.breaker_cooldown_ms = std::atof(next());
    } else if (want(a, "--interval")) {
      f.interval = std::atof(next());
    } else if (want(a, "--iterations")) {
      f.iterations = std::atoi(next());
    } else if (want(a, "--tolerance")) {
      f.diff.tolerance = std::atof(next());
    } else if (want(a, "--wall-tolerance")) {
      f.diff.wall_tolerance = std::atof(next());
    } else if (want(a, "--max-report")) {
      f.diff.max_report = static_cast<std::size_t>(std::atoll(next()));
    } else if (a[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      f.ok = false;
    } else {
      f.positional.push_back(a);
    }
  }
  return f;
}

int cmd_run(const Flags& f) {
  if (f.out.empty()) {
    std::fprintf(stderr, "run: --out <ledger.jsonl> is required\n");
    return 2;
  }
  core::StudyOptions opts;
  opts.corpus.seed = f.seed;
  opts.corpus.duration_scale = f.duration_scale;
  opts.corpus.limit = f.limit;
  opts.threads = f.threads;
  opts.cache_path = f.cache;  // empty = always compute, so the ledger appends
  opts.ledger_path = f.out;
  opts.journal_path = f.journal;
  opts.run.budget.wall_deadline_seconds = f.deadline;
  opts.run.budget.max_des_events = f.max_events;
  opts.run.budget.virtual_horizon = f.horizon_ns;
  opts.progress = true;
  if (f.isolate == "process") {
    opts.isolate = core::IsolateMode::kProcess;
  } else if (f.isolate != "thread") {
    std::fprintf(stderr, "run: --isolate must be thread or process (got %s)\n",
                 f.isolate.c_str());
    return 2;
  }
  if (f.workers > 0) opts.threads = f.workers;  // sizes the process pool too
  opts.retries = f.retries;
  opts.rss_limit_mb = f.rss_limit_mb;
  opts.watchdog_timeout_seconds = f.watchdog;
  const core::StudyResult res = core::run_study(opts);
  std::printf("ran %zu traces (%zu ledger records) in %.1f s -> %s\n",
              res.outcomes.size(),
              res.outcomes.size() * static_cast<std::size_t>(core::Scheme::kNumSchemes),
              res.wall_seconds, f.out.c_str());
  if (res.resumed_from_journal > 0)
    std::printf("resumed %d trace(s) from journal %s\n", res.resumed_from_journal,
                f.journal.c_str());
  if (res.interrupted) {
    std::fprintf(stderr,
                 "interrupted by signal %d: unfinished traces marked skipped; "
                 "rerun with the same options to resume%s\n",
                 res.interrupt_signal,
                 f.journal.empty() ? " (enable --journal to make resume cheap)" : "");
    return hps::robust::kInterruptedExitCode;
  }

  // Degraded-outcome summary: count trace×scheme results per fail_kind and
  // gate the exit code, so CI catches crashed/over-budget schemes even when
  // the study as a whole "succeeded".
  const auto records = core::ledger_records(res.outcomes, core::study_cache_key(opts));
  const std::size_t degraded = obs::degraded_count(records);
  if (degraded > 0) {
    std::printf("%zu degraded record(s):", degraded);
    for (const auto& [kind, n] : obs::fail_kind_counts(records))
      if (kind != "none" && kind != "skipped") std::printf(" %s=%zu", kind.c_str(), n);
    std::printf("%s\n", f.allow_degraded ? " (allowed)" : "");
    if (!f.allow_degraded) return 1;
  }
  return 0;
}

int cmd_timeline(const Flags& f) {
  if (f.spec < 0 || f.out.empty() || f.scheme.empty()) {
    std::fprintf(stderr, "timeline: --spec, --scheme and --out are required\n");
    return 2;
  }
  workloads::CorpusOptions co;
  co.seed = f.seed;
  co.duration_scale = f.duration_scale;
  const auto specs = workloads::build_corpus_specs(co);
  if (f.spec >= static_cast<int>(specs.size())) {
    std::fprintf(stderr, "timeline: --spec %d out of range (corpus has %zu specs)\n",
                 f.spec, specs.size());
    return 2;
  }
  const trace::Trace t = workloads::generate_spec(specs[static_cast<std::size_t>(f.spec)]);
  const machine::MachineConfig mc = machine::machine_by_name(t.meta().machine);

  obs::TimelineRecorder rec;
  SimTime predicted = 0;
  if (f.scheme == "mfact") {
    mfact::ClassifyParams cp;
    cp.mfact.timeline = &rec;
    const auto cl =
        mfact::classify(t, mc.net.link_bandwidth, mc.net.end_to_end_latency, cp);
    predicted = cl.sweep[mfact::kSweepBase].total_time;
  } else {
    simmpi::NetModelKind kind;
    if (f.scheme == "packet") {
      kind = simmpi::NetModelKind::kPacket;
    } else if (f.scheme == "flow") {
      kind = simmpi::NetModelKind::kFlow;
    } else if (f.scheme == "packet-flow") {
      kind = simmpi::NetModelKind::kPacketFlow;
    } else {
      std::fprintf(stderr, "timeline: bad --scheme %s\n", f.scheme.c_str());
      return 2;
    }
    simmpi::ReplayConfig rc;
    rc.timeline = &rec;
    const machine::MachineInstance mi(mc, t.nranks(), t.meta().ranks_per_node);
    const auto rr = simmpi::replay_trace(t, mi, kind, rc);
    predicted = rr.total_time;
  }

  std::ofstream os(f.out);
  if (!os.is_open()) {
    std::fprintf(stderr, "timeline: cannot write %s\n", f.out.c_str());
    return 1;
  }
  rec.write_chrome_trace(os);
  std::printf("spec %d (%s, %d ranks, %s) under %s: predicted %.6f s, "
              "%zu intervals (%llu dropped) -> %s\n",
              f.spec, t.meta().app.c_str(), t.nranks(), t.meta().machine.c_str(),
              f.scheme.c_str(), time_to_seconds(predicted), rec.intervals().size(),
              static_cast<unsigned long long>(rec.dropped()), f.out.c_str());
  return 0;
}

int cmd_top(const Flags& f) {
  if (f.positional.size() != 1) {
    std::fprintf(stderr, "top: expected one ledger path\n");
    return 2;
  }
  const auto records = obs::load_ledger(f.positional[0]);
  const auto top = obs::top_divergent(records, f.n);
  obs::render_top(std::cout, top);
  return 0;
}

int cmd_accuracy(const Flags& f) {
  if (f.positional.size() != 1) {
    std::fprintf(stderr, "accuracy: expected one ledger path\n");
    return 2;
  }
  const auto records = obs::load_ledger(f.positional[0]);
  obs::render_accuracy(std::cout, records, f.threshold);
  return 0;
}

int cmd_serve(const Flags& f) {
  if (f.socket_path.empty()) {
    std::fprintf(stderr, "serve: --socket <path> is required\n");
    return 2;
  }
  serve::ServerOptions so;
  so.socket_path = f.socket_path;
  so.tcp_port = f.tcp;
  so.dispatchers = f.dispatchers;
  so.queue_capacity = static_cast<std::size_t>(std::max(1, f.queue));
  so.max_connections = static_cast<std::size_t>(std::max(1, f.max_conns));
  so.cache_bytes = static_cast<std::size_t>(f.cache_mb * 1024.0 * 1024.0);
  so.threads_per_study = f.workers > 0 ? f.workers : f.threads;
  if (f.isolate == "process") {
    so.isolate = core::IsolateMode::kProcess;
  } else if (f.isolate != "thread") {
    std::fprintf(stderr, "serve: --isolate must be thread or process (got %s)\n",
                 f.isolate.c_str());
    return 2;
  }
  so.retries = f.retries;
  so.rss_limit_mb = f.rss_limit_mb;
  so.watchdog_timeout_s = f.watchdog;
  so.max_duration_scale = f.max_duration_scale;
  so.max_limit = f.max_limit;
  so.max_wall_deadline_s = f.deadline;
  so.max_des_events = f.max_events;
  so.max_virtual_horizon_ns = f.horizon_ns;
  so.serve_ledger_path = f.serve_ledger;
  so.trace_path = f.trace_out;
  so.shed_target_ms = f.shed_target_ms;
  so.shed_interval_ms = f.shed_interval_ms;
  so.slow_read_timeout_ms = f.slow_read_ms;
  so.cache_dir = f.cache_dir;
  so.cache_fsync = f.cache_fsync;
  so.scrub_interval_ms = f.scrub_interval_ms;

  serve::Server server(std::move(so));
  std::printf("hpcsweepd: listening on %s", f.socket_path.c_str());
  if (server.tcp_port() >= 0) std::printf(" and 127.0.0.1:%d", server.tcp_port());
  std::printf(" (%d dispatcher(s), queue %d, cache %.0f MB, isolate %s)\n",
              f.dispatchers, f.queue, f.cache_mb, f.isolate.c_str());
  if (!f.cache_dir.empty())
    std::printf("hpcsweepd: durable cache in %s (fsync %s, scrub every %.0f ms)\n",
                f.cache_dir.c_str(), f.cache_fsync ? "on" : "off", f.scrub_interval_ms);
  std::fflush(stdout);
  server.run();
  const serve::Stats st = server.stats();
  std::printf("hpcsweepd: drained — %s\n", serve::stats_to_json(st).c_str());
  return 0;
}

int cmd_request(const Flags& f) {
  if (f.socket_path.empty() && f.tcp_host.empty()) {
    std::fprintf(stderr, "request: --socket <path> or --tcp-host/--tcp-port required\n");
    return 2;
  }
  serve::ClientPolicy policy;
  policy.timeout_ms = f.timeout_ms;
  policy.max_retries = f.retries;
  policy.backoff_ms = f.backoff_ms;
  policy.jitter_seed = f.seed;
  policy.breaker_failures = f.breaker_failures;
  policy.breaker_cooldown_ms = f.breaker_cooldown_ms;
  std::vector<serve::Endpoint> eps;
  for (const std::string& s : f.sockets) eps.push_back({false, s, 0});
  if (eps.empty()) eps.push_back({true, f.tcp_host, f.tcp_port});
  serve::ResilientClient rc = serve::ResilientClient::endpoints(std::move(eps), policy);
  if (f.ping) {
    serve::Client client = rc.connect_once();
    const bool ok = client.ping();
    std::printf("%s\n", ok ? "pong" : "no pong");
    return ok ? 0 : 1;
  }
  if (f.stats) {
    std::printf("%s\n", serve::stats_to_json(rc.connect_once().stats()).c_str());
    return 0;
  }
  if (f.shutdown) {
    const serve::Summary s = rc.connect_once().shutdown_server();
    std::printf("shutdown: %s\n", serve::status_name(s.status));
    return s.status == serve::Status::kOk ? 0 : 1;
  }

  serve::Request req;
  req.kind = serve::Request::Kind::kStudy;
  req.seed = f.seed;
  req.duration_scale = f.duration_scale;
  req.limit = f.limit;
  req.force_recompute = f.force;
  req.wall_deadline_s = f.deadline;
  req.max_des_events = f.max_events;
  req.virtual_horizon_ns = f.horizon_ns;
  req.deadline_ms = f.deadline_ms;

  std::ofstream out;
  if (!f.out.empty()) {
    out.open(f.out, std::ios::app);
    if (!out.is_open()) {
      std::fprintf(stderr, "request: cannot write %s\n", f.out.c_str());
      return 1;
    }
  }
  serve::Client::StudyReply reply;
  try {
    reply = rc.study(req, [&](const std::string& line) {
      if (out.is_open()) out << line << '\n';
    });
  } catch (const serve::CircuitOpenError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 5;
  } catch (const serve::TimeoutError& e) {
    std::fprintf(stderr, "error: %s (request may still be executing server-side)\n",
                 e.what());
    return 6;
  }
  const serve::Summary& s = reply.summary;
  std::printf("%s: %u record(s)%s%s%s, wall %.3f s%s\n", serve::status_name(s.status),
              s.records, s.cache_hit ? " (cache hit)" : "",
              s.degraded > 0 ? (" (" + std::to_string(s.degraded) + " degraded)").c_str()
                             : "",
              s.mfact_fallback ? " [mfact fallback]" : "",
              s.wall_seconds, f.out.empty() ? "" : (" -> " + f.out).c_str());
  if (!s.detail.empty()) std::printf("  %s\n", s.detail.c_str());
  if (rc.last_attempts() > 1)
    std::printf("  (%d attempts, breaker %s)\n", rc.last_attempts(),
                serve::ResilientClient::breaker_name(rc.breaker_state()));
  if (rc.failovers() > 0 || rc.draining_retries() > 0)
    std::printf("  (%d failover(s), %d draining retry(ies))\n", rc.failovers(),
                rc.draining_retries());

  switch (s.status) {
    case serve::Status::kOk:
      return 0;
    case serve::Status::kDegraded:
      return f.allow_degraded ? 0 : 1;
    case serve::Status::kInterrupted:
      return hps::robust::kInterruptedExitCode;
    case serve::Status::kQueueFull:
    case serve::Status::kDraining:
    case serve::Status::kOversized:
    case serve::Status::kBadRequest:
      return 3;
    case serve::Status::kExpired:
      return 4;
    case serve::Status::kError:
      return 1;
  }
  return 1;
}

serve::Client connect_client(const Flags& f) {
  return f.socket_path.empty() ? serve::Client::connect_tcp(f.tcp_host, f.tcp_port)
                               : serve::Client::connect_unix(f.socket_path);
}

int cmd_metrics(const Flags& f) {
  if (f.socket_path.empty() && f.tcp_host.empty()) {
    std::fprintf(stderr, "metrics: --socket <path> or --tcp-host/--tcp-port required\n");
    return 2;
  }
  serve::Client client = connect_client(f);
  std::fputs(serve::render_prometheus(client.metrics()).c_str(), stdout);
  return 0;
}

int cmd_watch(const Flags& f) {
  if (f.socket_path.empty() && f.tcp_host.empty()) {
    std::fprintf(stderr, "watch: --socket <path> or --tcp-host/--tcp-port required\n");
    return 2;
  }
  const double interval = f.interval > 0 ? f.interval : 2.0;
  serve::Client client = connect_client(f);
  serve::MetricsReply prev;
  bool have_prev = false;
  const bool tty = ::isatty(STDOUT_FILENO) == 1;
  for (int i = 0; f.iterations <= 0 || i < f.iterations; ++i) {
    if (i > 0)
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<long>(interval * 1000)));
    const serve::MetricsReply m = client.metrics();
    if (tty) std::fputs("\x1b[2J\x1b[H", stdout);  // clear + home, like watch(1)
    std::fputs(serve::render_dashboard(m, have_prev ? &prev : nullptr, interval).c_str(),
               stdout);
    std::fflush(stdout);
    prev = m;
    have_prev = true;
  }
  return 0;
}

int cmd_cost(const Flags& f) {
  std::vector<obs::CostCell> cells;
  if (!f.positional.empty()) {
    cells = obs::load_serve_ledger(f.positional[0]).costs;
  } else if (!f.socket_path.empty() || !f.tcp_host.empty()) {
    cells = connect_client(f).metrics().costs;
  } else {
    std::fprintf(stderr,
                 "cost: expected <serve-ledger.jsonl> or --socket/--tcp-host\n");
    return 2;
  }
  if (cells.empty()) {
    std::printf("no cost cells (no study computed yet)\n");
    return 0;
  }
  std::printf("%-22s %-12s %8s %14s %14s\n", "class", "scheme", "runs", "wall-total-s",
              "mean-s");
  for (const obs::CostCell& c : cells)
    std::printf("%-22s %-12s %8llu %14.6f %14.6f\n", c.app_class.c_str(),
                c.scheme.c_str(), static_cast<unsigned long long>(c.count),
                c.wall_seconds, c.mean_seconds());
  return 0;
}

// --- fsck: offline validation / repair of durable serving state -----------

int cmd_fsck(const Flags& f) {
  if (f.cache_dir.empty() && f.journal.empty() && f.serve_ledger.empty()) {
    std::fprintf(stderr,
                 "fsck: nothing to check (give --cache-dir, --journal, or "
                 "--serve-ledger)\n");
    return 2;
  }
  bool damage = false;      // anything wrong found anywhere
  bool unrepaired = false;  // damage that survives this invocation

  if (!f.cache_dir.empty()) {
    const std::string path = serve::spill_path(f.cache_dir);
    const serve::SpillScan scan = serve::scan_spill_file(path);
    if (!scan.existed) {
      std::printf("cache  %s: missing (nothing to check)\n", path.c_str());
    } else {
      const bool bad = !scan.header_ok || !scan.quarantine.empty() || scan.torn_bytes > 0;
      std::printf("cache  %s: %zu record(s), %zu corrupt region(s), %llu torn byte(s)%s\n",
                  path.c_str(), scan.records.size(), scan.quarantine.size(),
                  static_cast<unsigned long long>(scan.torn_bytes),
                  scan.header_ok ? "" : " [bad header]");
      if (bad) {
        damage = true;
        if (f.repair) {
          serve::append_quarantine(serve::quarantine_path(f.cache_dir), scan.quarantine);
          serve::write_spill_file(path, scan.records);
          std::printf("cache  %s: repaired — %zu region(s) quarantined, clean file "
                      "rewritten with %zu record(s)\n",
                      path.c_str(), scan.quarantine.size(), scan.records.size());
        } else {
          unrepaired = true;
        }
      }
    }
  }

  if (!f.journal.empty()) {
    const robust::JournalScan jf = robust::scan_journal(f.journal);
    if (!jf.existed) {
      std::printf("journal %s: missing (nothing to check)\n", f.journal.c_str());
    } else {
      std::printf("journal %s: %zu record(s), %llu torn byte(s)%s\n", f.journal.c_str(),
                  jf.records.size(), static_cast<unsigned long long>(jf.torn_bytes),
                  jf.header_ok ? "" : " [bad header]");
      if (!jf.header_ok) {
        // No intact prefix to keep; truncating would only destroy evidence.
        damage = true;
        unrepaired = true;
        std::printf("journal %s: header unrepairable (start fresh; a resumed study "
                    "ignores a foreign journal)\n",
                    f.journal.c_str());
      } else if (jf.torn_bytes > 0) {
        damage = true;
        if (f.repair) {
          std::filesystem::resize_file(f.journal, jf.valid_bytes);
          std::printf("journal %s: repaired — torn tail truncated at byte %llu\n",
                      f.journal.c_str(), static_cast<unsigned long long>(jf.valid_bytes));
        } else {
          unrepaired = true;
        }
      }
    }
  }

  if (!f.serve_ledger.empty()) {
    std::ifstream in(f.serve_ledger, std::ios::binary);
    if (!in.is_open()) {
      std::printf("ledger %s: missing (nothing to check)\n", f.serve_ledger.c_str());
    } else {
      std::vector<std::string> good;
      std::size_t bad = 0;
      std::string line;
      while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        try {
          (void)obs::jsonl::parse_flat_object(line);
          good.push_back(line);
        } catch (const hps::Error&) {
          ++bad;
        }
      }
      in.close();
      std::printf("ledger %s: %zu intact line(s), %zu corrupt\n", f.serve_ledger.c_str(),
                  good.size(), bad);
      if (bad > 0) {
        damage = true;
        if (f.repair) {
          const std::string tmp = f.serve_ledger + ".fsck-tmp";
          {
            std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
            if (!out.is_open()) throw Error("fsck: cannot write " + tmp);
            for (const std::string& l : good) out << l << '\n';
          }
          std::filesystem::rename(tmp, f.serve_ledger);
          std::printf("ledger %s: repaired — rewritten with the %zu intact line(s)\n",
                      f.serve_ledger.c_str(), good.size());
        } else {
          unrepaired = true;
        }
      }
    }
  }

  if (!damage) {
    std::printf("fsck: clean\n");
    return 0;
  }
  if (unrepaired) {
    std::printf("fsck: damage found%s\n", f.repair ? " (not all repairable)" : " (rerun with --repair)");
    return 1;
  }
  std::printf("fsck: damage found and repaired\n");
  return 0;
}

int cmd_diff(const Flags& f) {
  if (f.positional.size() != 2) {
    std::fprintf(stderr, "diff: expected <before.jsonl> <after.jsonl>\n");
    return 2;
  }
  const auto before = obs::load_ledger(f.positional[0]);
  const auto after = obs::load_ledger(f.positional[1]);
  const auto result = obs::diff_ledgers(before, after, f.diff);
  obs::render_diff(std::cout, result, f.diff);
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const char* cmd = argv[1];
  const Flags f = parse_flags(argc, argv, 2);
  if (!f.ok) return usage();
  try {
    if (want(cmd, "run")) return cmd_run(f);
    if (want(cmd, "timeline")) return cmd_timeline(f);
    if (want(cmd, "top")) return cmd_top(f);
    if (want(cmd, "accuracy")) return cmd_accuracy(f);
    if (want(cmd, "diff") || want(cmd, "check")) return cmd_diff(f);
    if (want(cmd, "serve")) return cmd_serve(f);
    if (want(cmd, "request")) return cmd_request(f);
    if (want(cmd, "metrics")) return cmd_metrics(f);
    if (want(cmd, "watch")) return cmd_watch(f);
    if (want(cmd, "cost")) return cmd_cost(f);
    if (want(cmd, "fsck")) return cmd_fsck(f);
  } catch (const hps::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand: %s\n", cmd);
  return usage();
}
