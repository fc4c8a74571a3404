// The full trade-off study: run every corpus trace through all four schemes,
// in parallel across traces, with a binary result cache so that the several
// bench binaries reproducing different tables/figures of the paper share one
// expensive computation.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "obs/ledger.hpp"
#include "workloads/corpus.hpp"

namespace hps::core {

/// How run_study distributes traces over workers.
enum class IsolateMode {
  kThread,   ///< in-process thread pool (default; fastest)
  kProcess,  ///< forked worker processes: a SIGSEGV/abort/OOM in one trace is
             ///< contained, classified (FailKind::kCrash/kTimeout/kOom), and
             ///< retried instead of killing the whole study
};

struct StudyOptions {
  workloads::CorpusOptions corpus;
  RunOptions run;
  int threads = 0;          ///< 0 = usable_cpus() (capped at 16)
  std::string cache_path;   ///< empty = no caching
  /// Append one JSON-lines obs::LedgerRecord per trace×scheme here whenever
  /// the study is actually computed (cache hits do not re-append). Empty =
  /// no ledger.
  std::string ledger_path;
  bool force_recompute = false;
  bool progress = false;    ///< print one line per completed trace to stderr
  /// Crash-safe journal: every completed TraceOutcome is appended (framed and
  /// CRC-checked, flushed and fsynced per record) as workers finish. If the
  /// process dies mid-study, rerunning with the same options resumes from the
  /// journal, recomputing only the missing specs. Removed after a successful
  /// run. Empty = no journaling.
  std::string journal_path;
  /// Execution isolation. Under kProcess the `threads` field sizes the worker
  /// *process* pool instead of the thread pool; results for healthy traces
  /// are byte-identical to thread mode (wall_seconds aside).
  IsolateMode isolate = IsolateMode::kThread;
  /// Process mode only: extra attempts for a trace whose worker crashed or
  /// timed out, with exponential backoff, before it is quarantined as
  /// FailKind::kCrash/kTimeout.
  int retries = 1;
  /// Process mode only: RLIMIT_AS per worker in MB (0 = unlimited). A trace
  /// that exhausts it fails in-worker with FailKind::kOom instead of taking
  /// the machine down.
  long rss_limit_mb = 0;
  /// Process mode only: hard-kill a worker not heard from (heartbeat or
  /// result) for this long; its trace is retried/quarantined as
  /// FailKind::kTimeout. 0 disables the watchdog.
  double watchdog_timeout_seconds = 0;
  /// Request trace id for serving-path observability (0 = unattributed).
  /// Set as the telemetry trace id for the study's worker threads/processes
  /// so every span they record carries it. Deliberately NOT mixed into
  /// study_cache_key: tracing must never change what gets computed or
  /// cached.
  std::uint64_t trace_id = 0;
};

struct StudyResult {
  std::vector<TraceOutcome> outcomes;  ///< ordered by spec id
  double wall_seconds = 0;
  bool from_cache = false;
  int resumed_from_journal = 0;  ///< outcomes restored from the journal
  /// True when the study returned early because SIGINT/SIGTERM was received:
  /// unfinished traces are marked FailKind::kSkipped, the journal is kept in
  /// place for resumption, and no result cache is written. CLIs should exit
  /// with robust::kInterruptedExitCode (75).
  bool interrupted = false;
  int interrupt_signal = 0;  ///< the signal that interrupted the study
};

/// Run (or load) the study.
StudyResult run_study(const StudyOptions& opts);

/// Default cache location used by the bench binaries (honors the
/// HPS_CACHE_DIR environment variable, else the system temp directory).
std::string default_cache_path(const std::string& tag);

/// Cache (de)serialization, exposed for tests. The key guards against
/// reusing results across incompatible option sets; it also mixes in the
/// cache format version and obs::kObsSchemaVersion, so caches written by a
/// build with a different layout are recomputed instead of misread.
std::uint64_t study_cache_key(const StudyOptions& opts);

/// Flatten study outcomes into ledger records (one per trace×scheme, all
/// four schemes). `study_key` is stamped into each record as hex.
std::vector<obs::LedgerRecord> ledger_records(const std::vector<TraceOutcome>& outcomes,
                                              std::uint64_t study_key);
void save_outcomes(const std::vector<TraceOutcome>& outcomes, const std::string& path,
                   std::uint64_t key);
std::optional<std::vector<TraceOutcome>> load_outcomes(const std::string& path,
                                                       std::uint64_t key);

/// Single-outcome codec (the cache's record format, exposed for the journal
/// and tests). deserialize_outcome throws hps::Error on malformed bytes.
std::string serialize_outcome(const TraceOutcome& o);
TraceOutcome deserialize_outcome(const std::string& bytes);

}  // namespace hps::core
