// Process-isolated worker pool: supervisor/worker execution with a
// heartbeat watchdog, bounded retries, and crash containment.
//
// The in-process run guards (guard.hpp) classify anything that *throws*,
// but a SIGSEGV, std::abort, or a kernel OOM-kill takes the whole
// thread-pool study down with the worker. run_supervised forks a pool of
// worker processes instead and shards opaque task payloads over the ipc.hpp
// pipe protocol, so hard process death is a first-class, contained event:
//
//  - each worker runs one task at a time, reading kTask frames off its task
//    pipe and answering kResult (or kError for an in-worker exception);
//  - a heartbeat thread in every worker feeds the supervisor's watchdog;
//    a worker silent past the timeout is SIGKILLed (→ Status::kTimeout);
//  - death by signal, a nonzero exit, or an unframeable result stream is a
//    crash verdict (→ Status::kCrash, terminating signal recorded);
//  - a failed task is retried on a fresh worker with exponential backoff up
//    to max_retries, then quarantined: the final TaskResult carries the
//    failure and every other task still completes;
//  - setrlimit(RLIMIT_AS) bounds each worker's address space, turning a
//    runaway allocation into a contained in-worker bad_alloc.
//
// Workers are created by fork() without exec: the child inherits the
// parent's state (corpus specs, fault plan, options) and calls the WorkerFn
// directly, which keeps results byte-identical to thread mode. The
// supervisor must therefore be driven from a moment when no other threads
// are live, which run_study guarantees.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace hps::robust {

struct SupervisorOptions {
  int workers = 1;        ///< pool size (clamped to the task count)
  int max_retries = 1;    ///< extra attempts per task after the first
  long rss_limit_mb = 0;  ///< RLIMIT_AS per worker, MB; 0 = unlimited
  /// Watchdog: a busy worker not heard from (result or heartbeat) for this
  /// long is hard-killed and its task counted as a timeout. 0 disables.
  double watchdog_timeout_s = 0;
  /// Heartbeat period of the in-worker feeder thread (only started when the
  /// watchdog is enabled).
  double heartbeat_interval_s = 0.1;
  /// Exponential backoff before retry r: backoff_base_s * 2^r, capped.
  double backoff_base_s = 0.05;
  double backoff_max_s = 2.0;
  /// Telemetry trace id carried inside every kTask frame and installed
  /// around the WorkerFn in the worker process (0 = unattributed), so spans
  /// recorded across the process boundary still name the originating
  /// serving request.
  std::uint64_t trace_id = 0;
};

/// Environment a WorkerFn executes in (inside the worker process).
struct WorkerEnv {
  int attempt = 0;       ///< 0 for the first try, grows per retry
  std::size_t task_index = 0;
};

/// Executed inside the worker process; returns the result payload. A thrown
/// exception is reported back as a structured task failure (kFailed), not a
/// crash.
using WorkerFn = std::function<std::string(const std::string& task, const WorkerEnv&)>;

struct TaskResult {
  enum class Status : std::uint8_t {
    kOk,       ///< worker returned a result payload
    kFailed,   ///< WorkerFn threw; detail holds the message
    kCrash,    ///< worker died (signal/exit/garbled stream), retries exhausted
    kTimeout,  ///< watchdog killed the worker, retries exhausted
    kSkipped,  ///< never finished: the study was interrupted (SIGINT/SIGTERM)
  };
  Status status = Status::kOk;
  std::string payload;  ///< result bytes when kOk
  std::string detail;   ///< human-readable failure description otherwise
  int signal = 0;       ///< terminating signal for kCrash deaths (0 = exit)
  int exit_code = 0;    ///< exit status for signal-less kCrash deaths
  int attempts = 0;     ///< total attempts consumed (1 = first try sufficed)
};

const char* task_status_name(TaskResult::Status s);

/// Called in the supervisor as soon as a task reaches its final state (in
/// completion order, not task order) — the hook run_study uses to journal
/// outcomes as they arrive. May be empty.
using ResultHook = std::function<void(std::size_t task_index, const TaskResult&)>;

/// Run every task through the pool; returns one TaskResult per task, in
/// task order. Throws hps::Error only for supervisor-level failures (pipe or
/// fork exhaustion) — per-task failures are reported in the results.
std::vector<TaskResult> run_supervised(const std::vector<std::string>& tasks,
                                       const WorkerFn& fn, const SupervisorOptions& opts,
                                       const ResultHook& on_result = {});

/// True inside a worker process of run_supervised. Such workers run one
/// task each and their pool already fills the cores; under an RLIMIT_AS
/// they must not grow extra thread stacks either.
bool in_supervised_worker();

}  // namespace hps::robust
