// hpcsweepd: the prediction-as-a-service daemon.
//
// A Server owns one Unix-domain listener (and optionally a loopback TCP
// listener), a pool of dispatcher threads that execute studies through
// core::run_study — thread mode or the process-isolated supervisor pool —
// and the shared ResultCache. The serving path for one study request:
//
//   connection thread:  decode request → clamp to daemon policy →
//                       cache lookup (hit: stream immediately) →
//                       single-flight: attach to an identical in-flight
//                       study, or admit a new job to the bounded queue
//                       (full: explicit kQueueFull backpressure reject) →
//                       wait → stream kRecord* + kSummary
//   dispatcher thread:  pop job → run_study → cache insert → wake waiters
//
// Concurrency model: one (detached, counted) thread per connection — they
// spend their lives blocked on a socket or a condition variable — and
// `dispatchers` study executors, so at most that many studies compute at
// once no matter how many clients are connected. Connections themselves are
// capped at `max_connections`: an accept beyond the cap is rejected and
// closed on the accept thread, so a connection flood cannot grow threads
// without bound. Admission control happens before any study work: a request
// that cannot be queued costs the daemon a frame decode and one small
// reject frame.
//
// Shutdown is cooperative, reusing the study interrupt flag: SIGINT/SIGTERM
// (via robust::StudySignalGuard) or an admin shutdown request flips the
// daemon into drain — listeners close, new admissions are refused with
// kDraining, already-admitted jobs finish (under a signal they fail fast as
// interrupted inside run_study), every waiter gets a terminal frame, and
// run() returns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/study.hpp"
#include "obs/serve_ledger.hpp"
#include "robust/ipc.hpp"
#include "serve/cache.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "telemetry/telemetry.hpp"

namespace hps::serve {

struct ServerOptions {
  std::string socket_path;  ///< Unix-domain listener path (required)
  /// Loopback TCP listener: -1 = off, 0 = ephemeral port (see tcp_port()),
  /// else the port to bind on 127.0.0.1.
  int tcp_port = -1;
  int dispatchers = 2;              ///< concurrent study executors
  std::size_t queue_capacity = 16;  ///< admitted-but-not-started jobs
  std::size_t cache_bytes = 64u << 20;  ///< shared result cache budget (0 = off)
  /// Durable cache directory: non-empty backs the result cache with an
  /// append-only spill file recovered on startup (warm restart), plus the
  /// `.quarantine` sidecar for corrupt records. Empty = memory-only.
  std::string cache_dir;
  bool cache_fsync = false;  ///< fsync every spill append (power-loss durability)
  /// Background scrubber cadence: every interval, re-verify on-disk record
  /// CRCs and repair rot from memory. 0 disables; ignored without cache_dir.
  double scrub_interval_ms = 5000;
  /// Concurrent connections (each costs one thread); an accept beyond the
  /// cap gets an immediate kReject and close, mirroring queue backpressure.
  std::size_t max_connections = 256;

  // Study execution policy (applied to every request).
  int threads_per_study = 0;  ///< run_study threads/workers (0 = auto)
  core::IsolateMode isolate = core::IsolateMode::kThread;
  int retries = 1;            ///< process mode: per-trace crash retries
  long rss_limit_mb = 0;      ///< process mode: per-worker RLIMIT_AS
  double watchdog_timeout_s = 0;

  // Admission clamps: what a remote caller may ask for. A request beyond a
  // ceiling is clamped, not rejected — the clamped key is what is cached.
  double max_duration_scale = 1.0;
  std::int32_t max_limit = 0;        ///< 0 = full corpus allowed
  double max_wall_deadline_s = 0;    ///< budget ceilings; 0 = no ceiling
  std::uint64_t max_des_events = 0;
  std::int64_t max_virtual_horizon_ns = 0;

  // Overload policy (v3). Shedding is off by default: healthy deployments
  // keep the fixed queue bound only, so nothing in the serving path changes
  // until a target is set.
  /// CoDel-style queue-delay shedding: once the sojourn time of dequeued
  /// work exceeds this target continuously for shed_interval_ms, the queue
  /// sheds over-target entries (rejected kQueueFull) until delay recovers.
  /// 0 disables shedding.
  double shed_target_ms = 0;
  double shed_interval_ms = 100;
  /// Slowloris guard: a connection that holds a partial request frame
  /// longer than this is rejected and closed (Stats::rejected_slow_read).
  /// 0 disables the guard.
  double slow_read_timeout_ms = 5000;

  /// Install robust::StudySignalGuard for the run() lifetime so SIGINT/
  /// SIGTERM drain the daemon. Tests drive robust::request_interrupt()
  /// directly and may turn this off.
  bool install_signal_guard = true;

  // Wall-clock observability (docs/observability.md). Latency histograms and
  // the cost model are always collected (a few relaxed atomic bumps per
  // request); these two switches control what is persisted.
  /// Serve ledger: one JSON-lines record per study request, plus the
  /// (trace class × scheme) cost footer on drain. Empty = off.
  std::string serve_ledger_path;
  /// Per-request span tree as a Chrome trace, written on drain. Enables
  /// request tracing (telemetry spans) for the daemon's lifetime. Empty = off.
  std::string trace_path;
};

/// A study admitted (or admitting) to the dispatch queue; shared between the
/// owning connection, any coalesced waiters, and the dispatcher.
struct InFlight {
  std::uint64_t key = 0;
  core::StudyOptions study;
  std::uint64_t trace_id = 0;  ///< owning request's trace id (study.trace_id)
  /// Absolute end-to-end deadline on AdmissionQueue::steady_now_ns()'s clock
  /// (0 = none), stamped when the request was decoded.
  std::int64_t deadline_ns = 0;
  int cls = 0;  ///< admission cost class (0 = MFACT-planned, 1 = simulation)
  /// The study ran (or will run) as an MFACT-only degraded fallback: decided
  /// at admission when the predicted full cost already exceeds the deadline,
  /// or at dispatch when queue wait ate it. Guarded by mu after admission.
  bool fallback = false;

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status = Status::kError;
  std::string detail;
  std::shared_ptr<const CachedResult> result;  ///< null unless kOk/kDegraded
  // Dispatcher-side phase boundaries (Server's obs clock, ns), written under
  // mu before complete() so the owner can tile queue_wait/execute/
  // cache_insert exactly against its own enqueue timestamp.
  std::int64_t popped_ns = 0;    ///< dispatcher picked the job up
  std::int64_t run_done_ns = 0;  ///< run_study returned
  std::int64_t done_ns = 0;      ///< cache insert finished, waiters woken

  void complete(Status st, std::shared_ptr<const CachedResult> res, std::string why);
  /// Blocks until complete() ran.
  void wait();
};

class Server {
 public:
  /// Binds and listens (throws hps::Error on any socket failure) but does
  /// not serve until run().
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serve until drained (signal or shutdown request). Blocks.
  void run();

  /// Programmatic drain trigger (thread-safe, idempotent).
  void shutdown();

  /// Actual TCP port after binding (-1 when TCP is off).
  int tcp_port() const { return tcp_port_; }

  Stats stats() const;

  /// Live-metrics snapshot (what a kMetrics request returns): Stats plus the
  /// per-phase / per-class latency histograms and the cost-model cells.
  MetricsReply metrics() const;

 private:
  struct RequestTimer;  // phase tiling for one request (server.cpp)

  void dispatcher_loop();
  /// `trusted` marks the Unix-domain transport: admin actions (shutdown)
  /// are refused over TCP, where anything loopback-local can connect.
  void handle_connection(int fd, bool trusted);
  /// Returns false when the connection should close.
  bool handle_request(int fd, bool trusted, const robust::ipc::Message& m);
  bool handle_study(int fd, const Request& req, std::int64_t recv_ns);
  bool stream_result(int fd, const CachedResult& result, bool cache_hit);
  bool send_reject(int fd, Status status, const std::string& detail);
  /// Erases job's single-flight slot if it still holds job (a
  /// force-recompute may have replaced it).
  void retire(const std::shared_ptr<InFlight>& job);
  core::StudyOptions study_options(const Request& req) const;
  bool draining() const;
  /// Measured mean wall cost of one full (all-schemes) study, from the
  /// PR 7 cost model. 0 until the first study completes — optimistic, so a
  /// cold daemon attempts the real thing and learns from it.
  double predicted_full_seconds() const;
  /// Closes the timer's final phase, feeds the latency histograms, emits the
  /// request's span tree, and appends the serve-ledger record.
  void finish_request(RequestTimer& t, const Request& req, Status status, bool cache_hit,
                      bool coalesced, std::uint32_t records, std::uint32_t degraded,
                      const std::string& app_classes, bool mfact_fallback = false);

  ServerOptions opts_;
  int unix_fd_ = -1;
  int lock_fd_ = -1;  ///< flock'd sidecar guarding stale-socket reclaim
  int tcp_fd_ = -1;
  int tcp_port_ = -1;

  ResultCache cache_;
  AdmissionQueue<std::shared_ptr<InFlight>> queue_;
  std::mutex inflight_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> inflight_;

  std::atomic<bool> draining_{false};
  std::vector<std::thread> dispatchers_;
  std::thread scrubber_;
  std::uint64_t cache_recovery_ms_ = 0;  ///< startup spill recovery wall time
  std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  std::size_t active_conns_ = 0;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> studies_run_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> rejected_draining_{0};
  std::atomic<std::uint64_t> rejected_bad_{0};
  std::atomic<std::uint64_t> rejected_conn_{0};
  std::atomic<std::uint64_t> rejected_expired_{0};
  std::atomic<std::uint64_t> rejected_slow_read_{0};
  std::atomic<std::uint64_t> fallback_{0};
  std::atomic<std::uint64_t> active_{0};

  // Observability. The registry is private to the daemon (never the global
  // one), so serving-path histograms and spans cannot perturb the study hot
  // path or leak into a study's own telemetry exports.
  telemetry::Registry obs_;
  telemetry::Histogram request_hist_;
  std::vector<telemetry::Histogram> phase_hists_;  ///< indexed by phase, serving order
  std::atomic<std::uint64_t> next_trace_id_{1};
  obs::CostModel costs_;
  std::unique_ptr<obs::ServeLedgerWriter> ledger_;
  std::atomic<std::uint64_t> ledger_errors_{0};
};

}  // namespace hps::serve
