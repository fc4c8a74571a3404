#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.hpp"
#include "core/runner.hpp"
#include "mfact/classify.hpp"
#include "obs/inspect.hpp"
#include "obs/ledger.hpp"
#include "robust/fault.hpp"
#include "robust/interrupt.hpp"
#include "robust/ipc.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace hps::serve {

namespace {

namespace ipc = robust::ipc;

/// Ignore SIGPIPE for the server's lifetime: a client vanishing mid-stream
/// must surface as EPIPE on the write, not kill the daemon.
class SigpipeIgnore {
 public:
  SigpipeIgnore() {
    struct sigaction sa{};
    sa.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &sa, &saved_);
  }
  ~SigpipeIgnore() { ::sigaction(SIGPIPE, &saved_, nullptr); }

 private:
  struct sigaction saved_{};
};

/// Binds the Unix listener, guarding stale-socket reclaim with an exclusive
/// flock on a `<path>.lock` sidecar: without it, two daemons racing through
/// probe-connect → unlink → bind can steal the socket from whichever bound
/// first (the probe and the unlink are not atomic). The lock fd is returned
/// through `lock_fd` and must stay open for the daemon's lifetime — the
/// kernel releases it on any death, including kill -9, so a stale lock file
/// on disk is harmless and is deliberately never unlinked (removing it would
/// reopen the race via a lock on a dead inode).
int make_unix_listener(const std::string& path, int& lock_fd) {
  HPS_REQUIRE(!path.empty(), "serve: a Unix socket path is required");
  sockaddr_un addr{};
  HPS_REQUIRE(path.size() < sizeof addr.sun_path,
              "serve: socket path too long: " + path);
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  const std::string lock_path = path + ".lock";
  lock_fd = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0600);
  HPS_REQUIRE(lock_fd >= 0,
              "serve: cannot open lock file " + lock_path + ": " + std::strerror(errno));
  if (::flock(lock_fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(lock_fd);
    lock_fd = -1;
    HPS_THROW("serve: a daemon is already listening (or starting) on " + path);
  }
  // Only a *stale* socket (dead daemon) may be reclaimed. A connect() that
  // succeeds means a live daemon is accepting on this path — unlinking it
  // would silently steal its traffic, so refuse to start instead. (A live
  // daemon also holds the flock, but one started before the lock existed —
  // or listening via an inherited fd — is still caught here.)
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe < 0) {
    const std::string err = std::strerror(errno);
    ::close(lock_fd);
    lock_fd = -1;
    HPS_THROW(std::string("serve: socket() failed: ") + err);
  }
  const bool live =
      ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  ::close(probe);
  const int fd = live ? -1 : ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    const std::string err =
        live ? "a daemon is already listening on " + path
             : std::string("socket() failed: ") + std::strerror(errno);
    ::close(lock_fd);
    lock_fd = -1;
    HPS_THROW("serve: " + err);
  }
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::close(lock_fd);
    lock_fd = -1;
    HPS_THROW("serve: cannot listen on " + path + ": " + err);
  }
  return fd;
}

/// Loopback-only TCP listener; returns {fd, bound port}.
std::pair<int, int> make_tcp_listener(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  HPS_REQUIRE(fd >= 0, std::string("serve: socket() failed: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    HPS_THROW("serve: cannot listen on 127.0.0.1:" + std::to_string(port) + ": " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  return {fd, ntohs(bound.sin_port)};
}

bool send_msg(int fd, ipc::MsgType type, std::string payload) {
  ipc::Message m;
  m.type = type;
  m.payload = std::move(payload);
  return ipc::write_frame(fd, m);
}

/// min-with-ceiling for budget clamps: 0 means unlimited on both sides.
template <typename T>
T clamp_budget(T requested, T ceiling) {
  if (ceiling <= 0) return requested;
  if (requested <= 0) return ceiling;
  return std::min(requested, ceiling);
}

/// Distinct MFACT class names across a study's traces, sorted and
/// comma-joined — the serve ledger's per-request class summary.
std::string app_class_summary(const std::vector<core::TraceOutcome>& outcomes) {
  std::set<std::string> classes;
  for (const core::TraceOutcome& o : outcomes)
    classes.insert(mfact::app_class_name(o.app_class));
  std::string joined;
  for (const std::string& c : classes) {
    if (!joined.empty()) joined += ',';
    joined += c;
  }
  return joined;
}

/// The serve phases, in serving order. Their histograms are registered
/// once, up front, so a metrics scrape before the first request already
/// shows every family.
enum PhaseId : std::uint8_t {
  kDecode, kClamp, kCacheLookup, kQueueWait, kExecute, kCacheInsert, kCoalesceWait, kStream,
  kNumPhases
};
constexpr const char* kPhaseNames[kNumPhases] = {"decode",        "clamp",   "cache_lookup",
                                                 "queue_wait",    "execute", "cache_insert",
                                                 "coalesce_wait", "stream"};

}  // namespace

/// Phase tiling for one request: consecutive boundary stamps on the server's
/// observability clock, so per-phase durations sum exactly to the request's
/// total latency.
struct Server::RequestTimer {
  struct Tile {
    PhaseId id;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };
  Server& srv;
  std::uint64_t trace_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t last_ns = 0;
  std::vector<Tile> phases;

  RequestTimer(Server& s, std::int64_t recv_ns)
      : srv(s), start_ns(recv_ns), last_ns(recv_ns) {}

  /// Close the phase that started at the previous boundary, ending now.
  void phase(PhaseId id) { phase_until(id, srv.obs_.now_ns()); }

  /// Close the phase at an externally measured boundary (the dispatcher's
  /// stamps). Clamped monotonic so a cross-thread stamp can't go backwards.
  void phase_until(PhaseId id, std::int64_t boundary_ns) {
    if (boundary_ns < last_ns) boundary_ns = last_ns;
    phases.push_back({id, last_ns, boundary_ns - last_ns});
    last_ns = boundary_ns;
  }
};

void InFlight::complete(Status st, std::shared_ptr<const CachedResult> res,
                        std::string why) {
  {
    std::lock_guard<std::mutex> lk(mu);
    status = st;
    result = std::move(res);
    detail = std::move(why);
    done = true;
  }
  cv.notify_all();
}

void InFlight::wait() {
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return done; });
}

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_bytes, SpillOptions{opts_.cache_dir, opts_.cache_fsync}),
      queue_(std::max<std::size_t>(1, opts_.queue_capacity),
             ShedPolicy{static_cast<std::int64_t>(opts_.shed_target_ms * 1e6),
                        static_cast<std::int64_t>(opts_.shed_interval_ms * 1e6)}) {
  opts_.dispatchers = std::max(1, opts_.dispatchers);
  opts_.max_connections = std::max<std::size_t>(1, opts_.max_connections);
  // Observability comes up before the listeners so a constructor failure
  // here cannot leak a bound socket.
  obs_.set_enabled(true);
  obs_.set_tracing(!opts_.trace_path.empty());
  for (const char* p : kPhaseNames)
    phase_hists_.push_back(
        obs_.histogram(std::string(kPhaseMetricPrefix) + p, telemetry::latency_bounds()));
  request_hist_ = obs_.histogram(kRequestMetric, telemetry::latency_bounds());
  if (!opts_.serve_ledger_path.empty())
    ledger_ = std::make_unique<obs::ServeLedgerWriter>(opts_.serve_ledger_path);
  // Warm restart: recover the spill file before the listeners exist, so a
  // client that can connect always sees the recovered cache.
  if (!opts_.cache_dir.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    const ResultCache::RecoveryStats rs = cache_.recover();
    cache_recovery_ms_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (rs.recovered > 0 || rs.quarantined > 0 || rs.torn_bytes > 0)
      std::fprintf(stderr,
                   "hpcsweepd: cache recovery: %llu entries restored, %llu regions "
                   "quarantined, %llu torn bytes truncated (%llu ms)\n",
                   static_cast<unsigned long long>(rs.recovered),
                   static_cast<unsigned long long>(rs.quarantined),
                   static_cast<unsigned long long>(rs.torn_bytes),
                   static_cast<unsigned long long>(cache_recovery_ms_));
  }
  unix_fd_ = make_unix_listener(opts_.socket_path, lock_fd_);
  if (opts_.tcp_port >= 0) {
    try {
      const auto [fd, port] = make_tcp_listener(opts_.tcp_port);
      tcp_fd_ = fd;
      tcp_port_ = port;
    } catch (...) {
      ::close(unix_fd_);
      ::close(lock_fd_);
      ::unlink(opts_.socket_path.c_str());
      throw;
    }
  }
}

Server::~Server() {
  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  ::unlink(opts_.socket_path.c_str());
  // Closing the lock fd releases the flock; the .lock file itself stays (see
  // make_unix_listener).
  if (lock_fd_ >= 0) ::close(lock_fd_);
}

bool Server::draining() const {
  return draining_.load(std::memory_order_relaxed) || robust::interrupt_requested();
}

void Server::shutdown() { draining_.store(true, std::memory_order_relaxed); }

core::StudyOptions Server::study_options(const Request& req) const {
  core::StudyOptions so;
  so.corpus.seed = req.seed;
  so.corpus.duration_scale = std::min(req.duration_scale, opts_.max_duration_scale);
  so.corpus.limit = req.limit;
  if (opts_.max_limit > 0)
    so.corpus.limit = req.limit <= 0 ? opts_.max_limit
                                     : std::min(req.limit, opts_.max_limit);
  so.threads = opts_.threads_per_study;
  so.isolate = opts_.isolate;
  so.retries = opts_.retries;
  so.rss_limit_mb = opts_.rss_limit_mb;
  so.watchdog_timeout_seconds = opts_.watchdog_timeout_s;
  so.run.budget.wall_deadline_seconds =
      clamp_budget(req.wall_deadline_s, opts_.max_wall_deadline_s);
  so.run.budget.max_des_events =
      clamp_budget(req.max_des_events, opts_.max_des_events);
  so.run.budget.virtual_horizon =
      clamp_budget(req.virtual_horizon_ns, opts_.max_virtual_horizon_ns);
  // No file-backed cache/ledger/journal: the daemon's shared in-memory cache
  // is the durability story per request, and the client gets the ledger.
  return so;
}

double Server::predicted_full_seconds() const {
  const std::uint64_t runs = studies_run_.load(std::memory_order_relaxed);
  if (runs == 0) return 0;
  double sim_seconds = 0;
  for (const obs::CostCell& c : costs_.cells())
    if (c.scheme != core::scheme_name(core::Scheme::kMfact))
      sim_seconds += c.wall_seconds;
  return sim_seconds / static_cast<double>(runs);
}

void Server::dispatcher_loop() {
  using Queue = AdmissionQueue<std::shared_ptr<InFlight>>;
  std::shared_ptr<InFlight> job;
  for (;;) {
    const Queue::Pop popped = queue_.pop_entry(job);
    if (popped == Queue::Pop::kClosed) break;
    const std::int64_t popped_ns = obs_.now_ns();

    const auto stamp = [&](std::int64_t run_done) {
      // Phase boundaries for the owner's queue_wait/execute/cache_insert
      // tiling; published under mu before done flips in complete().
      std::lock_guard<std::mutex> lk(job->mu);
      job->popped_ns = popped_ns;
      job->run_done_ns = run_done;
      job->done_ns = obs_.now_ns();
    };

    // Every exit from this iteration must retire the job — an expired or
    // shed job left in the single-flight map would pin its coalesced waiters
    // to a computation that will never happen.
    if (popped == Queue::Pop::kExpired) {
      retire(job);
      rejected_expired_.fetch_add(1, std::memory_order_relaxed);
      stamp(popped_ns);
      job->complete(Status::kExpired, nullptr,
                    "end-to-end deadline expired while queued");
      job.reset();
      continue;
    }
    if (popped == Queue::Pop::kShed) {
      retire(job);
      stamp(popped_ns);
      // Shed reads as backpressure on the wire: the client's retry policy
      // for kQueueFull (jittered backoff) is exactly right for overload.
      job->complete(Status::kQueueFull, nullptr,
                    "shed: queue delay over target (daemon overloaded)");
      job.reset();
      continue;
    }

    active_.fetch_add(1, std::memory_order_relaxed);
    Status status = Status::kError;
    std::string detail;
    std::shared_ptr<const CachedResult> cached;
    std::int64_t run_done_ns = popped_ns;
    bool expired_now = false;
    try {
      // Every span recorded while this study runs — on worker threads or in
      // forked worker processes — carries the owning request's trace id.
      const telemetry::TraceIdScope trace_scope(job->trace_id);
      // Injected dispatch latency (chaos: site=serve.dispatch,kind=delay)
      // lands before the deadline math so it is charged like queue wait
      // rather than silently overrunning the execution budget.
      robust::fault_point(robust::FaultSite::kServeDispatch);
      if (job->deadline_ns > 0) {
        const double remaining_s =
            static_cast<double>(job->deadline_ns - Queue::steady_now_ns()) * 1e-9;
        if (remaining_s <= 0) {
          expired_now = true;
        } else {
          // Degrade rather than start a simulation that cannot finish: the
          // measured cost model says how long a full study takes here.
          if (!job->fallback && predicted_full_seconds() > remaining_s) {
            job->fallback = true;
            job->study.run.mfact_only = true;
          }
          // The execution budget is whatever deadline *remains* after queue
          // wait — never the full client deadline over again.
          double& wall = job->study.run.budget.wall_deadline_seconds;
          wall = wall <= 0 ? remaining_s : std::min(wall, remaining_s);
        }
      }
      if (!expired_now) {
        const core::StudyResult res = core::run_study(job->study);
        run_done_ns = obs_.now_ns();
        const auto records = core::ledger_records(res.outcomes, job->key);
        auto built = std::make_shared<CachedResult>();
        built->wall_seconds = res.wall_seconds;
        built->degraded = static_cast<std::uint32_t>(obs::degraded_count(records));
        built->records.reserve(records.size());
        for (const auto& rec : records) built->records.push_back(obs::to_json_line(rec));
        built->app_classes = app_class_summary(res.outcomes);
        // Measured-cost model: attribute each attempted scheme run's wall cost
        // to its trace's MFACT class. Only computed studies reach this loop —
        // cache hits and coalesced waiters cost nothing.
        for (const core::TraceOutcome& o : res.outcomes) {
          const char* cls = mfact::app_class_name(o.app_class);
          for (int si = 0; si < static_cast<int>(core::Scheme::kNumSchemes); ++si) {
            const core::SchemeOutcome& sc = o.scheme[si];
            if (!sc.attempted) continue;
            costs_.add(cls, core::scheme_name(static_cast<core::Scheme>(si)), 1,
                       sc.wall_seconds);
          }
        }
        if (res.interrupted) {
          // A drain signal landed mid-study: the outcome is full of skipped
          // holes. Report it, never cache it.
          status = Status::kInterrupted;
          detail = "daemon interrupted while running this study";
        } else {
          built->mfact_fallback = job->fallback;
          status = (built->degraded > 0 || job->fallback) ? Status::kDegraded
                                                          : Status::kOk;
          built->status = status;
          if (job->fallback) {
            detail = "degraded=mfact_fallback";
            fallback_.fetch_add(1, std::memory_order_relaxed);
          }
          cached = built;
          // Cacheability: a fallback answer must never mask the real one,
          // and a deadline-shrunk budget computed a result under a tighter
          // budget than the admission key encodes — cache it only if the
          // budget provably never tripped (no degraded records).
          const bool deadline_shrunk = job->deadline_ns > 0;
          if (!job->fallback && (!deadline_shrunk || built->degraded == 0)) {
            try {
              robust::fault_point(robust::FaultSite::kServeCacheInsert);
              cache_.insert(job->key, cached);
            } catch (const std::exception&) {
              // A failed insert costs a future cache hit, nothing else.
            }
          }
          studies_run_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    } catch (const std::exception& e) {
      status = Status::kError;
      detail = e.what();
    } catch (...) {
      status = Status::kError;
      detail = "non-std exception while running study";
    }
    if (expired_now) {
      status = Status::kExpired;
      detail = "end-to-end deadline expired before execution";
      rejected_expired_.fetch_add(1, std::memory_order_relaxed);
    }
    retire(job);
    stamp(run_done_ns);
    job->complete(status, std::move(cached), std::move(detail));
    active_.fetch_sub(1, std::memory_order_relaxed);
    job.reset();
  }
}

void Server::retire(const std::shared_ptr<InFlight>& job) {
  std::lock_guard<std::mutex> lk(inflight_mu_);
  const auto it = inflight_.find(job->key);
  if (it != inflight_.end() && it->second == job) inflight_.erase(it);
}

bool Server::send_reject(int fd, Status status, const std::string& detail) {
  Summary s;
  s.status = status;
  s.detail = detail;
  return send_msg(fd, ipc::MsgType::kReject, encode_summary(s));
}

bool Server::stream_result(int fd, const CachedResult& result, bool cache_hit) {
  for (const std::string& line : result.records)
    if (!send_msg(fd, ipc::MsgType::kRecord, line)) return false;
  Summary s;
  s.status = result.status;
  s.cache_hit = cache_hit;
  s.records = static_cast<std::uint32_t>(result.records.size());
  s.degraded = result.degraded;
  s.wall_seconds = cache_hit ? 0 : result.wall_seconds;
  s.mfact_fallback = result.mfact_fallback;
  if (result.mfact_fallback) s.detail = "degraded=mfact_fallback";
  return send_msg(fd, ipc::MsgType::kSummary, encode_summary(s));
}

bool Server::handle_study(int fd, const Request& req, std::int64_t recv_ns) {
  requests_.fetch_add(1, std::memory_order_relaxed);

  RequestTimer timer(*this, recv_ns);
  timer.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  timer.phase(kDecode);

  // End-to-end deadline, stamped on the queue's steady clock at decode so
  // every later stage — queue wait included — is charged against it.
  using Queue = AdmissionQueue<std::shared_ptr<InFlight>>;
  const std::int64_t deadline_ns =
      req.deadline_ms > 0
          ? Queue::steady_now_ns() + static_cast<std::int64_t>(req.deadline_ms) * 1000000
          : 0;

  core::StudyOptions so = study_options(req);
  // The trace id rides inside StudyOptions but is deliberately excluded from
  // study_cache_key: tracing must never change what is computed or cached.
  so.trace_id = timer.trace_id;
  std::uint64_t key = core::study_cache_key(so);
  timer.phase(kClamp);

  if (!req.force_recompute) {
    if (const auto hit = cache_.lookup(key)) {
      timer.phase(kCacheLookup);
      const bool ok = stream_result(fd, *hit, true);
      finish_request(timer, req, hit->status, /*cache_hit=*/true, /*coalesced=*/false,
                     static_cast<std::uint32_t>(hit->records.size()), hit->degraded,
                     hit->app_classes);
      return ok;
    }
  }

  // Feasibility triage: when the measured cost of a full study already
  // exceeds the whole deadline, plan the MFACT fallback up front. The
  // request joins the cheap admission class (so it is not starved behind
  // simulations) under the fallback's own cache key.
  bool fallback_planned = false;
  if (deadline_ns > 0) {
    const double remaining_s =
        static_cast<double>(deadline_ns - Queue::steady_now_ns()) * 1e-9;
    const double predicted = predicted_full_seconds();
    if (predicted > 0 && predicted > remaining_s) {
      fallback_planned = true;
      so.run.mfact_only = true;
      key = core::study_cache_key(so);
    }
  }

  // Single-flight: identical concurrent misses share one computation.
  std::shared_ptr<InFlight> job;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lk(inflight_mu_);
    const auto it = inflight_.find(key);
    if (it != inflight_.end() && !req.force_recompute) {
      job = it->second;
      coalesced_.fetch_add(1, std::memory_order_relaxed);
    } else {
      job = std::make_shared<InFlight>();
      job->key = key;
      job->study = so;
      job->trace_id = timer.trace_id;
      job->deadline_ns = deadline_ns;
      job->cls = fallback_planned ? 0 : 1;
      job->fallback = fallback_planned;
      inflight_[key] = job;
      owner = true;
    }
  }
  timer.phase(kCacheLookup);

  if (owner) {
    switch (queue_.try_push(job, job->deadline_ns, job->cls)) {
      case AdmissionQueue<std::shared_ptr<InFlight>>::Push::kAccepted:
        break;
      case AdmissionQueue<std::shared_ptr<InFlight>>::Push::kFull: {
        retire(job);
        // The job was registered before the push, so an identical request
        // may already be attached: it will never be dispatched — complete
        // it now so every waiter wakes with the same rejection.
        const std::string detail = "admission queue at capacity (" +
                                   std::to_string(queue_.capacity()) + ")";
        job->complete(Status::kQueueFull, nullptr, detail);
        rejected_full_.fetch_add(1, std::memory_order_relaxed);
        // Explicit backpressure: the client knows immediately and may retry
        // with jitter; nothing server-side was spent on the study.
        const bool ok = send_reject(fd, Status::kQueueFull, detail);
        finish_request(timer, req, Status::kQueueFull, false, false, 0, 0, {});
        return ok;
      }
      case AdmissionQueue<std::shared_ptr<InFlight>>::Push::kClosed: {
        retire(job);
        job->complete(Status::kDraining, nullptr, "daemon is draining");
        rejected_draining_.fetch_add(1, std::memory_order_relaxed);
        const bool ok = send_reject(fd, Status::kDraining, "daemon is draining");
        finish_request(timer, req, Status::kDraining, false, false, 0, 0, {});
        return ok;
      }
    }
  }

  job->wait();

  std::shared_ptr<const CachedResult> result;
  Status status;
  std::string detail;
  std::int64_t popped_ns = 0, run_done_ns = 0, done_ns = 0;
  {
    std::lock_guard<std::mutex> lk(job->mu);
    result = job->result;
    status = job->status;
    detail = job->detail;
    popped_ns = job->popped_ns;
    run_done_ns = job->run_done_ns;
    done_ns = job->done_ns;
  }
  if (owner) {
    if (popped_ns > 0) {
      timer.phase_until(kQueueWait, popped_ns);
      timer.phase_until(kExecute, run_done_ns);
      timer.phase_until(kCacheInsert, done_ns);
    } else {
      // Completed without ever being dispatched (drain raced the pop).
      timer.phase(kQueueWait);
    }
  } else {
    timer.phase(kCoalesceWait);
  }

  bool ok;
  std::uint32_t nrecords = 0, ndegraded = 0;
  std::string classes;
  bool fallback = false;
  if (result != nullptr) {
    nrecords = static_cast<std::uint32_t>(result->records.size());
    ndegraded = result->degraded;
    classes = result->app_classes;
    fallback = result->mfact_fallback;
    // A coalesced waiter reports cache_hit: it rode a computation it did not
    // pay for (the owner paid; its summary carries the wall time).
    ok = stream_result(fd, *result, !owner);
  } else if (status == Status::kQueueFull || status == Status::kDraining ||
             status == Status::kExpired) {
    // A waiter attached to a job whose owner failed admission — or whose
    // deadline expired / was shed before dispatch — gets the same kReject
    // frame the owner's client got.
    ok = send_reject(fd, status, detail);
  } else {
    Summary s;
    s.status = status;
    s.detail = detail;
    ok = send_msg(fd, ipc::MsgType::kSummary, encode_summary(s));
  }
  finish_request(timer, req, status, /*cache_hit=*/false, /*coalesced=*/!owner,
                 nrecords, ndegraded, classes, fallback);
  return ok;
}

void Server::finish_request(RequestTimer& t, const Request& req, Status status,
                            bool cache_hit, bool coalesced, std::uint32_t records,
                            std::uint32_t degraded, const std::string& app_classes,
                            bool mfact_fallback) {
  t.phase(kStream);
  const std::int64_t total_ns = t.last_ns - t.start_ns;
  const double total_s = static_cast<double>(total_ns) * 1e-9;

  request_hist_.observe(total_s);
  for (const RequestTimer::Tile& p : t.phases)
    phase_hists_[p.id].observe(static_cast<double>(p.dur_ns) * 1e-9);
  // Per-trace-class latency: a request whose study spans several classes
  // counts toward each ("how slow are requests touching class X").
  for (std::size_t pos = 0; pos < app_classes.size();) {
    std::size_t comma = app_classes.find(',', pos);
    if (comma == std::string::npos) comma = app_classes.size();
    if (comma > pos)
      obs_.histogram(kClassMetricPrefix + app_classes.substr(pos, comma - pos),
                     telemetry::latency_bounds())
          .observe(total_s);
    pos = comma + 1;
  }

  if (obs_.tracing()) {
    // Retroactive span tree from the boundary stamps already taken: one
    // parent per request, one child per phase, all carrying the trace id.
    telemetry::SpanRecord whole;
    whole.name = "request";
    whole.cat = "serve";
    whole.trace_id = t.trace_id;
    whole.start_ns = t.start_ns;
    whole.dur_ns = total_ns;
    whole.args = {{"status", status_name(status)},
                  {"seed", std::to_string(req.seed)},
                  {"cache_hit", cache_hit ? "true" : "false"},
                  {"coalesced", coalesced ? "true" : "false"}};
    obs_.record_span(std::move(whole));
    for (const RequestTimer::Tile& tile : t.phases) {
      telemetry::SpanRecord p;
      p.name = kPhaseNames[tile.id];
      p.cat = "serve.phase";
      p.trace_id = t.trace_id;
      p.start_ns = tile.start_ns;
      p.dur_ns = tile.dur_ns;
      obs_.record_span(std::move(p));
    }
  }

  if (ledger_ != nullptr) {
    obs::ServeRecord rec;
    rec.trace_id = t.trace_id;
    rec.status = status_name(status);
    rec.cache_hit = cache_hit;
    rec.coalesced = coalesced;
    rec.records = records;
    rec.degraded = degraded;
    rec.seed = req.seed;
    rec.duration_scale = req.duration_scale;
    rec.limit = req.limit;
    rec.app_classes = app_classes;
    rec.total_ns = total_ns;
    rec.mfact_fallback = mfact_fallback;
    rec.deadline_ms = req.deadline_ms;
    rec.phases.reserve(t.phases.size());
    for (const RequestTimer::Tile& p : t.phases)
      rec.phases.emplace_back(kPhaseNames[p.id], p.dur_ns);
    try {
      robust::fault_point(robust::FaultSite::kServeLedgerAppend);
      ledger_->append(rec);
    } catch (const std::exception&) {
      // A failing ledger (injected or real) must not take the serving path
      // down; the writer itself hardens ENOSPC/short writes.
      ledger_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

bool Server::handle_request(int fd, bool trusted, const ipc::Message& m) {
  const std::int64_t recv_ns = obs_.now_ns();
  if (m.type != ipc::MsgType::kRequest) {
    rejected_bad_.fetch_add(1, std::memory_order_relaxed);
    send_reject(fd, Status::kBadRequest,
                std::string("unexpected frame type: ") + ipc::msg_type_name(m.type));
    return false;
  }
  Request req;
  try {
    req = decode_request(m.payload);
  } catch (const std::exception& e) {
    rejected_bad_.fetch_add(1, std::memory_order_relaxed);
    send_reject(fd, Status::kBadRequest, e.what());
    return false;
  }
  switch (req.kind) {
    case Request::Kind::kPing:
      return send_msg(fd, ipc::MsgType::kPong, {});
    case Request::Kind::kStats:
      return send_msg(fd, ipc::MsgType::kStatsReply, encode_stats(stats()));
    case Request::Kind::kMetrics:
      return send_msg(fd, ipc::MsgType::kMetricsReply, encode_metrics(metrics()));
    case Request::Kind::kShutdown: {
      if (!trusted) {
        // Anything loopback-local can reach the TCP port; only the Unix
        // socket (gated by its file permissions) may drain the daemon.
        rejected_bad_.fetch_add(1, std::memory_order_relaxed);
        send_reject(fd, Status::kBadRequest,
                    "shutdown is only accepted on the Unix-domain socket");
        return false;
      }
      Summary s;
      s.status = Status::kOk;
      s.detail = "draining";
      send_msg(fd, ipc::MsgType::kSummary, encode_summary(s));
      shutdown();
      return false;
    }
    case Request::Kind::kStudy:
      if (draining()) {
        rejected_draining_.fetch_add(1, std::memory_order_relaxed);
        RequestTimer timer(*this, recv_ns);
        timer.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
        timer.phase(kDecode);
        const bool ok = send_reject(fd, Status::kDraining, "daemon is draining");
        finish_request(timer, req, Status::kDraining, false, false, 0, 0, {});
        return ok;
      }
      return handle_study(fd, req, recv_ns);
  }
  return false;
}

void Server::handle_connection(int fd, bool trusted) {
  ipc::FrameDecoder dec(kMaxRequestBytes);
  char buf[4096];
  bool keep = true;
  // Slowloris guard: a request frame is tiny, so a peer holding a *partial*
  // frame for longer than the cap is stalling on purpose (or dead in a way
  // keepalives have not noticed). Without the cap each such peer pins a
  // connection thread forever. partial_since_ns is when the currently
  // buffered partial frame started; 0 = no partial frame pending.
  const std::int64_t slow_limit_ns =
      static_cast<std::int64_t>(opts_.slow_read_timeout_ms * 1e6);
  std::int64_t partial_since_ns = 0;
  const auto slow_read_tripped = [&] {
    return slow_limit_ns > 0 && partial_since_ns > 0 &&
           obs_.now_ns() - partial_since_ns > slow_limit_ns;
  };
  const auto reject_slow_read = [&] {
    rejected_slow_read_.fetch_add(1, std::memory_order_relaxed);
    send_reject(fd, Status::kBadRequest,
                "slow read: partial request frame held past the cap");
  };
  while (keep) {
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) {
      // Idle tick: an idle connection does not outlive the drain, and a
      // stalled partial frame does not outlive the slow-read cap.
      if (draining()) break;
      if (slow_read_tripped()) {
        reject_slow_read();
        break;
      }
      continue;
    }
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n == 0) break;  // client closed
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      break;
    }
    dec.feed(buf, static_cast<std::size_t>(n));
    ipc::Message m;
    for (;;) {
      const auto st = dec.next(m);
      if (st == ipc::FrameDecoder::Status::kMessage) {
        keep = handle_request(fd, trusted, m);
        if (!keep) break;
        continue;
      }
      if (st == ipc::FrameDecoder::Status::kCorrupt) {
        // Torn, poisoned, or abusive framing: one explicit reject, then the
        // stream is dead (framing has no resync point).
        rejected_bad_.fetch_add(1, std::memory_order_relaxed);
        const bool oversized =
            std::strcmp(dec.corrupt_reason(), "oversized frame") == 0;
        send_reject(fd, oversized ? Status::kOversized : Status::kBadRequest,
                    dec.corrupt_reason());
        keep = false;
        break;
      }
      break;  // kNeedMore
    }
    if (!keep) break;
    // Trickling one byte per read must not reset the clock: the guard times
    // the *frame*, so the stamp survives until the frame completes.
    if (dec.buffered() > 0) {
      if (partial_since_ns == 0) partial_since_ns = obs_.now_ns();
      if (slow_read_tripped()) {
        reject_slow_read();
        break;
      }
    } else {
      partial_since_ns = 0;
    }
  }
  ::close(fd);
  // Notify under the lock: once it is released, run()'s drain wait may
  // return and ~Server destroy conn_cv_ while a late notify still runs.
  std::lock_guard<std::mutex> lk(conn_mu_);
  --active_conns_;
  conn_cv_.notify_all();
}

void Server::run() {
  SigpipeIgnore sigpipe;
  // Arm $HPS_FAULT before the first request so serve-site specs
  // (serve.dispatch / serve.cache-insert / serve.ledger-append) hit from the
  // start — run_study would arm it too, but only after the first dispatch.
  robust::init_faults_from_env();
  std::optional<robust::StudySignalGuard> guard;
  if (opts_.install_signal_guard) guard.emplace();

  dispatchers_.reserve(static_cast<std::size_t>(opts_.dispatchers));
  for (int i = 0; i < opts_.dispatchers; ++i)
    dispatchers_.emplace_back([this] { dispatcher_loop(); });

  // Low-rate background scrubber: re-verifies on-disk cache record CRCs and
  // repairs rot from the in-memory copy. Sleeps in short ticks so drain is
  // never held up by a long interval.
  if (!opts_.cache_dir.empty() && opts_.scrub_interval_ms > 0) {
    scrubber_ = std::thread([this] {
      double elapsed_ms = 0;
      while (!draining()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        elapsed_ms += 50;
        if (elapsed_ms < opts_.scrub_interval_ms) continue;
        elapsed_ms = 0;
        try {
          cache_.scrub_once();
        } catch (const std::exception& e) {
          // Injected (serve.scrub) or real failure: skip this pass, keep the
          // cadence — the scrubber must never take the daemon down.
          std::fprintf(stderr, "hpcsweepd: scrub pass failed: %s\n", e.what());
        }
      }
    });
  }

  std::string poll_error;
  while (!draining()) {
    pollfd fds[2];
    nfds_t nfds = 0;
    fds[nfds++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[nfds++] = {tcp_fd_, POLLIN, 0};
    const int rc = ::poll(fds, nfds, 200);
    if (rc < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the drain flag
      // Fall through to the full drain below: detached connection threads
      // must not outlive the Server members they use.
      poll_error = std::strerror(errno);
      shutdown();
      break;
    }
    for (nfds_t i = 0; i < nfds; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const bool trusted = fds[i].fd == unix_fd_;
      const int cfd = ::accept(fds[i].fd, nullptr, nullptr);
      if (cfd < 0) continue;
      bool admitted = false;
      {
        std::lock_guard<std::mutex> lk(conn_mu_);
        if (active_conns_ < opts_.max_connections) {
          ++active_conns_;
          admitted = true;
        }
      }
      if (!admitted) {
        // Connection-level backpressure: without a cap, a connection flood
        // means unbounded threads. The reject frame is tiny (fits any fresh
        // socket buffer), so this cannot stall the accept loop.
        rejected_conn_.fetch_add(1, std::memory_order_relaxed);
        send_reject(cfd, Status::kQueueFull,
                    "connection limit (" +
                        std::to_string(opts_.max_connections) + ")");
        ::close(cfd);
        continue;
      }
      std::thread([this, cfd, trusted] { handle_connection(cfd, trusted); }).detach();
    }
  }

  // Drain: stop accepting, refuse new admissions, finish the admitted
  // backlog (each job fails fast inside run_study if a signal tripped the
  // interrupt flag), answer every waiter, then wait out the connections.
  ::close(unix_fd_);
  unix_fd_ = -1;
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  ::unlink(opts_.socket_path.c_str());
  queue_.close();
  for (auto& t : dispatchers_) t.join();
  dispatchers_.clear();
  if (scrubber_.joinable()) scrubber_.join();
  {
    std::unique_lock<std::mutex> lk(conn_mu_);
    conn_cv_.wait(lk, [&] { return active_conns_ == 0; });
  }

  // Persist the observability footers now that every request is finished:
  // the cost-model cells into the serve ledger, the span timeline as a
  // Chrome trace. Neither failure mode may mask the drain itself.
  if (ledger_ != nullptr) {
    try {
      ledger_->append_costs(costs_.cells());
    } catch (const std::exception&) {
      ledger_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!opts_.trace_path.empty()) {
    std::ofstream os(opts_.trace_path, std::ios::binary | std::ios::trunc);
    if (os) telemetry::write_chrome_trace(obs_.spans(), os);
  }

  if (!poll_error.empty())
    HPS_THROW("serve: poll() failed: " + poll_error);
}

Stats Server::stats() const {
  Stats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.studies_run = studies_run_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.rejected_queue_full = rejected_full_.load(std::memory_order_relaxed);
  s.rejected_draining = rejected_draining_.load(std::memory_order_relaxed);
  s.rejected_bad = rejected_bad_.load(std::memory_order_relaxed);
  s.rejected_conn_limit = rejected_conn_.load(std::memory_order_relaxed);
  s.active = active_.load(std::memory_order_relaxed);
  s.queued = queue_.size();
  const ResultCache::Counters c = cache_.counters();
  s.cache_hits = c.hits;
  s.cache_misses = c.misses;
  s.cache_bytes = c.bytes;
  s.cache_entries = c.entries;
  s.cache_evictions = c.evictions;
  s.cache_spilled = c.spilled;
  s.cache_recovered = c.recovered;
  s.cache_quarantined = c.quarantined;
  s.cache_recovery_ms = cache_recovery_ms_;
  s.cache_scrub_passes = c.scrub_passes;
  s.cache_scrub_corrupt = c.scrub_corrupt;
  s.uptime_ms = static_cast<std::uint64_t>(obs_.now_ns() / 1000000);
  s.ledger_records = ledger_ != nullptr ? ledger_->records_written() : 0;
  s.spans_dropped = obs_.spans_dropped();
  s.rejected_expired = rejected_expired_.load(std::memory_order_relaxed);
  s.shed_queue_delay = queue_.shed_count();
  s.degraded_fallback = fallback_.load(std::memory_order_relaxed);
  s.rejected_slow_read = rejected_slow_read_.load(std::memory_order_relaxed);
  // Both layers lose lines: the writer's own hardened failures plus appends
  // that threw before reaching it (fault injection).
  s.ledger_write_errors = ledger_errors_.load(std::memory_order_relaxed) +
                          (ledger_ != nullptr ? ledger_->write_errors() : 0);
  return s;
}

MetricsReply Server::metrics() const {
  MetricsReply m;
  m.stats = stats();
  m.uptime_seconds = static_cast<double>(obs_.now_ns()) * 1e-9;
  const telemetry::Snapshot snap = obs_.snapshot();
  for (const telemetry::MetricValue& mv : snap.metrics)
    if (mv.kind == telemetry::MetricKind::kHistogram)
      m.hists.push_back({mv.name, mv.hist});
  m.costs = costs_.cells();
  return m;
}

}  // namespace hps::serve
