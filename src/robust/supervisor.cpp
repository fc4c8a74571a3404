#include "robust/supervisor.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "robust/interrupt.hpp"
#include "robust/ipc.hpp"
#include "telemetry/telemetry.hpp"

namespace hps::robust {

namespace {

bool g_in_worker = false;  // set once in the forked child, before any thread

using Clock = std::chrono::steady_clock;

/// kTask payload header: u32 task index | u32 attempt | u64 trace id, then
/// the opaque task bytes. Both ends are the same binary (fork without exec),
/// so this layout can change freely as long as both sides agree.
constexpr std::size_t kTaskHeaderBytes = 16;

/// Ignore SIGPIPE for the supervisor's lifetime (a worker dying between our
/// poll and our dispatch write must surface as EPIPE, not kill the study).
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

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Child entry point after fork. Never returns; exits via std::_Exit so no
/// inherited destructors / atexit handlers run in the child.
[[noreturn]] void worker_main(int task_fd, int result_fd, const WorkerFn& fn,
                              const SupervisorOptions& opts) {
  g_in_worker = true;
  ipc::set_worker_result_fd(result_fd);
  std::signal(SIGPIPE, SIG_IGN);  // parent death → EPIPE, handled below

  if (opts.rss_limit_mb > 0) {
    rlimit rl{};
    rl.rlim_cur = rl.rlim_max =
        static_cast<rlim_t>(opts.rss_limit_mb) * 1024u * 1024u;
    ::setrlimit(RLIMIT_AS, &rl);  // a runaway alloc now throws bad_alloc
  }

  // Frame writes are shared between the task loop (results) and the
  // heartbeat thread; the mutex keeps frames from interleaving mid-byte.
  std::mutex write_mu;
  if (opts.watchdog_timeout_s > 0) {
    std::thread([&write_mu, result_fd, interval = opts.heartbeat_interval_s] {
      const auto period = std::chrono::duration<double>(interval);
      for (;;) {
        {
          std::lock_guard<std::mutex> lk(write_mu);
          ipc::write_frame(result_fd, {ipc::MsgType::kHeartbeat, {}});
        }
        std::this_thread::sleep_for(period);
      }
    }).detach();  // dies with the process (_Exit)
  }

  for (;;) {
    ipc::Message m;
    const ipc::ReadStatus st = ipc::read_message(task_fd, m);
    if (st == ipc::ReadStatus::kEof) std::_Exit(0);  // parent closed: done
    if (st != ipc::ReadStatus::kMessage) std::_Exit(3);
    if (m.type == ipc::MsgType::kShutdown) std::_Exit(0);
    if (m.type != ipc::MsgType::kTask || m.payload.size() < kTaskHeaderBytes) std::_Exit(3);

    WorkerEnv env;
    env.task_index = get_u32(m.payload.data());
    env.attempt = static_cast<int>(get_u32(m.payload.data() + 4));
    const telemetry::TraceIdScope trace_scope(get_u64(m.payload.data() + 8));
    const std::string task = m.payload.substr(kTaskHeaderBytes);

    ipc::Message reply;
    reply.payload.reserve(64);
    put_u32(reply.payload, static_cast<std::uint32_t>(env.task_index));
    try {
      reply.type = ipc::MsgType::kResult;
      reply.payload += fn(task, env);
    } catch (const std::exception& e) {
      reply.type = ipc::MsgType::kError;
      reply.payload.resize(4);  // keep the index prefix, drop partial result
      reply.payload += e.what();
    } catch (...) {
      reply.type = ipc::MsgType::kError;
      reply.payload.resize(4);
      reply.payload += "non-std exception in worker";
    }
    std::lock_guard<std::mutex> lk(write_mu);
    if (!ipc::write_frame(result_fd, reply)) std::_Exit(4);  // parent gone
  }
}

// ---------------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------------

struct Worker {
  pid_t pid = -1;
  int task_fd = -1;    ///< parent's write end of the task pipe
  int result_fd = -1;  ///< parent's read end of the result pipe
  ipc::FrameDecoder dec;
  bool alive = false;
  long task = -1;  ///< in-flight task index; -1 when idle
  int attempt = 0;
  Clock::time_point last_heard;
  bool watchdog_killed = false;
};

struct Pending {
  std::size_t index;
  int attempt;  ///< attempt number this dispatch would be (0-based)
  Clock::time_point ready;
};

class Supervisor {
 public:
  Supervisor(const std::vector<std::string>& tasks, const WorkerFn& fn,
             const SupervisorOptions& opts, const ResultHook& hook)
      : tasks_(tasks), fn_(fn), opts_(opts), hook_(hook), results_(tasks.size()) {}

  std::vector<TaskResult> run();

 private:
  void spawn_worker();
  void dispatch();
  void pump(Worker& w);
  void on_message(Worker& w, const ipc::Message& m);
  void handle_death(Worker& w, bool force_kill, const std::string& why);
  void fail_attempt(std::size_t idx, int attempt, TaskResult::Status verdict, int sig,
                    int exit_code, const std::string& what);
  void finalize(std::size_t idx);
  void check_watchdog();
  void drain_interrupted();
  void shutdown_pool();
  int poll_timeout_ms() const;
  std::size_t alive_count() const;
  std::size_t unfinished() const { return tasks_.size() - finals_; }

  const std::vector<std::string>& tasks_;
  const WorkerFn& fn_;
  const SupervisorOptions& opts_;
  const ResultHook& hook_;
  std::vector<TaskResult> results_;
  std::vector<bool> final_;
  std::deque<Pending> pending_;
  std::vector<Worker> workers_;
  std::size_t finals_ = 0;
  bool interrupted_ = false;
};

std::size_t Supervisor::alive_count() const {
  std::size_t n = 0;
  for (const Worker& w : workers_)
    if (w.alive) ++n;
  return n;
}

void Supervisor::spawn_worker() {
  int task_pipe[2] = {-1, -1};
  int result_pipe[2] = {-1, -1};
  if (::pipe(task_pipe) != 0) HPS_THROW("supervisor: pipe() failed: " + std::string(std::strerror(errno)));
  if (::pipe(result_pipe) != 0) {
    ::close(task_pipe[0]);
    ::close(task_pipe[1]);
    HPS_THROW("supervisor: pipe() failed: " + std::string(std::strerror(errno)));
  }

  // Flush stdio so buffered output is not duplicated into the child.
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (int fd : {task_pipe[0], task_pipe[1], result_pipe[0], result_pipe[1]}) ::close(fd);
    HPS_THROW("supervisor: fork() failed: " + std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    // Child: drop the parent ends AND every sibling's pipe ends we inherited,
    // so a sibling's EOF/cleanup semantics are not held hostage by us.
    ::close(task_pipe[1]);
    ::close(result_pipe[0]);
    for (const Worker& w : workers_) {
      if (w.task_fd >= 0) ::close(w.task_fd);
      if (w.result_fd >= 0) ::close(w.result_fd);
    }
    worker_main(task_pipe[0], result_pipe[1], fn_, opts_);  // noreturn
  }
  ::close(task_pipe[0]);
  ::close(result_pipe[1]);
  // The supervisor reads results via poll(): nonblocking so one chatty worker
  // cannot stall the loop.
  ::fcntl(result_pipe[0], F_SETFL, O_NONBLOCK);

  Worker w;
  w.pid = pid;
  w.task_fd = task_pipe[1];
  w.result_fd = result_pipe[0];
  w.alive = true;
  w.last_heard = Clock::now();
  // Reuse a dead slot if any (keeps the vector bounded by peak pool size).
  for (Worker& slot : workers_) {
    if (!slot.alive && slot.pid == -1) {
      slot = std::move(w);
      telemetry::Registry::global().counter("robust.worker_spawned").add(1);
      return;
    }
  }
  workers_.push_back(std::move(w));
  telemetry::Registry::global().counter("robust.worker_spawned").add(1);
}

void Supervisor::finalize(std::size_t idx) {
  final_[idx] = true;
  ++finals_;
  if (hook_) hook_(idx, results_[idx]);
}

void Supervisor::fail_attempt(std::size_t idx, int attempt, TaskResult::Status verdict,
                              int sig, int exit_code, const std::string& what) {
  if (attempt < opts_.max_retries && !interrupted_) {
    const double backoff = std::min(opts_.backoff_base_s * std::ldexp(1.0, attempt),
                                    opts_.backoff_max_s);
    pending_.push_back({idx, attempt + 1,
                        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(backoff))});
    telemetry::Registry::global().counter("robust.worker_retries").add(1);
    return;
  }
  TaskResult& r = results_[idx];
  r.status = verdict;
  r.signal = sig;
  r.exit_code = exit_code;
  r.attempts = attempt + 1;
  r.detail = what;
  finalize(idx);
}

void Supervisor::handle_death(Worker& w, bool force_kill, const std::string& why) {
  if (!w.alive) return;
  if (force_kill) {
    ::kill(w.pid, SIGKILL);
    telemetry::Registry::global().counter("robust.worker_killed").add(1);
  }
  int status = 0;
  ::waitpid(w.pid, &status, 0);

  int sig = 0, exit_code = 0;
  std::string death = why;
  if (WIFSIGNALED(status)) {
    sig = WTERMSIG(status);
    death += " (worker died on signal " + std::to_string(sig) + ")";
  } else if (WIFEXITED(status)) {
    exit_code = WEXITSTATUS(status);
    death += " (worker exited with status " + std::to_string(exit_code) + ")";
  }

  const long idx = w.task;
  const int attempt = w.attempt;
  const bool timed_out = w.watchdog_killed;

  ::close(w.task_fd);
  ::close(w.result_fd);
  w.alive = false;
  w.pid = -1;
  w.task_fd = w.result_fd = -1;
  w.task = -1;
  w.dec = ipc::FrameDecoder();
  w.watchdog_killed = false;

  if (idx >= 0 && !final_[static_cast<std::size_t>(idx)]) {
    const auto verdict = timed_out ? TaskResult::Status::kTimeout : TaskResult::Status::kCrash;
    fail_attempt(static_cast<std::size_t>(idx), attempt, verdict, sig, exit_code, death);
  }
}

void Supervisor::on_message(Worker& w, const ipc::Message& m) {
  w.last_heard = Clock::now();
  switch (m.type) {
    case ipc::MsgType::kHeartbeat:
      return;
    case ipc::MsgType::kResult:
    case ipc::MsgType::kError: {
      if (m.payload.size() < 4) {
        handle_death(w, /*force_kill=*/true, "worker sent a truncated reply");
        return;
      }
      const std::size_t idx = get_u32(m.payload.data());
      if (w.task < 0 || idx != static_cast<std::size_t>(w.task) || idx >= tasks_.size()) {
        handle_death(w, /*force_kill=*/true, "worker replied for a task it was not assigned");
        return;
      }
      const int attempt = w.attempt;
      w.task = -1;  // idle again
      if (final_[idx]) return;
      if (m.type == ipc::MsgType::kResult) {
        TaskResult& r = results_[idx];
        r.status = TaskResult::Status::kOk;
        r.payload = m.payload.substr(4);
        r.attempts = attempt + 1;
        finalize(idx);
      } else {
        // A structured in-worker failure (the WorkerFn threw). Deterministic,
        // so retrying would reproduce it: final immediately.
        TaskResult& r = results_[idx];
        r.status = TaskResult::Status::kFailed;
        r.detail = m.payload.substr(4);
        r.attempts = attempt + 1;
        finalize(idx);
      }
      return;
    }
    default:
      handle_death(w, /*force_kill=*/true,
                   std::string("worker sent unexpected ") + ipc::msg_type_name(m.type));
  }
}

void Supervisor::pump(Worker& w) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(w.result_fd, buf, sizeof buf);
    if (n > 0) {
      w.dec.feed(buf, static_cast<std::size_t>(n));
      ipc::Message m;
      for (;;) {
        const auto st = w.dec.next(m);
        if (st == ipc::FrameDecoder::Status::kMessage) {
          on_message(w, m);
          if (!w.alive) return;
          continue;
        }
        if (st == ipc::FrameDecoder::Status::kCorrupt) {
          // Garbage mid-stream: the worker is compromised even if it is
          // still breathing. Kill it; the in-flight task is retried.
          handle_death(w, /*force_kill=*/true,
                       std::string("worker result stream is corrupt (") +
                           w.dec.corrupt_reason() + ")");
          return;
        }
        break;  // kNeedMore
      }
      continue;
    }
    if (n == 0) {  // EOF: the worker is gone
      handle_death(w, /*force_kill=*/false, "worker closed its result pipe");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    handle_death(w, /*force_kill=*/true,
                 "result pipe read failed: " + std::string(std::strerror(errno)));
    return;
  }
}

void Supervisor::dispatch() {
  const auto now = Clock::now();
  // Keep the pool at strength while work remains.
  while (alive_count() < static_cast<std::size_t>(opts_.workers) &&
         alive_count() < unfinished() && !interrupted_)
    spawn_worker();

  for (Worker& w : workers_) {
    if (!w.alive || w.task >= 0) continue;
    // Find a ready pending task.
    auto it = pending_.begin();
    while (it != pending_.end() && it->ready > now) ++it;
    if (it == pending_.end()) break;
    const Pending p = *it;
    pending_.erase(it);

    ipc::Message m;
    m.type = ipc::MsgType::kTask;
    m.payload.reserve(kTaskHeaderBytes + tasks_[p.index].size());
    put_u32(m.payload, static_cast<std::uint32_t>(p.index));
    put_u32(m.payload, static_cast<std::uint32_t>(p.attempt));
    put_u64(m.payload, opts_.trace_id);
    m.payload += tasks_[p.index];
    if (!ipc::write_frame(w.task_fd, m)) {
      // The worker died between poll rounds; the attempt never started, so
      // requeue without consuming it and reap the corpse.
      pending_.push_front(p);
      handle_death(w, /*force_kill=*/true, "task dispatch failed (worker gone)");
      continue;
    }
    w.task = static_cast<long>(p.index);
    w.attempt = p.attempt;
    w.last_heard = now;
  }
}

void Supervisor::check_watchdog() {
  if (opts_.watchdog_timeout_s <= 0) return;
  const auto now = Clock::now();
  const auto limit = std::chrono::duration<double>(opts_.watchdog_timeout_s);
  for (Worker& w : workers_) {
    if (!w.alive || w.task < 0) continue;
    if (now - w.last_heard > limit) {
      w.watchdog_killed = true;
      handle_death(w, /*force_kill=*/true,
                   "watchdog: worker silent for over " +
                       std::to_string(opts_.watchdog_timeout_s) + "s");
    }
  }
}

int Supervisor::poll_timeout_ms() const {
  // 200ms cap keeps the loop responsive to SIGINT and respawns even when no
  // fd becomes readable.
  double timeout = 0.2;
  const auto now = Clock::now();
  if (opts_.watchdog_timeout_s > 0) {
    for (const Worker& w : workers_) {
      if (!w.alive || w.task < 0) continue;
      const double left =
          opts_.watchdog_timeout_s -
          std::chrono::duration<double>(now - w.last_heard).count();
      timeout = std::min(timeout, std::max(left, 0.0));
    }
  }
  for (const Pending& p : pending_) {
    const double left = std::chrono::duration<double>(p.ready - now).count();
    timeout = std::min(timeout, std::max(left, 0.0));
  }
  return static_cast<int>(timeout * 1000.0) + 1;
}

void Supervisor::drain_interrupted() {
  interrupted_ = true;
  for (Worker& w : workers_) {
    if (!w.alive) continue;
    // In-flight work is abandoned, not failed: detach the task first so
    // handle_death does not classify it as a crash.
    w.task = -1;
    handle_death(w, /*force_kill=*/true, "study interrupted");
  }
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (final_[i]) continue;
    results_[i].status = TaskResult::Status::kSkipped;
    results_[i].detail = "study interrupted before this task ran";
    finalize(i);
  }
  pending_.clear();
}

void Supervisor::shutdown_pool() {
  for (Worker& w : workers_) {
    if (!w.alive) continue;
    ipc::write_frame(w.task_fd, {ipc::MsgType::kShutdown, {}});
    ::close(w.task_fd);
    ::close(w.result_fd);
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.alive = false;
    w.pid = -1;
    w.task_fd = w.result_fd = -1;
  }
}

std::vector<TaskResult> Supervisor::run() {
  final_.assign(tasks_.size(), false);
  for (std::size_t i = 0; i < tasks_.size(); ++i)
    pending_.push_back({i, 0, Clock::now()});

  SigpipeIgnore sigpipe;
  while (finals_ < tasks_.size()) {
    if (interrupt_requested()) {
      drain_interrupted();
      break;
    }
    dispatch();
    check_watchdog();

    std::vector<pollfd> fds;
    std::vector<std::size_t> owner;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (!workers_[i].alive) continue;
      fds.push_back({workers_[i].result_fd, POLLIN, 0});
      owner.push_back(i);
    }
    if (fds.empty()) {
      // All workers dead (e.g. every pending task is in backoff): sleep until
      // the next dispatch opportunity.
      if (finals_ < tasks_.size())
        std::this_thread::sleep_for(std::chrono::milliseconds(poll_timeout_ms()));
      continue;
    }
    const int rc = ::poll(fds.data(), fds.size(), poll_timeout_ms());
    if (rc < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the flag
      HPS_THROW("supervisor: poll() failed: " + std::string(std::strerror(errno)));
    }
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Worker& w = workers_[owner[k]];
      if (w.alive) pump(w);
    }
  }
  shutdown_pool();
  return std::move(results_);
}

}  // namespace

bool in_supervised_worker() { return g_in_worker; }

const char* task_status_name(TaskResult::Status s) {
  switch (s) {
    case TaskResult::Status::kOk: return "ok";
    case TaskResult::Status::kFailed: return "failed";
    case TaskResult::Status::kCrash: return "crash";
    case TaskResult::Status::kTimeout: return "timeout";
    case TaskResult::Status::kSkipped: return "skipped";
  }
  return "?";
}

std::vector<TaskResult> run_supervised(const std::vector<std::string>& tasks,
                                       const WorkerFn& fn, const SupervisorOptions& opts,
                                       const ResultHook& on_result) {
  if (tasks.empty()) return {};
  SupervisorOptions eff = opts;
  eff.workers = std::max(1, std::min<int>(eff.workers, static_cast<int>(tasks.size())));
  eff.max_retries = std::max(0, eff.max_retries);
  Supervisor sup(tasks, fn, eff, on_result);
  return sup.run();
}

}  // namespace hps::robust
