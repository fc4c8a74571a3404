// Process-isolated worker pool: crash containment, watchdog kills, retry
// with backoff, quarantine, garbage-stream classification, graceful
// interruption, and the determinism contract — a process-isolated study is
// byte-identical to the thread-pool study for healthy traces, and a SIGSEGV
// in one worker never takes the sweep down.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/runner.hpp"
#include "core/study.hpp"
#include "obs/ledger.hpp"
#include "robust/fault.hpp"
#include "robust/guard.hpp"
#include "robust/interrupt.hpp"
#include "robust/ipc.hpp"
#include "robust/journal.hpp"
#include "robust/supervisor.hpp"
#include "workloads/corpus.hpp"

namespace hps {
namespace {

using robust::SupervisorOptions;
using robust::TaskResult;
using robust::WorkerEnv;

std::string tmp_path(const std::string& stem) {
  return "/tmp/hps_sup_" + stem + "_" + std::to_string(getpid());
}

/// Every test starts and ends with a clean interrupt flag, so a test that
/// trips it cannot leak into its neighbors.
class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override { robust::clear_interrupt(); }
  void TearDown() override {
    robust::clear_interrupt();
    robust::clear_fault_plan();
  }
};

[[noreturn]] void die_by_signal(int sig) {
  // Reset to the default disposition so the death is a genuine signal even
  // under sanitizers that intercept it.
  std::signal(sig, SIG_DFL);
  std::raise(sig);
  std::_Exit(127);  // unreachable
}

// --- run_supervised: healthy paths -----------------------------------------

TEST_F(SupervisorTest, RunsAllTasksAndReturnsPayloadsInOrder) {
  std::vector<std::string> tasks;
  for (int i = 0; i < 9; ++i) tasks.push_back("task-" + std::to_string(i));
  SupervisorOptions opts;
  opts.workers = 3;
  const auto results = robust::run_supervised(
      tasks, [](const std::string& t, const WorkerEnv& env) {
        return t + "/done/" + std::to_string(env.task_index);
      },
      opts);
  ASSERT_EQ(results.size(), tasks.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, TaskResult::Status::kOk);
    EXPECT_EQ(results[i].payload, tasks[i] + "/done/" + std::to_string(i));
    EXPECT_EQ(results[i].attempts, 1);
  }
}

TEST_F(SupervisorTest, ResultHookFiresOncePerTask) {
  std::vector<std::size_t> seen;
  const auto results = robust::run_supervised(
      {"a", "b", "c"}, [](const std::string& t, const WorkerEnv&) { return t; },
      SupervisorOptions{},
      [&](std::size_t idx, const TaskResult& r) {
        EXPECT_EQ(r.status, TaskResult::Status::kOk);
        seen.push_back(idx);
      });
  ASSERT_EQ(results.size(), 3u);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

TEST_F(SupervisorTest, WorkerExceptionIsStructuredFailureNotCrash) {
  const auto results = robust::run_supervised(
      {"ok", "boom"},
      [](const std::string& t, const WorkerEnv&) -> std::string {
        if (t == "boom") throw Error("deliberate failure");
        return t;
      },
      SupervisorOptions{});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, TaskResult::Status::kOk);
  EXPECT_EQ(results[1].status, TaskResult::Status::kFailed);
  EXPECT_NE(results[1].detail.find("deliberate failure"), std::string::npos);
  EXPECT_EQ(results[1].signal, 0);
}

// --- crash containment and retry -------------------------------------------

TEST_F(SupervisorTest, SegvOnFirstAttemptIsRetriedToSuccess) {
  SupervisorOptions opts;
  opts.workers = 2;
  opts.max_retries = 2;
  opts.backoff_base_s = 0.01;
  const auto results = robust::run_supervised(
      {"fragile", "steady"},
      [](const std::string& t, const WorkerEnv& env) -> std::string {
        if (t == "fragile" && env.attempt == 0) die_by_signal(SIGSEGV);
        return t + "+ok";
      },
      opts);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, TaskResult::Status::kOk);
  EXPECT_EQ(results[0].payload, "fragile+ok");
  EXPECT_EQ(results[0].attempts, 2) << "first attempt crashed, second succeeded";
  EXPECT_EQ(results[1].status, TaskResult::Status::kOk);
  EXPECT_EQ(results[1].attempts, 1);
}

TEST_F(SupervisorTest, PersistentCrashIsQuarantinedWithSignalAndOthersComplete) {
  SupervisorOptions opts;
  opts.workers = 2;
  opts.max_retries = 1;
  opts.backoff_base_s = 0.01;
  const auto results = robust::run_supervised(
      {"poison", "a", "b", "c"},
      [](const std::string& t, const WorkerEnv&) -> std::string {
        if (t == "poison") die_by_signal(SIGSEGV);
        return t;
      },
      opts);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].status, TaskResult::Status::kCrash);
  EXPECT_EQ(results[0].signal, SIGSEGV);
  EXPECT_EQ(results[0].attempts, 2) << "initial attempt + one retry";
  EXPECT_NE(results[0].detail.find("signal"), std::string::npos);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(results[i].status, TaskResult::Status::kOk) << results[i].detail;
    EXPECT_EQ(results[i].payload, std::string(1, static_cast<char>('a' + i - 1)));
  }
}

TEST_F(SupervisorTest, AbortDeathRecordsSigabrt) {
  SupervisorOptions opts;
  opts.max_retries = 0;
  const auto results = robust::run_supervised(
      {"x"},
      [](const std::string&, const WorkerEnv&) -> std::string { die_by_signal(SIGABRT); },
      opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, TaskResult::Status::kCrash);
  EXPECT_EQ(results[0].signal, SIGABRT);
  EXPECT_EQ(results[0].attempts, 1);
}

TEST_F(SupervisorTest, CleanExitMidTaskIsACrashVerdict) {
  SupervisorOptions opts;
  opts.max_retries = 0;
  const auto results = robust::run_supervised(
      {"x"},
      [](const std::string&, const WorkerEnv&) -> std::string { std::_Exit(0); },
      opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, TaskResult::Status::kCrash);
  EXPECT_EQ(results[0].signal, 0);
}

TEST_F(SupervisorTest, GarbageMidStreamIsClassifiedKilledAndRetried) {
  SupervisorOptions opts;
  opts.workers = 1;
  opts.max_retries = 1;
  opts.backoff_base_s = 0.01;
  const auto results = robust::run_supervised(
      {"g"},
      [](const std::string& t, const WorkerEnv& env) -> std::string {
        if (env.attempt == 0) {
          // Impersonate a worker whose heap is trashed: emit bytes that can
          // never frame (length field 0xffffffff), then stall. The
          // supervisor must classify the stream, kill us, and retry.
          const std::string garbage(16, '\xff');
          (void)!::write(robust::ipc::worker_result_fd(), garbage.data(), garbage.size());
          for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
        }
        return t + "-recovered";
      },
      opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, TaskResult::Status::kOk);
  EXPECT_EQ(results[0].payload, "g-recovered");
  EXPECT_EQ(results[0].attempts, 2);
}

// --- watchdog ---------------------------------------------------------------

TEST_F(SupervisorTest, WatchdogKillsSilentWorkerAndRetrySucceeds) {
  SupervisorOptions opts;
  opts.workers = 1;
  opts.max_retries = 1;
  opts.backoff_base_s = 0.01;
  opts.watchdog_timeout_s = 0.3;
  opts.heartbeat_interval_s = 0.05;
  const auto results = robust::run_supervised(
      {"w"},
      [](const std::string& t, const WorkerEnv& env) -> std::string {
        if (env.attempt == 0) {
          // SIGSTOP freezes the whole process, heartbeat thread included —
          // exactly the "worker wedged hard" condition the watchdog exists
          // for (a live-but-slow worker keeps heartbeating and is spared).
          std::raise(SIGSTOP);
        }
        return t + "-alive";
      },
      opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, TaskResult::Status::kOk);
  EXPECT_EQ(results[0].payload, "w-alive");
  EXPECT_EQ(results[0].attempts, 2);
}

TEST_F(SupervisorTest, WatchdogExhaustionYieldsTimeoutVerdict) {
  SupervisorOptions opts;
  opts.workers = 1;
  opts.max_retries = 0;
  opts.watchdog_timeout_s = 0.2;
  opts.heartbeat_interval_s = 0.05;
  const auto results = robust::run_supervised(
      {"w"},
      [](const std::string&, const WorkerEnv&) -> std::string {
        std::raise(SIGSTOP);
        return "unreached";
      },
      opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, TaskResult::Status::kTimeout);
  EXPECT_NE(results[0].detail.find("watchdog"), std::string::npos);
}

TEST_F(SupervisorTest, HeartbeatKeepsSlowButAliveWorkerRunning) {
  SupervisorOptions opts;
  opts.workers = 1;
  opts.max_retries = 0;
  opts.watchdog_timeout_s = 0.2;
  opts.heartbeat_interval_s = 0.05;
  const auto results = robust::run_supervised(
      {"slow"},
      [](const std::string& t, const WorkerEnv&) {
        // Three watchdog periods of honest work: the heartbeat thread keeps
        // feeding the supervisor, so no kill.
        std::this_thread::sleep_for(std::chrono::milliseconds(600));
        return t + "-finished";
      },
      opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, TaskResult::Status::kOk) << results[0].detail;
  EXPECT_EQ(results[0].payload, "slow-finished");
}

// --- interruption -----------------------------------------------------------

TEST_F(SupervisorTest, InterruptFlagSkipsEverythingNotYetFinal) {
  robust::request_interrupt(SIGINT);
  const auto results = robust::run_supervised(
      {"a", "b"}, [](const std::string& t, const WorkerEnv&) { return t; },
      SupervisorOptions{});
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) EXPECT_EQ(r.status, TaskResult::Status::kSkipped);
}

// --- RLIMIT_AS containment --------------------------------------------------

// ASan and TSan reserve terabytes of shadow address space, and TSan's own
// allocator runs out of address space under the limit, so RLIMIT_AS cannot
// be meaningfully applied under either.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HPS_TEST_NO_RLIMIT_AS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HPS_TEST_NO_RLIMIT_AS 1
#endif
#endif
#ifndef HPS_TEST_NO_RLIMIT_AS
TEST_F(SupervisorTest, RssLimitTurnsRunawayAllocIntoStructuredOom) {
  SupervisorOptions opts;
  opts.workers = 1;
  opts.max_retries = 0;
  opts.rss_limit_mb = 512;
  const auto results = robust::run_supervised(
      {"hog", "fine"},
      [](const std::string& t, const WorkerEnv&) -> std::string {
        if (t == "hog") {
          // Far past the limit; must throw bad_alloc inside the worker, not
          // trigger the kernel OOM killer on the host.
          std::vector<char> v(4ull << 30, 1);
          return std::to_string(v.size());
        }
        return t;
      },
      opts);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, TaskResult::Status::kFailed);
  EXPECT_NE(results[0].detail.find("alloc"), std::string::npos) << results[0].detail;
  EXPECT_EQ(results[1].status, TaskResult::Status::kOk);
}
#endif

// --- study integration: process isolation ----------------------------------

core::StudyOptions mini_opts(int limit) {
  core::StudyOptions o;
  o.corpus.limit = limit;
  o.corpus.duration_scale = 0.1;
  o.threads = 2;
  return o;
}

void zero_walls(std::vector<core::TraceOutcome>& outcomes) {
  for (core::TraceOutcome& o : outcomes)
    for (core::SchemeOutcome& s : o.scheme) s.wall_seconds = 0;
}

std::string outcome_bytes(std::vector<core::TraceOutcome> outcomes) {
  zero_walls(outcomes);
  std::string all;
  for (const auto& o : outcomes) all += core::serialize_outcome(o);
  return all;
}

TEST_F(SupervisorTest, ProcessIsolationIsByteIdenticalToThreadMode) {
  core::StudyOptions thread_opts = mini_opts(3);
  const core::StudyResult a = core::run_study(thread_opts);

  core::StudyOptions process_opts = mini_opts(3);
  process_opts.isolate = core::IsolateMode::kProcess;
  const core::StudyResult b = core::run_study(process_opts);

  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_EQ(outcome_bytes(a.outcomes), outcome_bytes(b.outcomes))
      << "isolation mode must be observationally invisible for healthy traces";
}

TEST_F(SupervisorTest, InjectedSegvIsContainedQuarantinedAndOthersMatchThreadMode) {
  // Reference: healthy thread-mode study.
  const core::StudyResult healthy = core::run_study(mini_opts(3));
  ASSERT_EQ(healthy.outcomes.size(), 3u);

  // Poison spec 1's packet scheme with a hard SIGSEGV, then run isolated.
  robust::set_fault_plan(robust::parse_fault_plan("site=packet,spec=1,kind=segv"));
  core::StudyOptions opts = mini_opts(3);
  opts.isolate = core::IsolateMode::kProcess;
  opts.retries = 1;  // the fault is deterministic: the retry crashes too
  const core::StudyResult res = core::run_study(opts);
  robust::clear_fault_plan();

  ASSERT_EQ(res.outcomes.size(), 3u);
  // The poisoned trace is quarantined: every scheme reports the crash with
  // the terminating signal, because the worker died mid-trace.
  for (const auto& so : res.outcomes[1].scheme) {
    EXPECT_TRUE(so.attempted);
    EXPECT_FALSE(so.ok);
    EXPECT_EQ(so.fail_kind, robust::FailKind::kCrash);
    EXPECT_EQ(so.signal, SIGSEGV);
  }
  // The other traces are byte-identical to the healthy thread-mode study.
  auto ref = healthy.outcomes;
  auto got = res.outcomes;
  zero_walls(ref);
  zero_walls(got);
  EXPECT_EQ(core::serialize_outcome(got[0]), core::serialize_outcome(ref[0]));
  EXPECT_EQ(core::serialize_outcome(got[2]), core::serialize_outcome(ref[2]));
}

TEST_F(SupervisorTest, InjectedAbortIsContainedAsSigabrt) {
  robust::set_fault_plan(robust::parse_fault_plan("site=flow,spec=0,kind=abort"));
  core::StudyOptions opts = mini_opts(2);
  opts.isolate = core::IsolateMode::kProcess;
  opts.retries = 0;
  const core::StudyResult res = core::run_study(opts);
  robust::clear_fault_plan();

  ASSERT_EQ(res.outcomes.size(), 2u);
  EXPECT_EQ(res.outcomes[0].of(core::Scheme::kFlow).fail_kind, robust::FailKind::kCrash);
  EXPECT_EQ(res.outcomes[0].of(core::Scheme::kFlow).signal, SIGABRT);
  for (const auto& so : res.outcomes[1].scheme) EXPECT_TRUE(so.ok) << so.error;
}

TEST_F(SupervisorTest, CrashedTraceCarriesSignalThroughLedgerAndCache) {
  robust::set_fault_plan(robust::parse_fault_plan("site=packet,spec=0,kind=segv"));
  core::StudyOptions opts = mini_opts(1);
  opts.isolate = core::IsolateMode::kProcess;
  opts.retries = 0;
  opts.cache_path = tmp_path("crash_cache");
  opts.ledger_path = tmp_path("crash_ledger");
  opts.force_recompute = true;
  std::remove(opts.cache_path.c_str());
  std::remove(opts.ledger_path.c_str());
  const core::StudyResult res = core::run_study(opts);
  robust::clear_fault_plan();

  // The cache round-trips the signal...
  const auto cached = core::load_outcomes(opts.cache_path, core::study_cache_key(opts));
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ((*cached)[0].of(core::Scheme::kPacket).signal, SIGSEGV);
  // ...and so does the ledger (schema v3's `signal` field).
  const auto records = obs::load_ledger(opts.ledger_path);
  ASSERT_EQ(records.size(), 4u);
  for (const auto& rec : records) {
    EXPECT_EQ(rec.fail_kind, "crash");
    EXPECT_EQ(rec.signal, SIGSEGV);
  }
  (void)res;
  std::remove(opts.cache_path.c_str());
  std::remove(opts.ledger_path.c_str());
}

// --- study integration: graceful interruption ------------------------------

TEST_F(SupervisorTest, InterruptedStudySkipsKeepsJournalAndWritesNoCache) {
  core::StudyOptions opts = mini_opts(3);
  opts.journal_path = tmp_path("intr_journal");
  opts.cache_path = tmp_path("intr_cache");
  opts.force_recompute = true;
  std::remove(opts.journal_path.c_str());
  std::remove(opts.cache_path.c_str());

  robust::request_interrupt(SIGTERM);  // as if ^C landed just before the run
  const core::StudyResult res = core::run_study(opts);
  EXPECT_TRUE(res.interrupted);
  EXPECT_EQ(res.interrupt_signal, SIGTERM);
  ASSERT_EQ(res.outcomes.size(), 3u);
  for (const auto& o : res.outcomes)
    for (const auto& so : o.scheme) {
      EXPECT_FALSE(so.attempted);
      EXPECT_EQ(so.fail_kind, robust::FailKind::kSkipped);
    }
  // No cache for a hole-riddled study; journal kept for resumption.
  EXPECT_FALSE(std::filesystem::exists(opts.cache_path));
  EXPECT_TRUE(std::filesystem::exists(opts.journal_path));

  // Clearing the flag and rerunning completes the study and removes the
  // journal — the resume path the CLI documents.
  robust::clear_interrupt();
  const core::StudyResult full = core::run_study(opts);
  EXPECT_FALSE(full.interrupted);
  for (const auto& o : full.outcomes)
    for (const auto& so : o.scheme) EXPECT_TRUE(so.ok) << so.error;
  EXPECT_FALSE(std::filesystem::exists(opts.journal_path));
  std::remove(opts.cache_path.c_str());
}

TEST_F(SupervisorTest, MidRunInterruptFinishesInFlightTraceAndSkipsRest) {
  // Slow spec 0 down (400ms of injected delay in MFACT) so the interrupter
  // thread reliably lands while the study is running; single worker thread
  // makes the skip set deterministic (traces 1 and 2 never start).
  robust::set_fault_plan(
      robust::parse_fault_plan("site=mfact,spec=0,kind=delay,delay_ms=400"));
  core::StudyOptions opts = mini_opts(3);
  opts.threads = 1;
  opts.journal_path = tmp_path("midrun_journal");
  std::remove(opts.journal_path.c_str());

  std::thread interrupter([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    robust::request_interrupt(SIGINT);
  });
  const core::StudyResult res = core::run_study(opts);
  interrupter.join();
  robust::clear_fault_plan();

  EXPECT_TRUE(res.interrupted);
  ASSERT_EQ(res.outcomes.size(), 3u);
  // Traces that never started are fully skipped...
  for (std::size_t i = 1; i < 3; ++i)
    for (const auto& so : res.outcomes[i].scheme)
      EXPECT_EQ(so.fail_kind, robust::FailKind::kSkipped) << "spec " << i;
  // ...and nothing was journaled as complete that wasn't (an interrupted
  // trace must be recomputed on resume, not restored).
  robust::clear_interrupt();
  const core::StudyResult resumed = core::run_study(opts);
  EXPECT_FALSE(resumed.interrupted);
  for (const auto& o : resumed.outcomes)
    for (const auto& so : o.scheme) EXPECT_TRUE(so.ok) << so.error;
}

TEST_F(SupervisorTest, ProcessModeInterruptBeforeRunSkipsAll) {
  core::StudyOptions opts = mini_opts(2);
  opts.isolate = core::IsolateMode::kProcess;
  robust::request_interrupt(SIGINT);
  const core::StudyResult res = core::run_study(opts);
  EXPECT_TRUE(res.interrupted);
  ASSERT_EQ(res.outcomes.size(), 2u);
  for (const auto& o : res.outcomes)
    for (const auto& so : o.scheme)
      EXPECT_EQ(so.fail_kind, robust::FailKind::kSkipped);
}

}  // namespace
}  // namespace hps
