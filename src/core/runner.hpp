// Runs one trace through the four schemes the paper compares — MFACT
// modeling and SST-style packet, flow, and packet-flow simulation — on the
// machine the trace was collected on, recording predicted times and host
// wall-clock cost per scheme.
//
// The four share nothing mutable, so packet and flow may run on helper
// threads while the calling thread runs MFACT and then packet-flow. Helpers
// are drawn from a SchemeThreads budget; outcomes are the same bytes either
// way, wall_seconds aside.
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <thread>

#include "common/units.hpp"
#include "mfact/classify.hpp"
#include "obs/components.hpp"
#include "robust/guard.hpp"
#include "simmpi/replayer.hpp"
#include "trace/features.hpp"
#include "workloads/corpus.hpp"

namespace hps::core {

enum class Scheme : int { kMfact = 0, kPacket, kFlow, kPacketFlow, kNumSchemes };

const char* scheme_name(Scheme s);

/// Result of one scheme on one trace.
struct SchemeOutcome {
  bool attempted = false;
  bool ok = false;
  std::string error;          ///< set when attempted && !ok
  /// Structured failure class when !ok: error/oom/deadlock/budget/injected/
  /// unknown, kSkipped for compat skips or interrupted studies, or (under
  /// process isolation) kCrash/kTimeout for a worker the supervisor lost.
  /// kNone when the scheme succeeded. A budget trip still carries partial
  /// total_time/components/des_events.
  robust::FailKind fail_kind = robust::FailKind::kNone;
  /// Terminating signal of the isolated worker when fail_kind is kCrash
  /// (11 = SIGSEGV, 6 = SIGABRT, ...); 0 otherwise.
  std::int32_t signal = 0;
  SimTime total_time = 0;     ///< predicted application time
  SimTime comm_time = 0;      ///< predicted mean communication time
  double wall_seconds = 0;    ///< host time the scheme took
  /// Virtual-time decomposition summed over ranks. For the simulators this
  /// comes from the replayer's blocked-interval accounting; for MFACT from
  /// the base-configuration logical counters.
  obs::ComponentTimes components;
  std::uint64_t des_events = 0;  ///< DES events processed (0 for MFACT)
  simnet::NetStats net;          ///< network-model effort counters (0 for MFACT)
};

/// Everything the study needs to know about one trace.
struct TraceOutcome {
  int spec_id = -1;
  std::string app;
  std::string machine;
  Rank ranks = 0;
  std::uint64_t events = 0;
  SimTime measured_total = 0;  ///< synthesized ground-truth wall time
  SimTime measured_comm = 0;

  trace::FeatureVector features;  ///< Table III features (CL filled in)
  mfact::AppClass app_class = mfact::AppClass::kComputationBound;
  mfact::SensitivityGroup group = mfact::SensitivityGroup::kNotCommSensitive;
  double bw_sensitivity = 0;
  double lat_sensitivity = 0;

  SchemeOutcome scheme[static_cast<int>(Scheme::kNumSchemes)];

  const SchemeOutcome& of(Scheme s) const { return scheme[static_cast<int>(s)]; }
  SchemeOutcome& of(Scheme s) { return scheme[static_cast<int>(s)]; }

  /// |sim_total / mfact_total - 1| — the paper's DIFF_total. Returns nullopt
  /// when either scheme failed.
  std::optional<double> diff_total(Scheme sim) const;
  /// Same for the mean communication time.
  std::optional<double> diff_comm(Scheme sim) const;
};

/// A budget of scheme threads: the threads running run_all_schemes and the
/// helper threads they start. A helper starts only while fewer than
/// `capacity` scheme threads run, so a pool that already fills the budget
/// runs every scheme on its own threads.
class SchemeThreads {
 public:
  /// Starts a helper thread; throws std::system_error when it cannot, as
  /// std::jthread's constructor does.
  using Starter = std::jthread (*)(std::function<void()> fn);

  explicit SchemeThreads(int capacity, Starter start = nullptr);
  SchemeThreads(const SchemeThreads&) = delete;
  SchemeThreads& operator=(const SchemeThreads&) = delete;

  /// The budget of callers that name none: usable_cpus() threads (the
  /// affinity mask capped by the cgroup CPU quota), shared by the whole
  /// process.
  static SchemeThreads& process();

  /// RAII: counts the calling thread for its lifetime, even past capacity.
  class Seat {
   public:
    explicit Seat(SchemeThreads& budget) : budget_(budget) { budget_.running_.fetch_add(1); }
    ~Seat() { budget_.release(); }
    Seat(const Seat&) = delete;
    Seat& operator=(const Seat&) = delete;

   private:
    SchemeThreads& budget_;
  };

  /// Take one unit if fewer than capacity threads run.
  bool try_acquire();
  void release() { running_.fetch_sub(1); }
  int running() const { return running_.load(); }
  int capacity() const { return capacity_; }
  std::jthread start(std::function<void()> fn) const { return start_(std::move(fn)); }

 private:
  const int capacity_;
  const Starter start_;
  std::atomic<int> running_{0};
};

struct RunOptions {
  simmpi::ReplayConfig replay;
  mfact::ClassifyParams classify;
  /// Repeat wall-clock measurements and report the mean (the paper averages
  /// 10 runs; 1 keeps the full-corpus study affordable).
  int timing_repeats = 1;
  /// Emulate SST/Macro 3.0's trace-compatibility limits (§V-A: its packet
  /// and flow models cannot replay complex MPI grouping operations): the
  /// packet model skips traces that use sub-communicators, and the flow
  /// model additionally skips traces containing Alltoallv/Gather/Scatter.
  bool sst30_compat = false;
  /// Per-scheme execution budget (wall deadline, DES event cap, virtual-time
  /// horizon). Unlimited by default; when limited, a scheme that exhausts it
  /// degrades to a FailKind::kBudget outcome instead of hanging the study.
  robust::Budget budget;
  /// Graceful degradation (hpcsweepd overload/deadline fallback): run only
  /// the analytical MFACT model and mark the three simulator schemes
  /// FailKind::kSkipped — orders of magnitude cheaper than simulating, with
  /// the accuracy loss the paper quantifies. Off everywhere by default.
  bool mfact_only = false;
  /// Budget the packet and flow helper threads come from. nullptr: the
  /// process-wide budget, in which the call also counts its own thread.
  /// Otherwise the caller's thread is already counted (run_study seats each
  /// worker), and SchemeThreads(0) runs every scheme on the calling thread.
  /// Workers of a supervised process pool never start helpers.
  SchemeThreads* scheme_threads = nullptr;
};

/// Run all four schemes over a freshly generated trace for `spec`. Throws
/// hps::Error when opts.replay.timeline is set: one recorder cannot take
/// the intervals of concurrent replays (simmpi::replay_trace can).
TraceOutcome run_all_schemes(const workloads::TraceSpec& spec, const RunOptions& opts = {});

/// Run the schemes on an existing trace (spec_id stays -1).
TraceOutcome run_all_schemes(const trace::Trace& t, const RunOptions& opts = {});

}  // namespace hps::core
