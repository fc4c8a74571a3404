#include "core/runner.hpp"

#include <cmath>
#include <exception>
#include <string>
#include <system_error>
#include <vector>

#include "common/cpus.hpp"
#include "common/error.hpp"
#include "machine/machine.hpp"
#include "robust/fault.hpp"
#include "robust/interrupt.hpp"
#include "robust/supervisor.hpp"
#include "telemetry/telemetry.hpp"

namespace hps::core {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kMfact: return "mfact";
    case Scheme::kPacket: return "packet";
    case Scheme::kFlow: return "flow";
    case Scheme::kPacketFlow: return "packet-flow";
    default: return "?";
  }
}

std::optional<double> TraceOutcome::diff_total(Scheme sim) const {
  const auto& m = of(Scheme::kMfact);
  const auto& s = of(sim);
  if (!m.ok || !s.ok || m.total_time <= 0) return std::nullopt;
  return std::fabs(static_cast<double>(s.total_time) / static_cast<double>(m.total_time) -
                   1.0);
}

std::optional<double> TraceOutcome::diff_comm(Scheme sim) const {
  const auto& m = of(Scheme::kMfact);
  const auto& s = of(sim);
  if (!m.ok || !s.ok || m.comm_time <= 0) return std::nullopt;
  return std::fabs(static_cast<double>(s.comm_time) / static_cast<double>(m.comm_time) - 1.0);
}

namespace {

bool uses_subcomms(const trace::Trace& t) { return t.num_comms() > 1; }

bool uses_complex_grouping(const trace::Trace& t) {
  using trace::OpType;
  for (Rank r = 0; r < t.nranks(); ++r)
    for (const auto& e : t.rank(r).events)
      if (e.type == OpType::kAlltoallv || e.type == OpType::kGather ||
          e.type == OpType::kScatter)
        return true;
  return false;
}

simmpi::NetModelKind to_net_kind(Scheme s) {
  switch (s) {
    case Scheme::kPacket: return simmpi::NetModelKind::kPacket;
    case Scheme::kFlow: return simmpi::NetModelKind::kFlow;
    default: return simmpi::NetModelKind::kPacketFlow;
  }
}

/// Build the per-scheme fault context: inherit the ambient spec id (set by
/// the spec overload) and add this scheme plus its budget token.
robust::FaultContext scheme_fault_context(Scheme s, robust::CancelToken* token) {
  robust::FaultContext ctx = robust::current_fault_context();
  ctx.scheme = static_cast<int>(s);
  ctx.token = token;
  return ctx;
}

// A scheme already in flight when SIGINT/SIGTERM lands unwinds through its
// CancelToken (kInterrupted → kSkipped); this keeps the *next* schemes from
// even starting, so the worker reaches the journal/ledger flush quickly.
void mark_interrupted(SchemeOutcome& so) {
  so.attempted = false;
  so.ok = false;
  so.error = "study interrupted";
  so.fail_kind = robust::FailKind::kSkipped;
}

/// Why simulator `s` does not run on `t` at all, or nullptr if it does.
const char* skip_reason(const trace::Trace& t, Scheme s, const RunOptions& opts) {
  if (opts.mfact_only) return "skipped: MFACT-only degraded run (deadline/overload fallback)";
  if (opts.sst30_compat && s != Scheme::kPacketFlow &&
      (uses_subcomms(t) || (s == Scheme::kFlow && uses_complex_grouping(t))))
    return "unsupported by SST/Macro 3.0-era model (compat emulation)";
  return nullptr;
}

void run_mfact(const trace::Trace& t, const machine::MachineConfig& mc, const RunOptions& opts,
               TraceOutcome& out) {
  auto& reg = telemetry::Registry::global();
  SchemeOutcome& so = out.of(Scheme::kMfact);
  if (robust::interrupt_requested()) {
    mark_interrupted(so);
    return;
  }
  so.attempted = true;
  telemetry::Span span(reg, std::string("mfact ") + out.app, "scheme");
  span.arg("app", out.app);
  span.arg("ranks", std::to_string(out.ranks));
  robust::CancelToken token(opts.budget);
  robust::FaultScope fscope(scheme_fault_context(Scheme::kMfact, &token));
  // One multi-config replay gives baseline prediction, sensitivity sweep
  // and classification.
  const auto failure = robust::run_guarded([&] {
    mfact::ClassifyParams cp = opts.classify;
    cp.mfact.cancel = &token;
    double wall_total = 0;
    mfact::Classification cl;
    for (int rep = 0; rep < std::max(1, opts.timing_repeats); ++rep) {
      cl = mfact::classify(t, mc.net.link_bandwidth, mc.net.end_to_end_latency, cp);
      wall_total += cl.mfact_wall_seconds;
    }
    so.wall_seconds = wall_total / std::max(1, opts.timing_repeats);
    so.total_time = cl.sweep[mfact::kSweepBase].total_time;
    so.comm_time = cl.sweep[mfact::kSweepBase].comm_time_mean;
    const mfact::Counters& mc0 = cl.sweep[mfact::kSweepBase].counters;
    so.components.compute_ns = mc0.compute;
    so.components.p2p_ns = mc0.p2p;
    so.components.collective_ns = mc0.coll;
    so.components.wait_ns = mc0.wait;
    so.ok = true;
    out.app_class = cl.app_class;
    out.group = cl.group;
    out.bw_sensitivity = cl.bw_sensitivity;
    out.lat_sensitivity = cl.lat_sensitivity;
    out.features[trace::kF_CL] = cl.group == mfact::SensitivityGroup::kCommSensitive ? 1.0 : 0.0;
  });
  if (failure) {
    so.error = failure->message;
    so.fail_kind = failure->kind;
    reg.counter("scheme.mfact.errors").add(1);
  }
}

/// Run simulator `s` into `so`. Reads only the trace, the machine, the
/// options and out.app/out.ranks, so the simulators may run concurrently.
void run_simulator(const trace::Trace& t, const machine::MachineInstance& mi, Scheme s,
                   const RunOptions& opts, const TraceOutcome& out, SchemeOutcome& so) {
  auto& reg = telemetry::Registry::global();
  if (robust::interrupt_requested()) {
    mark_interrupted(so);
    return;
  }
  if (const char* why = skip_reason(t, s, opts)) {
    so.attempted = false;
    so.error = why;
    so.fail_kind = robust::FailKind::kSkipped;
    return;
  }
  so.attempted = true;
  telemetry::Span span(reg, std::string(scheme_name(s)) + " " + out.app, "scheme");
  span.arg("app", out.app);
  span.arg("ranks", std::to_string(out.ranks));
  robust::CancelToken token(opts.budget);
  robust::FaultScope fscope(scheme_fault_context(s, &token));
  const auto failure = robust::run_guarded([&] {
    double wall_total = 0;
    simmpi::ReplayResult rr;
    simmpi::ReplayConfig rc = opts.replay;
    rc.cancel = &token;
    try {
      for (int rep = 0; rep < std::max(1, opts.timing_repeats); ++rep) {
        rr = simmpi::replay_trace(t, mi, to_net_kind(s), rc);
        wall_total += rr.wall_seconds;
      }
    } catch (const simmpi::ReplayCancelled& e) {
      // Budget trip: keep the partial progress on the outcome, then let
      // the guard classify the cancellation.
      const simmpi::ReplayResult& p = e.partial();
      so.total_time = p.total_time;
      so.components = p.components;
      so.des_events = p.engine.events_processed;
      so.net = p.net;
      so.wall_seconds = p.wall_seconds;
      throw;
    }
    so.wall_seconds = wall_total / std::max(1, opts.timing_repeats);
    so.total_time = rr.total_time;
    so.comm_time = rr.comm_time_mean;
    so.components = rr.components;
    so.des_events = rr.engine.events_processed;
    so.net = rr.net;
    so.ok = true;
  });
  if (failure) {
    so.error = failure->message;
    so.fail_kind = failure->kind;
    reg.counter(std::string("scheme.") + scheme_name(s) + ".errors").add(1);
  }
}

/// The helper threads of one run_all_schemes call. Each holds one unit of
/// the budget until its scheme is done and runs under the caller's fault
/// context and trace id. join() (or the destructor) waits for all of them,
/// so no exit path leaves a helper running.
class Helpers {
 public:
  explicit Helpers(SchemeThreads& budget) : budget_(budget) {}
  ~Helpers() { threads_.clear(); }  // join before errors_ goes away

  /// Start `fn` on a helper if the budget has room. false: the budget is
  /// full or the thread could not start, and the caller runs `fn` itself.
  bool start(std::function<void()> fn) {
    if (!budget_.try_acquire()) return false;
    try {
      threads_.push_back(budget_.start(
          [this, fn = std::move(fn), ctx = robust::current_fault_context(),
           trace_id = telemetry::current_trace_id(), error = &errors_[threads_.size()]] {
            const robust::FaultScope fscope(ctx);
            const telemetry::TraceIdScope tscope(trace_id);
            try {
              fn();
            } catch (...) {
              *error = std::current_exception();
            }
            budget_.release();
          }));
    } catch (const std::system_error&) {
      budget_.release();
      return false;
    }
    telemetry::Registry::global().counter("core.scheme_helpers").add(1);
    return true;
  }

  /// Wait for every helper; rethrow what escaped one, as the serial run
  /// would have.
  void join() {
    threads_.clear();
    for (const std::exception_ptr& e : errors_)
      if (e) std::rethrow_exception(e);
  }

 private:
  SchemeThreads& budget_;
  std::vector<std::jthread> threads_;
  std::exception_ptr errors_[3];  // one per simulator that may go to a helper
};

}  // namespace

SchemeThreads::SchemeThreads(int capacity, Starter start)
    : capacity_(capacity),
      start_(start != nullptr ? start
                              : [](std::function<void()> fn) { return std::jthread(std::move(fn)); }) {}

SchemeThreads& SchemeThreads::process() {
  static SchemeThreads budget(usable_cpus());
  return budget;
}

bool SchemeThreads::try_acquire() {
  int n = running_.load();
  while (n < capacity_)
    if (running_.compare_exchange_weak(n, n + 1)) return true;
  return false;
}

TraceOutcome run_all_schemes(const trace::Trace& t, const RunOptions& opts) {
  HPS_REQUIRE(opts.replay.timeline == nullptr,
              "run_all_schemes: a replay timeline cannot record concurrent schemes; "
              "call simmpi::replay_trace with it instead");
  auto& reg = telemetry::Registry::global();
  reg.counter("core.traces").add(1);
  telemetry::Span trace_span(reg, t.meta().app + "/" + t.meta().variant, "trace");
  trace_span.arg("machine", t.meta().machine);

  TraceOutcome out;
  out.app = t.meta().app;
  out.machine = t.meta().machine;
  out.ranks = t.nranks();
  out.events = t.total_events();
  out.measured_total = t.measured_total();
  out.measured_comm = t.measured_comm_mean();

  const auto stats = trace::compute_stats(t);
  out.features = trace::extract_features(t.meta(), stats);

  const machine::MachineConfig mc = machine::machine_by_name(t.meta().machine);
  const machine::MachineInstance mi(mc, t.nranks(), t.meta().ranks_per_node);

  // Packet and flow go to helpers when the budget has room; this thread runs
  // MFACT, then the rest in the serial order. Before each simulator it runs
  // itself, it hands the ones after it to helpers if room has opened since
  // (a study's workers free their seats as they run out of traces).
  std::optional<SchemeThreads::Seat> seat;
  SchemeThreads* budget = opts.scheme_threads;
  if (budget == nullptr) {
    budget = &SchemeThreads::process();
    seat.emplace(*budget);
  }
  Helpers helpers(*budget);
  bool on_helper[static_cast<int>(Scheme::kNumSchemes)] = {};
  const auto offload = [&](Scheme s) {
    bool& started = on_helper[static_cast<int>(s)];
    if (!started && skip_reason(t, s, opts) == nullptr && !robust::in_supervised_worker())
      started = helpers.start([&, s] { run_simulator(t, mi, s, opts, out, out.of(s)); });
  };
  offload(Scheme::kPacket);
  offload(Scheme::kFlow);

  run_mfact(t, mc, opts, out);
  constexpr Scheme kSims[] = {Scheme::kPacket, Scheme::kFlow, Scheme::kPacketFlow};
  for (std::size_t i = 0; i < std::size(kSims); ++i) {
    if (on_helper[static_cast<int>(kSims[i])]) continue;
    for (std::size_t j = i + 1; j < std::size(kSims); ++j) offload(kSims[j]);
    run_simulator(t, mi, kSims[i], opts, out, out.of(kSims[i]));
  }
  helpers.join();
  return out;
}

TraceOutcome run_all_schemes(const workloads::TraceSpec& spec, const RunOptions& opts) {
  // Ambient fault context for the whole spec: trace generation and every
  // scheme run under it match `spec=<id>` fault rules.
  robust::FaultContext fctx = robust::current_fault_context();
  fctx.spec_id = spec.id;
  robust::FaultScope fscope(fctx);

  std::optional<trace::Trace> t;
  const auto failure = robust::run_guarded([&] {
    telemetry::Span span("generate " + spec.app + "#" + std::to_string(spec.id), "generate");
    t.emplace(workloads::generate_spec(spec));
  });
  if (failure) {
    // Generation failed: the trace never existed, so no scheme was attempted;
    // all four report the structured generation failure.
    TraceOutcome out;
    out.spec_id = spec.id;
    out.app = spec.app;
    for (int i = 0; i < static_cast<int>(Scheme::kNumSchemes); ++i) {
      out.scheme[i].error = "trace generation failed: " + failure->message;
      out.scheme[i].fail_kind = failure->kind;
    }
    return out;
  }
  TraceOutcome out = run_all_schemes(*t, opts);
  out.spec_id = spec.id;
  return out;
}

}  // namespace hps::core
