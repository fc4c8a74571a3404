// corpus-sim and corpus-model: the paper's study as users run it, and the
// cheap modeling path the serving fallback takes.
//
// Untraced, each trace goes through the program's public entry point
// (core::run_all_schemes) and the pass ends with
// core::evaluate_decision_model. Traced, each trace is predicted both ways:
// once untraced, and once by the same calls one layer down (generation, the
// trace codec, features, mfact::classify, the machine instance,
// simmpi::replay_trace per network model), each timed and kept as a span in
// a telemetry::Registry of the run's own. The two must agree, and their
// time difference is the tracing overhead.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/decision.hpp"
#include "core/runner.hpp"
#include "machine/machine.hpp"
#include "mfact/classify.hpp"
#include "percentile.hpp"
#include "robust/cancel.hpp"
#include "simmpi/replayer.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/features.hpp"
#include "trace/io.hpp"
#include "workloads.hpp"
#include "workloads/corpus.hpp"

namespace perfbench {

namespace {

using namespace hps;
using Clock = std::chrono::steady_clock;
using core::Scheme;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A layer call timed from outside: its duration, from a steady-clock pair,
/// is added to `*seconds`, and the call is kept as a span in `reg`.
class Timed {
 public:
  Timed(telemetry::Registry& reg, std::string name, double* seconds)
      : span_(reg, std::move(name), "perfbench"), seconds_(seconds) {}
  ~Timed() { *seconds_ += since(t0_); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  telemetry::Span span_;
  double* seconds_;
  Clock::time_point t0_ = Clock::now();
};

constexpr Scheme kSims[] = {Scheme::kPacket, Scheme::kFlow, Scheme::kPacketFlow};

/// Metric-name form of a simulator scheme ("packet-flow" reads "packetflow").
const char* key(Scheme s) {
  switch (s) {
    case Scheme::kPacket: return "packet";
    case Scheme::kFlow: return "flow";
    case Scheme::kPacketFlow: return "packetflow";
    default: return "mfact";
  }
}

simmpi::NetModelKind net_kind(Scheme s) {
  switch (s) {
    case Scheme::kPacket: return simmpi::NetModelKind::kPacket;
    case Scheme::kFlow: return simmpi::NetModelKind::kFlow;
    default: return simmpi::NetModelKind::kPacketFlow;
  }
}

/// One digest line per trace x scheme: everything the prediction consists
/// of, never a wall time.
std::string digest_line(const core::TraceOutcome& o, Scheme s) {
  const core::SchemeOutcome& so = o.of(s);
  std::ostringstream os;
  os << o.app << ' ' << o.ranks << ' ' << o.events << ' ' << so.ok << ' '
     << static_cast<int>(so.fail_kind) << ' ' << so.total_time << ' ' << so.comm_time << ' '
     << so.des_events << ' ' << so.net.packets;
  if (s == Scheme::kMfact)
    os << ' ' << mfact::app_class_name(o.app_class) << ' ' << mfact::group_name(o.group);
  return std::to_string(o.spec_id) + ' ' + core::scheme_name(s) + ' ' + hash_hex(os.str());
}

std::string decision_line(const core::DecisionEvaluation& ev) {
  std::ostringstream os;
  os.precision(17);
  os << ev.positives << ' ' << ev.total << ' ' << ev.cv.success_rate();
  for (const int f : ev.final_model.features) os << ' ' << f;
  return "decision " + hash_hex(os.str());
}

/// The outcomes of one pass over the specs and what they cost.
struct Pass {
  std::vector<core::TraceOutcome> outcomes;
  std::vector<std::string> digest;
  double study_s = 0;
  double scheme_s[static_cast<int>(Scheme::kNumSchemes)] = {};
  std::uint64_t attempted = 0, failed = 0;
  core::DecisionEvaluation decision;
  bool have_decision = false;

  void add(core::TraceOutcome o) {
    for (int i = 0; i < static_cast<int>(Scheme::kNumSchemes); ++i)
      scheme_s[i] += o.scheme[i].wall_seconds;
    outcomes.push_back(std::move(o));
  }
};

/// Checks that hold for every seed: the expected schemes succeeded with a
/// plausible prediction and the others were skipped. Returns the number of
/// failed operations.
std::uint64_t check_outcome(const core::TraceOutcome& o, bool simulate) {
  std::uint64_t failed = 0;
  for (int i = 0; i < static_cast<int>(Scheme::kNumSchemes); ++i) {
    const auto s = static_cast<Scheme>(i);
    const core::SchemeOutcome& so = o.of(s);
    if (s != Scheme::kMfact && !simulate) {
      if (so.attempted || so.fail_kind != robust::FailKind::kSkipped) ++failed;
      continue;
    }
    const bool plausible = so.ok && so.total_time > 0 && so.comm_time > 0 &&
                           so.comm_time <= so.total_time &&
                           (s == Scheme::kMfact || so.des_events > 0);
    if (!plausible) {
      ++failed;
      std::fprintf(stderr, "perfbench: spec %d %s failed: %s\n", o.spec_id,
                   core::scheme_name(s), so.error.c_str());
    }
  }
  return failed;
}

/// The decision model over the pass's outcomes.
void decide(Pass& p) {
  try {
    p.decision = core::evaluate_decision_model(p.outcomes);
    p.have_decision = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: decision model failed: %s\n", e.what());
  }
}

/// Counts and digests a finished pass.
void finish_pass(Pass& p, bool simulate) {
  const int nschemes = simulate ? static_cast<int>(Scheme::kNumSchemes) : 1;
  for (const core::TraceOutcome& o : p.outcomes) {
    p.attempted += static_cast<std::uint64_t>(nschemes);
    p.failed += check_outcome(o, simulate);
    for (int i = 0; i < nschemes; ++i) p.digest.push_back(digest_line(o, static_cast<Scheme>(i)));
  }
  if (!simulate) return;
  ++p.attempted;
  if (!p.have_decision || p.decision.total == 0) ++p.failed;
  else p.digest.push_back(decision_line(p.decision));
}

double within5_share(const std::vector<core::TraceOutcome>& outcomes) {
  int n = 0, within = 0;
  for (const core::TraceOutcome& o : outcomes)
    if (const auto d = o.diff_total(Scheme::kPacketFlow)) {
      ++n;
      within += *d <= 0.05 ? 1 : 0;
    }
  return n > 0 ? static_cast<double>(within) / n : 0;
}

std::vector<workloads::TraceSpec> corpus_sim_specs(const Options& opts) {
  workloads::CorpusOptions co;
  co.seed = opts.seed;
  co.duration_scale = 0.05;
  std::vector<workloads::TraceSpec> every5;
  for (workloads::TraceSpec& s : workloads::build_corpus_specs(co))
    if (s.id % 5 == 0) every5.push_back(std::move(s));
  return every5;
}

std::vector<workloads::TraceSpec> corpus_model_specs(const Options& opts) {
  workloads::CorpusOptions co;
  co.seed = opts.seed;
  co.duration_scale = 1.0;
  return workloads::build_corpus_specs(co);
}

/// Per-layer tallies of a traced pass.
struct Layers {
  double gen_s = 0, features_s = 0, io_s = 0, mfact_s = 0, topo_s = 0, cv_s = 0;
  std::uint64_t trace_events = 0, io_bytes = 0, cv_splits = 0;
  struct Sim {
    double replay_s = 0;
    std::uint64_t messages = 0, events = 0, max_queue_depth = 0, bytes = 0, packets = 0,
                  queue_events = 0, rate_updates = 0, constraints_visited = 0;
  } sim[3];
};

/// MFACT exactly as core::run_all_schemes runs it, one layer down. Like it,
/// every layer call gets a cancel token with the (unlimited) default budget:
/// the token selects the engines' budget-checking loops, so leaving it out
/// would time a faster program than the one users run.
void model_trace(const trace::Trace& t, core::TraceOutcome& out, Layers& L,
                 telemetry::Registry& reg) {
  out.app = t.meta().app;
  out.machine = t.meta().machine;
  out.ranks = t.nranks();
  out.events = t.total_events();
  out.measured_total = t.measured_total();
  out.measured_comm = t.measured_comm_mean();

  {
    const Timed timed(reg, "trace.features", &L.features_s);
    out.features = trace::extract_features(t.meta(), trace::compute_stats(t));
  }

  const machine::MachineConfig mc = machine::machine_by_name(t.meta().machine);
  core::SchemeOutcome& so = out.of(Scheme::kMfact);
  so.attempted = true;
  const Timed timed(reg, "mfact.classify", &L.mfact_s);
  try {
    robust::CancelToken token(robust::Budget{});
    mfact::ClassifyParams cp;
    cp.mfact.cancel = &token;
    const mfact::Classification cl =
        mfact::classify(t, mc.net.link_bandwidth, mc.net.end_to_end_latency, cp);
    so.wall_seconds = cl.mfact_wall_seconds;
    so.total_time = cl.sweep[mfact::kSweepBase].total_time;
    so.comm_time = cl.sweep[mfact::kSweepBase].comm_time_mean;
    so.ok = true;
    out.app_class = cl.app_class;
    out.group = cl.group;
    out.bw_sensitivity = cl.bw_sensitivity;
    out.lat_sensitivity = cl.lat_sensitivity;
    out.features[trace::kF_CL] = cl.group == mfact::SensitivityGroup::kCommSensitive ? 1.0 : 0.0;
  } catch (const std::exception& e) {
    so.error = e.what();
    so.fail_kind = robust::FailKind::kError;
  }
}

/// The machine instance core::run_all_schemes builds for every trace, even
/// when it only models.
machine::MachineInstance build_machine(const trace::Trace& t, Layers& L,
                                       telemetry::Registry& reg) {
  const Timed timed(reg, "topo.machine_instance", &L.topo_s);
  return machine::MachineInstance(machine::machine_by_name(t.meta().machine), t.nranks(),
                                  t.meta().ranks_per_node);
}

trace::Trace generate(const workloads::TraceSpec& spec, Layers& L, telemetry::Registry& reg) {
  trace::Trace t = [&] {
    const Timed timed(reg, "workloads.generate", &L.gen_s);
    return workloads::generate_spec(spec);
  }();
  L.trace_events += t.total_events();
  return t;
}

// ---------------------------------------------------------------- corpus-sim

core::TraceOutcome sim_untraced(const workloads::TraceSpec& spec) {
  return core::run_all_schemes(spec);
}

core::TraceOutcome sim_traced(const workloads::TraceSpec& spec, Layers& L,
                              telemetry::Registry& reg) {
  core::TraceOutcome out;
  out.spec_id = spec.id;
  const trace::Trace t = generate(spec, L, reg);
  model_trace(t, out, L, reg);
  const machine::MachineInstance mi = build_machine(t, L, reg);
  for (int k = 0; k < 3; ++k) {
    const Scheme s = kSims[k];
    core::SchemeOutcome& so = out.of(s);
    so.attempted = true;
    const Timed timed(reg, std::string("simmpi.replay.") + key(s), &L.sim[k].replay_s);
    try {
      robust::CancelToken token(robust::Budget{});
      simmpi::ReplayConfig rc;
      rc.cancel = &token;
      const simmpi::ReplayResult rr = simmpi::replay_trace(t, mi, net_kind(s), rc);
      so.ok = true;
      so.wall_seconds = rr.wall_seconds;
      so.total_time = rr.total_time;
      so.comm_time = rr.comm_time_mean;
      so.des_events = rr.engine.events_processed;
      so.net = rr.net;
      Layers::Sim& m = L.sim[k];
      m.messages += rr.net.messages;
      m.events += rr.engine.events_processed;
      m.max_queue_depth = std::max<std::uint64_t>(m.max_queue_depth, rr.engine.max_queue_depth);
      m.bytes += rr.net.bytes;
      m.packets += rr.net.packets;
      m.queue_events += rr.net.queue_events;
      m.rate_updates += rr.net.rate_updates;
      m.constraints_visited += rr.net.ripple_iterations;
    } catch (const std::exception& e) {
      so.error = e.what();
      so.fail_kind = robust::FailKind::kError;
    }
  }
  return out;
}

// -------------------------------------------------------------- corpus-model

/// The in-memory trace codec round trip of every corpus-model prediction.
trace::Trace round_trip(const trace::Trace& t, std::uint64_t* bytes) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  trace::write_binary(t, buf);
  *bytes += static_cast<std::uint64_t>(buf.tellp());
  buf.seekg(0);
  return trace::read_binary(buf);
}

bool same_shape(const trace::Trace& a, const trace::Trace& b) {
  return a.nranks() == b.nranks() && a.total_events() == b.total_events() &&
         a.meta().app == b.meta().app && a.meta().machine == b.meta().machine;
}

/// A codec round trip that changed the trace fails the prediction.
void check_round_trip(const trace::Trace& t, const trace::Trace& back, core::TraceOutcome& o) {
  if (same_shape(t, back)) return;
  core::SchemeOutcome& so = o.of(Scheme::kMfact);
  so.ok = false;
  so.error = "trace codec round trip changed the trace";
}

core::TraceOutcome model_untraced(const workloads::TraceSpec& spec) {
  core::RunOptions ro;
  ro.mfact_only = true;
  std::uint64_t bytes = 0;
  const trace::Trace t = workloads::generate_spec(spec);
  const trace::Trace back = round_trip(t, &bytes);
  core::TraceOutcome o = core::run_all_schemes(back, ro);
  o.spec_id = spec.id;
  check_round_trip(t, back, o);
  return o;
}

core::TraceOutcome model_traced(const workloads::TraceSpec& spec, Layers& L,
                                telemetry::Registry& reg) {
  core::TraceOutcome out;
  out.spec_id = spec.id;
  const trace::Trace t = generate(spec, L, reg);
  const trace::Trace back = [&] {
    const Timed timed(reg, "trace.codec", &L.io_s);
    return round_trip(t, &L.io_bytes);
  }();
  model_trace(back, out, L, reg);
  build_machine(back, L, reg);
  for (const Scheme s : kSims) out.of(s).fail_kind = robust::FailKind::kSkipped;
  check_round_trip(t, back, out);
  return out;
}

// ------------------------------------------------------------------- common

double per_event_ns(double seconds, std::uint64_t events) {
  return events > 0 ? seconds * 1e9 / static_cast<double>(events) : 0;
}

void add_layers(Metrics& m, const Layers& L) {
  m["workloads.gen_s"] = {L.gen_s, "s"};
  m["workloads.trace_events"] = {static_cast<double>(L.trace_events), "count"};
  m["workloads.ns_per_event"] = {per_event_ns(L.gen_s, L.trace_events), "ns"};
  m["trace.io_s"] = {L.io_s, "s"};
  m["trace.io_bytes"] = {static_cast<double>(L.io_bytes), "bytes"};
  m["trace.features_s"] = {L.features_s, "s"};
  m["mfact.s"] = {L.mfact_s, "s"};
  m["mfact.replayed_events"] = {static_cast<double>(L.trace_events), "count"};
  m["mfact.ns_per_event"] = {per_event_ns(L.mfact_s, L.trace_events), "ns"};
  m["topo.build_s"] = {L.topo_s, "s"};
  for (int k = 0; k < 3; ++k) {
    const Layers::Sim& s = L.sim[k];
    const std::string n = key(kSims[k]);
    m["simmpi." + n + ".replay_s"] = {s.replay_s, "s"};
    m["simmpi." + n + ".messages"] = {static_cast<double>(s.messages), "count"};
    m["des." + n + ".events"] = {static_cast<double>(s.events), "count"};
    m["des." + n + ".ns_per_event"] = {per_event_ns(s.replay_s, s.events), "ns"};
    m["des." + n + ".events_per_message"] = {
        s.messages > 0 ? static_cast<double>(s.events) / static_cast<double>(s.messages) : 0,
        "ratio"};
    m["des." + n + ".max_queue_depth"] = {static_cast<double>(s.max_queue_depth), "count"};
    m["simnet." + n + ".bytes"] = {static_cast<double>(s.bytes), "bytes"};
  }
  const Layers::Sim& pk = L.sim[0];
  const Layers::Sim& fl = L.sim[1];
  const Layers::Sim& pf = L.sim[2];
  m["simnet.packet.packets"] = {static_cast<double>(pk.packets), "count"};
  m["simnet.packet.queue_events"] = {static_cast<double>(pk.queue_events), "count"};
  m["simnet.packetflow.packets"] = {static_cast<double>(pf.packets), "count"};
  m["simnet.packetflow.contended_share"] = {
      pf.packets > 0 ? static_cast<double>(pf.queue_events) / static_cast<double>(pf.packets) : 0,
      "ratio"};
  m["maxmin.rate_updates"] = {static_cast<double>(fl.rate_updates), "count"};
  m["maxmin.constraints_visited"] = {static_cast<double>(fl.constraints_visited), "count"};
  m["maxmin.visits_per_update"] = {
      fl.rate_updates > 0
          ? static_cast<double>(fl.constraints_visited) / static_cast<double>(fl.rate_updates)
          : 0,
      "ratio"};
  m["stats.cv_s"] = {L.cv_s, "s"};
  m["stats.cv_splits"] = {static_cast<double>(L.cv_splits), "count"};
}

/// Study metrics of one pass, in the names both the untraced (end-to-end)
/// and the traced (per-layer) results use.
void add_study(Metrics& m, const Pass& p, bool simulate) {
  m["study_s"] = {p.study_s, "s"};
  m["mfact_s"] = {p.scheme_s[0], "s"};
  if (!simulate) return;
  m["packet_s"] = {p.scheme_s[1], "s"};
  m["flow_s"] = {p.scheme_s[2], "s"};
  m["packetflow_s"] = {p.scheme_s[3], "s"};
  m["within5_share"] = {within5_share(p.outcomes), "share"};
  m["predictor_success"] = {p.have_decision ? p.decision.cv.success_rate() : 0, "share"};
}

std::string reference_path(const Options& opts, const char* workload) {
  if (opts.reference_dir.empty() || opts.max_specs > 0) return {};
  return opts.reference_dir + "/" + workload + "-seed" + std::to_string(opts.seed) + ".txt";
}

/// Compares a pass's digest with the seed's reference (or rewrites it);
/// returns the mismatches, which count as failed operations.
std::uint64_t check_reference(const Options& opts, const char* workload, const Pass& p) {
  const std::string path = reference_path(opts, workload);
  if (path.empty()) return 0;
  if (opts.write_reference) {
    if (!write_digest(p.digest, path)) throw std::runtime_error("cannot write " + path);
    std::fprintf(stderr, "perfbench: wrote %s (%zu lines)\n", path.c_str(), p.digest.size());
    return 0;
  }
  const DigestCheck c = check_digest(p.digest, path);
  if (!c.have_reference)
    std::fprintf(stderr, "perfbench: no reference digest for seed %llu; invariants only\n",
                 static_cast<unsigned long long>(opts.seed));
  return c.mismatched;
}

/// Digest lines of `traced` that differ from `untraced`'s, reported on stderr.
std::uint64_t count_disagreements(const Pass& untraced, const Pass& traced) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < std::max(untraced.digest.size(), traced.digest.size()); ++i)
    if (i >= untraced.digest.size() || i >= traced.digest.size() ||
        untraced.digest[i] != traced.digest[i]) {
      ++n;
      std::fprintf(stderr, "perfbench: traced prediction disagrees: %s vs %s\n",
                   i < traced.digest.size() ? traced.digest[i].c_str() : "(none)",
                   i < untraced.digest.size() ? untraced.digest[i].c_str() : "(none)");
    }
  return n;
}

/// One study workload: its specs and its two ways of predicting a trace.
struct Study {
  const char* name;
  std::vector<workloads::TraceSpec> (*specs)(const Options&);
  core::TraceOutcome (*untraced)(const workloads::TraceSpec&);
  core::TraceOutcome (*traced)(const workloads::TraceSpec&, Layers&, telemetry::Registry&);
  bool simulate;  ///< runs the simulators and the decision model
};

/// Set-up of a study workload: building its spec list and one warm-up
/// prediction of its first trace, so the timed passes start with the
/// process's allocator and code warm. It takes milliseconds, so one
/// preempted repetition would move it by half; it is repeated and the
/// median is reported.
std::vector<workloads::TraceSpec> set_up(const Options& opts, const Study& st,
                                         double* setup_s) {
  std::vector<double> times;
  std::vector<workloads::TraceSpec> specs;
  for (int rep = 0; rep < 15; ++rep) {
    const auto t0 = Clock::now();
    specs = st.specs(opts);
    st.untraced(specs.front());
    times.push_back(since(t0));
  }
  if (opts.max_specs > 0 && static_cast<int>(specs.size()) > opts.max_specs)
    specs.resize(static_cast<std::size_t>(opts.max_specs));
  *setup_s = median(times);
  return specs;
}

Pass untraced_pass(const Study& st, const std::vector<workloads::TraceSpec>& specs) {
  Pass p;
  const auto t0 = Clock::now();
  for (const workloads::TraceSpec& spec : specs) p.add(st.untraced(spec));
  if (st.simulate) decide(p);
  p.study_s = since(t0);
  finish_pass(p, st.simulate);
  return p;
}

RunResult run_study(const Options& opts, const Study& st) {
  RunResult r;
  double setup_s = 0;
  const std::vector<workloads::TraceSpec> specs = set_up(opts, st, &setup_s);

  if (!opts.trace) {
    // Another pass starts only if one more of the same length still ends
    // inside the window.
    std::vector<Metrics> passes;
    const auto t0 = Clock::now();
    double last = 0;
    do {
      const Pass p = untraced_pass(st, specs);
      r.attempted += p.attempted;
      r.failed += p.failed + check_reference(opts, st.name, p);
      last = p.study_s;
      Metrics m;
      add_study(m, p, st.simulate);
      passes.push_back(std::move(m));
    } while (since(t0) + last <= opts.seconds);
    for (const auto& [metric, v] : passes.front()) {
      std::vector<double> values;
      for (const Metrics& pm : passes) values.push_back(pm.at(metric).value);
      r.end_to_end[metric] = {median(values), v.unit};
    }
    r.end_to_end["setup_s"] = {setup_s, "s"};
    r.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    std::fprintf(stderr, "perfbench: %s seed %llu: %zu pass(es) of %zu specs\n", st.name,
                 static_cast<unsigned long long>(opts.seed), passes.size(), specs.size());
    return r;
  }

  // Traced: every trace is predicted both ways, alternating which goes
  // first, so warm-up and host drift fall on both sides of the overhead.
  Pass untraced, traced;
  telemetry::Registry reg;  // the run's own: spans only, the global one is untouched
  reg.set_tracing(true);
  Layers L;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const workloads::TraceSpec& spec = specs[i];
    const auto run_untraced = [&] {
      const auto t0 = Clock::now();
      untraced.add(st.untraced(spec));
      untraced.study_s += since(t0);
    };
    const auto run_traced = [&] {
      const Timed timed(reg, spec.app + "#" + std::to_string(spec.id), &traced.study_s);
      traced.add(st.traced(spec, L, reg));
    };
    if (i % 2 == 0) {
      run_untraced();
      run_traced();
    } else {
      run_traced();
      run_untraced();
    }
  }
  if (st.simulate) {
    const auto t0 = Clock::now();
    decide(untraced);
    untraced.study_s += since(t0);
    {
      const Timed timed(reg, "stats.decision_model", &L.cv_s);
      decide(traced);
    }
    traced.study_s += L.cv_s;
    if (traced.have_decision) L.cv_splits = traced.decision.cv.per_split.size();
  }
  finish_pass(untraced, st.simulate);
  finish_pass(traced, st.simulate);
  const std::uint64_t disagree = count_disagreements(untraced, traced);
  r.attempted = untraced.attempted + traced.attempted;
  r.failed = untraced.failed + traced.failed + disagree +
             check_reference(opts, st.name, untraced);

  Metrics& m = r.per_layer;
  add_layers(m, L);
  add_study(m, traced, st.simulate);
  m["trace.overhead_s"] = {traced.study_s - untraced.study_s, "s"};
  m["trace.untraced_study_s"] = {untraced.study_s, "s"};
  m["trace.spans"] = {static_cast<double>(reg.spans().size()), "count"};
  m["trace.digest_disagreements"] = {static_cast<double>(disagree), "count"};
  if (!opts.spans_path.empty() && !write_spans(reg, opts.spans_path))
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", opts.spans_path.c_str());
  return r;
}

}  // namespace

RunResult run_corpus_sim(const Options& opts) {
  return run_study(opts, {"corpus-sim", corpus_sim_specs, sim_untraced, sim_traced, true});
}

RunResult run_corpus_model(const Options& opts) {
  return run_study(opts, {"corpus-model", corpus_model_specs, model_untraced, model_traced,
                          false});
}

}  // namespace perfbench
