// Integration tests for the core module: the four-scheme runner, DIFF
// metrics, study caching, SST 3.0 compatibility emulation, and the
// need-for-simulation decision pipeline on a miniature corpus.
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <system_error>

#include "common/cpus.hpp"
#include "core/decision.hpp"
#include "core/runner.hpp"
#include "core/study.hpp"
#include "obs/timeline.hpp"
#include "robust/fault.hpp"
#include "robust/supervisor.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/builder.hpp"
#include "trace/validate.hpp"
#include "workloads/generators.hpp"

namespace hps::core {
namespace {

workloads::GenParams small_params(const char* machine = "cielito") {
  workloads::GenParams p;
  p.ranks = 16;
  p.seed = 31;
  p.iter_factor = 0.2;
  p.machine = machine;
  return p;
}

TEST(Runner, AllSchemesSucceedOnSmallTrace) {
  const auto t = workloads::generate_app("MiniFE", small_params());
  const TraceOutcome o = run_all_schemes(t);
  for (int s = 0; s < static_cast<int>(Scheme::kNumSchemes); ++s) {
    EXPECT_TRUE(o.scheme[s].attempted);
    EXPECT_TRUE(o.scheme[s].ok) << scheme_name(static_cast<Scheme>(s)) << ": "
                                << o.scheme[s].error;
    EXPECT_GT(o.scheme[s].total_time, 0);
    EXPECT_GT(o.scheme[s].wall_seconds, 0.0);
  }
  EXPECT_GT(o.measured_total, 0);
  EXPECT_GT(o.events, 0u);
  EXPECT_EQ(o.app, "MiniFE");
}

TEST(Runner, DiffTotalComputed) {
  const auto t = workloads::generate_app("CG", small_params());
  const TraceOutcome o = run_all_schemes(t);
  const auto d = o.diff_total(Scheme::kPacketFlow);
  ASSERT_TRUE(d.has_value());
  EXPECT_GE(*d, 0.0);
  EXPECT_LT(*d, 1.0) << "model and simulation should roughly agree on a small trace";
}

TEST(Runner, ClassificationPopulatedAndClFeatureSet) {
  const auto t = workloads::generate_app("EP", small_params());
  const TraceOutcome o = run_all_schemes(t);
  EXPECT_EQ(o.app_class, mfact::AppClass::kComputationBound);
  EXPECT_EQ(o.features[trace::kF_CL], 0.0);
  EXPECT_DOUBLE_EQ(o.features[trace::kF_R], 16.0);
}

TEST(Runner, MfactIsFastest) {
  // Wall times compared across schemes are each taken alone: schemes on
  // helper threads contend with each other for the host.
  const auto t = workloads::generate_app("MG", small_params());
  SchemeThreads alone(0);
  RunOptions opts;
  opts.scheme_threads = &alone;
  const TraceOutcome o = run_all_schemes(t, opts);
  EXPECT_LT(o.of(Scheme::kMfact).wall_seconds, o.of(Scheme::kPacket).wall_seconds);
}

TEST(Runner, Sst30CompatSkipsUnsupported) {
  RunOptions opts;
  opts.sst30_compat = true;
  // CG uses row sub-communicators: packet and flow must be skipped.
  const auto cg = workloads::generate_app("CG", small_params());
  const TraceOutcome o = run_all_schemes(cg, opts);
  EXPECT_FALSE(o.of(Scheme::kPacket).attempted);
  EXPECT_FALSE(o.of(Scheme::kFlow).attempted);
  EXPECT_TRUE(o.of(Scheme::kPacketFlow).ok);
  // IS uses Alltoallv (complex grouping): only flow is skipped.
  const auto is = workloads::generate_app("IS", small_params());
  const TraceOutcome o2 = run_all_schemes(is, opts);
  EXPECT_TRUE(o2.of(Scheme::kPacket).ok);
  EXPECT_FALSE(o2.of(Scheme::kFlow).attempted);
}

TEST(Study, RunsMiniCorpusAndCaches) {
  StudyOptions opts;
  opts.corpus.limit = 3;
  opts.corpus.duration_scale = 0.1;
  opts.cache_path = std::string("/tmp/hps_test_cache_") + std::to_string(getpid()) + ".bin";
  std::remove(opts.cache_path.c_str());

  const StudyResult first = run_study(opts);
  EXPECT_FALSE(first.from_cache);
  ASSERT_EQ(first.outcomes.size(), 3u);
  for (const auto& o : first.outcomes) EXPECT_TRUE(o.of(Scheme::kMfact).ok);

  const StudyResult second = run_study(opts);
  EXPECT_TRUE(second.from_cache);
  ASSERT_EQ(second.outcomes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(second.outcomes[i].app, first.outcomes[i].app);
    EXPECT_EQ(second.outcomes[i].of(Scheme::kPacket).total_time,
              first.outcomes[i].of(Scheme::kPacket).total_time);
  }

  // A different option set must not reuse the cache.
  StudyOptions changed = opts;
  changed.corpus.duration_scale = 0.12;
  EXPECT_NE(study_cache_key(opts), study_cache_key(changed));
  std::remove(opts.cache_path.c_str());
}

TEST(Study, StaleSchemaKeyForcesRecompute) {
  // A cache written under a different key — e.g. by a build with another
  // obs::kObsSchemaVersion, which study_cache_key mixes in — must be ignored
  // and the study recomputed rather than misread.
  StudyOptions opts;
  opts.corpus.limit = 2;
  opts.corpus.duration_scale = 0.1;
  opts.cache_path =
      std::string("/tmp/hps_test_cache_stale_") + std::to_string(getpid()) + ".bin";
  std::remove(opts.cache_path.c_str());

  const StudyResult fresh = run_study(opts);
  EXPECT_FALSE(fresh.from_cache);

  // Rewrite the cache as an incompatible build would have keyed it.
  save_outcomes(fresh.outcomes, opts.cache_path, study_cache_key(opts) ^ 0x5eed);
  const StudyResult after_stale = run_study(opts);
  EXPECT_FALSE(after_stale.from_cache) << "stale key must force recompute";

  // The recompute rewrote the cache under the current key: now it hits.
  const StudyResult after_fix = run_study(opts);
  EXPECT_TRUE(after_fix.from_cache);
  std::remove(opts.cache_path.c_str());
}

TEST(Study, CacheRejectsWrongKey) {
  const std::string path =
      std::string("/tmp/hps_test_cache_key_") + std::to_string(getpid()) + ".bin";
  std::vector<TraceOutcome> outcomes(1);
  outcomes[0].app = "X";
  save_outcomes(outcomes, path, 1234);
  EXPECT_TRUE(load_outcomes(path, 1234).has_value());
  EXPECT_FALSE(load_outcomes(path, 9999).has_value());
  EXPECT_FALSE(load_outcomes("/nonexistent/file", 1234).has_value());
  std::remove(path.c_str());
}

TEST(Study, CacheRejectsTruncation) {
  // Every proper prefix of a valid cache must load as a miss — never a
  // crash, never a partial result.
  const std::string path =
      std::string("/tmp/hps_test_cache_trunc_") + std::to_string(getpid()) + ".bin";
  std::vector<TraceOutcome> outcomes(2);
  outcomes[0].app = "CG";
  outcomes[0].machine = "cielito";
  outcomes[1].app = "MiniFE";
  outcomes[1].scheme[1].error = "synthetic failure for string coverage";
  save_outcomes(outcomes, path, 77);
  std::string full;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    full = os.str();
  }
  ASSERT_TRUE(load_outcomes(path, 77).has_value());
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{4},
                                std::size_t{11}, std::size_t{15}, full.size() / 2,
                                full.size() - 1}) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(full.data(), static_cast<std::streamsize>(cut));
    os.close();
    EXPECT_FALSE(load_outcomes(path, 77).has_value()) << "truncated at " << cut;
  }
  std::remove(path.c_str());
}

TEST(Study, CacheSurvivesBitFlips) {
  // A bit-flipped cache may parse to garbage values or miss, but must never
  // escape load_outcomes as an exception — a corrupt length prefix used to
  // surface std::length_error/bad_alloc past the old hps::Error-only catch.
  const std::string path =
      std::string("/tmp/hps_test_cache_flip_") + std::to_string(getpid()) + ".bin";
  std::vector<TraceOutcome> outcomes(2);
  outcomes[0].app = "CG";
  outcomes[0].machine = "cielito";
  outcomes[1].app = "MiniFE";
  outcomes[1].scheme[0].error = "synthetic failure for string coverage";
  save_outcomes(outcomes, path, 99);
  std::string full;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    full = os.str();
  }
  for (std::size_t i = 0; i < full.size(); i += 3) {
    std::string bad = full;
    bad[i] = static_cast<char>(bad[i] ^ 0xff);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    os.close();
    EXPECT_NO_THROW(load_outcomes(path, 99)) << "flip at byte " << i;
  }
  std::remove(path.c_str());
}

/// Build a tiny synthetic outcome set with known labels for decision tests.
std::vector<TraceOutcome> synthetic_outcomes(int n, std::uint64_t seed) {
  std::vector<TraceOutcome> out;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    TraceOutcome o;
    o.spec_id = i;
    o.app = "synthetic";
    const bool sensitive = rng.uniform() < 0.45;
    o.group = sensitive ? mfact::SensitivityGroup::kCommSensitive
                        : mfact::SensitivityGroup::kNotCommSensitive;
    o.features[trace::kF_CL] = sensitive ? 1.0 : 0.0;
    o.features[trace::kF_R] = 64.0 + rng.uniform(0, 512);
    o.features[trace::kF_PoSYN] = rng.uniform(0, 50);
    o.features[trace::kF_PoC] = sensitive ? rng.uniform(20, 80) : rng.uniform(0, 20);
    auto& m = o.of(Scheme::kMfact);
    m.attempted = m.ok = true;
    m.total_time = kSecond;
    m.comm_time = kSecond / 10;
    auto& pf = o.of(Scheme::kPacketFlow);
    pf.attempted = pf.ok = true;
    // Sensitive traces diverge (DIFF ~ 3-10%), insensitive ~0.5%, plus a
    // little label noise so the predictor isn't trivially perfect.
    double diff = sensitive ? rng.uniform(0.025, 0.10) : rng.uniform(0.0, 0.015);
    if (rng.uniform() < 0.05) diff = 0.03;  // noise
    pf.total_time = static_cast<SimTime>((1.0 + diff) * kSecond);
    pf.comm_time = kSecond / 9;
    out.push_back(o);
  }
  return out;
}

TEST(Decision, DatasetBuiltFromEligibleRows) {
  auto outcomes = synthetic_outcomes(50, 7);
  outcomes[0].of(Scheme::kPacketFlow).ok = false;  // ineligible
  const auto ds = build_decision_dataset(outcomes);
  EXPECT_EQ(ds.n(), 49u);
  EXPECT_EQ(ds.p(), static_cast<std::size_t>(trace::kNumFeatures));
  EXPECT_EQ(ds.names[trace::kF_CL], "CL");
}

TEST(Decision, NaiveRuleMatchesGroupAgreement) {
  const auto outcomes = synthetic_outcomes(200, 8);
  const NaiveRuleResult naive = evaluate_naive_rule(outcomes);
  EXPECT_EQ(naive.tp + naive.tn + naive.fp + naive.fn, 200);
  // CL correlates strongly with the label by construction.
  EXPECT_GT(naive.success_rate, 0.75);
}

TEST(Decision, ModelBeatsOrMatchesNaiveRule) {
  const auto outcomes = synthetic_outcomes(220, 9);
  DecisionOptions opts;
  opts.cv.splits = 20;  // keep the test quick
  const DecisionEvaluation ev = evaluate_decision_model(outcomes, opts);
  EXPECT_EQ(ev.total, 220);
  EXPECT_GT(ev.cv.success_rate(), ev.naive.success_rate - 0.05);
  EXPECT_GT(ev.cv.success_rate(), 0.8);
  EXPECT_FALSE(ev.cv.variables.empty());
  EXPECT_LE(ev.final_model.features.size(), 5u);
}

TEST(Decision, FinalModelPredicts) {
  const auto outcomes = synthetic_outcomes(220, 10);
  DecisionOptions opts;
  opts.cv.splits = 15;
  const DecisionEvaluation ev = evaluate_decision_model(outcomes, opts);
  int correct = 0, n = 0;
  for (const auto& o : outcomes) {
    const auto d = o.diff_total(Scheme::kPacketFlow);
    if (!d) continue;
    const bool truth = *d > opts.diff_threshold;
    if (needs_simulation(ev.final_model, o) == truth) ++correct;
    ++n;
  }
  EXPECT_GT(static_cast<double>(correct) / n, 0.85);
}

TEST(Decision, ThresholdChangesLabels) {
  const auto outcomes = synthetic_outcomes(100, 11);
  DecisionOptions strict;
  strict.diff_threshold = 0.001;
  DecisionOptions lax;
  lax.diff_threshold = 0.5;
  int strict_pos = 0, lax_pos = 0;
  const auto ds_strict = build_decision_dataset(outcomes, strict);
  const auto ds_lax = build_decision_dataset(outcomes, lax);
  for (int y : ds_strict.y) strict_pos += y;
  for (int y : ds_lax.y) lax_pos += y;
  EXPECT_GT(strict_pos, lax_pos);
  EXPECT_EQ(lax_pos, 0);
}

TEST(Study, ThreadedRunMatchesSerial) {
  // The worker pool must produce outcomes identical to a serial run (same
  // specs, same seeds, order preserved by spec id slots).
  StudyOptions serial;
  serial.corpus.limit = 6;
  serial.corpus.duration_scale = 0.1;
  serial.threads = 1;
  StudyOptions pooled = serial;
  pooled.threads = 3;
  const auto a = run_study(serial);
  const auto b = run_study(pooled);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].app, b.outcomes[i].app);
    EXPECT_EQ(a.outcomes[i].of(Scheme::kMfact).total_time,
              b.outcomes[i].of(Scheme::kMfact).total_time);
    EXPECT_EQ(a.outcomes[i].of(Scheme::kPacketFlow).total_time,
              b.outcomes[i].of(Scheme::kPacketFlow).total_time);
  }
}

TEST(Runner, TimingRepeatsAveraged) {
  const auto t = workloads::generate_app("CMC", small_params());
  RunOptions opts;
  opts.timing_repeats = 2;
  const TraceOutcome o = run_all_schemes(t, opts);
  // Results must be identical regardless of repeats (timing only changes).
  const TraceOutcome single = run_all_schemes(t);
  EXPECT_EQ(o.of(Scheme::kPacketFlow).total_time, single.of(Scheme::kPacketFlow).total_time);
}

// --- Scheme concurrency ----------------------------------------------------

/// Turns the global registry's metrics (and optionally spans) on for a test
/// and restores it afterwards.
class GlobalTelemetry {
 public:
  explicit GlobalTelemetry(bool tracing = false)
      : was_enabled_(reg().enabled()), was_tracing_(reg().tracing()) {
    reg().set_enabled(true);
    reg().set_tracing(tracing);
    reg().reset_values();
  }
  ~GlobalTelemetry() {
    reg().reset_values();
    reg().set_enabled(was_enabled_);
    reg().set_tracing(was_tracing_);
  }
  static telemetry::Registry& reg() { return telemetry::Registry::global(); }
  static std::uint64_t helpers() { return reg().snapshot().value("core.scheme_helpers"); }

 private:
  bool was_enabled_, was_tracing_;
};

/// Alltoall, Alltoallv with empty and rendezvous-sized blocks, and the ring
/// Allgather, on 100 ranks and on a 70-member sub-communicator: every O(n)
/// schedule spans more than one window.
trace::Trace windowed_collectives_trace() {
  trace::TraceMeta m;
  m.app = "windows";
  m.machine = "cielito";
  m.nranks = 100;
  m.ranks_per_node = 4;
  trace::Trace t(m);
  std::vector<Rank> members;
  for (Rank r = 0; r < m.nranks; ++r)
    if (r % 10 < 7) members.push_back(r);
  const CommId sub = t.add_comm(members);
  const auto block = [](Rank from, Rank to) -> std::uint64_t {
    const int h = (from * 31 + to * 17) % 7;
    return h == 0 ? 0 : h == 1 ? 12 * KiB : 64u * static_cast<std::uint64_t>(h);
  };
  for (Rank r = 0; r < m.nranks; ++r) {
    trace::RankBuilder b(t, r);
    b.compute(1000 + 13 * r);
    b.alltoall(256, 0);
    std::vector<std::uint64_t> v;
    for (Rank j = 0; j < m.nranks; ++j) v.push_back(block(r, j));
    b.alltoallv(v, 0);
    b.allgather(512, 0);
    if (r % 10 < 7) {
      v.clear();
      for (const Rank j : members) v.push_back(block(j, r));
      b.alltoallv(v, 0, sub);
      b.allgather(128, 0, sub);
    }
    b.compute(500);
  }
  trace::validate_or_throw(t);
  return t;
}

std::string outcome_bytes(TraceOutcome o) {
  for (SchemeOutcome& so : o.scheme) so.wall_seconds = 0;
  return serialize_outcome(o);
}

TEST(SchemeConcurrency, ConcurrentAndSerialOutcomesAreTheSameBytes) {
  const GlobalTelemetry telemetry;
  const trace::Trace traces[] = {windowed_collectives_trace(),
                                 workloads::generate_app("IS", small_params()),
                                 workloads::generate_app("FT", small_params()),
                                 workloads::generate_app("CG", small_params())};
  for (const trace::Trace& t : traces) {
    SchemeThreads alone(0), room(3);
    RunOptions serial, concurrent;
    serial.scheme_threads = &alone;
    concurrent.scheme_threads = &room;
    const std::uint64_t before = GlobalTelemetry::helpers();
    const TraceOutcome a = run_all_schemes(t, serial);
    EXPECT_EQ(GlobalTelemetry::helpers(), before) << t.meta().app;
    const TraceOutcome b = run_all_schemes(t, concurrent);
    EXPECT_EQ(GlobalTelemetry::helpers(), before + 2) << t.meta().app;
    for (const SchemeOutcome& so : b.scheme) EXPECT_TRUE(so.ok) << t.meta().app << so.error;
    EXPECT_EQ(outcome_bytes(a), outcome_bytes(b)) << t.meta().app;
    EXPECT_EQ(room.running(), 0);
  }
}

TEST(SchemeConcurrency, FlowFaultOnAHelperTripsOnlyFlow) {
  const GlobalTelemetry telemetry;
  const auto t = workloads::generate_app("MG", small_params());
  robust::set_fault_plan(robust::parse_fault_plan("site=flow,spec=7,scheme=flow,kind=cancel"));
  robust::FaultContext ctx;
  ctx.spec_id = 7;  // the helper only matches if it runs under this context
  SchemeThreads room(3);
  RunOptions opts;
  opts.scheme_threads = &room;
  TraceOutcome o;
  {
    const robust::FaultScope scope(ctx);
    o = run_all_schemes(t, opts);
  }
  robust::clear_fault_plan();
  EXPECT_EQ(GlobalTelemetry::helpers(), 2u);
  EXPECT_FALSE(o.of(Scheme::kFlow).ok);
  EXPECT_EQ(o.of(Scheme::kFlow).fail_kind, robust::FailKind::kInjected);
  for (const Scheme s : {Scheme::kMfact, Scheme::kPacket, Scheme::kPacketFlow})
    EXPECT_TRUE(o.of(s).ok) << scheme_name(s) << ": " << o.of(s).error;
}

TEST(SchemeConcurrency, HelperSpansCarryTheCallersTraceId) {
  const GlobalTelemetry telemetry(/*tracing=*/true);
  const auto t = workloads::generate_app("MG", small_params());
  SchemeThreads room(3);
  RunOptions opts;
  opts.scheme_threads = &room;
  {
    const telemetry::TraceIdScope id(0xfeed);
    run_all_schemes(t, opts);
  }
  std::map<std::string, telemetry::SpanRecord> by_scheme;
  for (const telemetry::SpanRecord& s : GlobalTelemetry::reg().spans())
    if (s.cat == "scheme") by_scheme[s.name.substr(0, s.name.find(' '))] = s;
  ASSERT_EQ(by_scheme.size(), 4u);
  for (const auto& [scheme, span] : by_scheme) EXPECT_EQ(span.trace_id, 0xfeedu) << scheme;
  // Packet and flow ran on threads of their own.
  EXPECT_NE(by_scheme["packet"].tid, by_scheme["mfact"].tid);
  EXPECT_NE(by_scheme["flow"].tid, by_scheme["mfact"].tid);
  EXPECT_EQ(by_scheme["packet-flow"].tid, by_scheme["mfact"].tid);
}

TEST(SchemeConcurrency, MfactOnlyRunsStartNoHelper) {
  const GlobalTelemetry telemetry;
  SchemeThreads room(3);
  RunOptions opts;
  opts.scheme_threads = &room;
  opts.mfact_only = true;
  const TraceOutcome o = run_all_schemes(workloads::generate_app("MG", small_params()), opts);
  EXPECT_TRUE(o.of(Scheme::kMfact).ok);
  EXPECT_EQ(GlobalTelemetry::helpers(), 0u);
}

TEST(SchemeConcurrency, FailedThreadStartRunsTheSchemeInline) {
  const GlobalTelemetry telemetry;
  const auto t = workloads::generate_app("MG", small_params());
  int attempts = 0;
  static int* seen = nullptr;
  seen = &attempts;
  SchemeThreads failing(3, [](std::function<void()>) -> std::jthread {
    ++*seen;
    throw std::system_error(std::make_error_code(std::errc::resource_unavailable_try_again));
  });
  SchemeThreads alone(0);
  RunOptions opts, serial;
  opts.scheme_threads = &failing;
  serial.scheme_threads = &alone;
  const TraceOutcome o = run_all_schemes(t, opts);
  EXPECT_GE(attempts, 2);  // packet and flow each tried a helper
  EXPECT_EQ(GlobalTelemetry::helpers(), 0u);
  EXPECT_EQ(failing.running(), 0);
  EXPECT_EQ(outcome_bytes(o), outcome_bytes(run_all_schemes(t, serial)));
}

TEST(SchemeConcurrency, DirectCallersShareTheProcessBudget) {
  const GlobalTelemetry telemetry;
  const auto t = workloads::generate_app("MG", small_params());
  SchemeThreads& process = SchemeThreads::process();
  // The budget is sized by the CPUs this process may use, not by the
  // machine's count.
  const int capacity = usable_cpus();
  ASSERT_EQ(process.capacity(), capacity);
  {
    // Other callers hold all seats but one, which this call's own thread
    // takes: its schemes all stay here.
    std::vector<std::unique_ptr<SchemeThreads::Seat>> seats;
    for (int i = 0; i < capacity - 1; ++i)
      seats.push_back(std::make_unique<SchemeThreads::Seat>(process));
    run_all_schemes(t);
    EXPECT_EQ(GlobalTelemetry::helpers(), 0u);
  }
  // Its own seat plus packet and flow, as far as the budget reaches. On a
  // budget of 2, packet-flow may follow on a helper once packet is done.
  run_all_schemes(t);
  const std::uint64_t helpers = GlobalTelemetry::helpers();
  EXPECT_GE(helpers, static_cast<std::uint64_t>(std::min(2, capacity - 1)));
  EXPECT_LE(helpers, capacity == 1 ? 0u : 2u);
  EXPECT_EQ(process.running(), 0);
}

TEST(SchemeConcurrency, SupervisedWorkersStartNoHelper) {
  const GlobalTelemetry telemetry;
  const auto t = workloads::generate_app("MG", small_params());
  robust::SupervisorOptions sup;
  const auto results = robust::run_supervised(
      {std::string()},
      [&](const std::string&, const robust::WorkerEnv&) {
        SchemeThreads room(3);
        RunOptions opts;
        opts.scheme_threads = &room;
        const std::uint64_t before = GlobalTelemetry::helpers();
        const TraceOutcome o = run_all_schemes(t, opts);
        return std::to_string(GlobalTelemetry::helpers() - before) + " " +
               (o.of(Scheme::kFlow).ok ? "ok" : "failed");
      },
      sup);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].status, robust::TaskResult::Status::kOk) << results[0].detail;
  EXPECT_EQ(results[0].payload, "0 ok");
}

TEST(SchemeConcurrency, StudyThreadsBudgetTheWholeStudy) {
  const GlobalTelemetry telemetry;
  StudyOptions opts;
  opts.corpus.limit = 2;
  opts.corpus.duration_scale = 0.05;
  opts.threads = 1;  // one worker holds the only seat
  const StudyResult serial = run_study(opts);
  EXPECT_EQ(GlobalTelemetry::helpers(), 0u);
  opts.threads = 4;  // two workers, two seats left for helpers
  const StudyResult pooled = run_study(opts);
  EXPECT_GT(GlobalTelemetry::helpers(), 0u);
  ASSERT_EQ(serial.outcomes.size(), pooled.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i)
    EXPECT_EQ(outcome_bytes(serial.outcomes[i]), outcome_bytes(pooled.outcomes[i]));
}

TEST(SchemeConcurrency, ReplayTimelineIsRejected) {
  obs::TimelineRecorder timeline;
  RunOptions opts;
  opts.replay.timeline = &timeline;
  EXPECT_THROW(run_all_schemes(workloads::generate_app("EP", small_params()), opts), Error);
}

}  // namespace
}  // namespace hps::core
