// Google-benchmark micro-benchmarks for the performance-critical substrates:
// the event calendar, topology routing, the network models, the MFACT
// logical-clock replay (events/second, and its multi-configuration scaling),
// and the logistic-regression fit. These quantify why the tool-time ranking
// of Figure 1 comes out the way it does.
#include <benchmark/benchmark.h>

#include <chrono>

#include "common/rng.hpp"
#include "des/engine.hpp"
#include "des/event_queue.hpp"
#include "machine/machine.hpp"
#include "mfact/model.hpp"
#include "simmpi/replayer.hpp"
#include "simnet/flow_model.hpp"
#include "simnet/packet_model.hpp"
#include "simnet/packetflow_model.hpp"
#include "stats/logistic.hpp"
#include "topo/topology.hpp"
#include "workloads/generators.hpp"

namespace {

using namespace hps;

// --- DES engine: schedule+dispatch throughput. -----------------------------
class NullHandler final : public des::Handler {
 public:
  void handle(des::Engine&, std::uint64_t, std::uint64_t) override {}
};

void BM_EngineScheduleDispatch(benchmark::State& state) {
  NullHandler h;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    des::Engine eng;
    for (std::uint64_t i = 0; i < n; ++i)
      eng.schedule_at(static_cast<SimTime>(rng.uniform_u64(1 << 20)), &h);
    eng.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EngineScheduleDispatch)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 18);

// --- Event queue alone: push+pop throughput (events/sec). -------------------
// The small arg stays in the binary-heap regime, the large ones exercise the
// calendar windows, so a regression in either mode shows up separately.
void BM_EventQueuePushPop(benchmark::State& state) {
  NullHandler h;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Rng rng(7);
  des::EventQueue q;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < n; ++i)
      q.push(static_cast<SimTime>(rng.uniform_u64(1 << 20)), &h, 0, 0);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1 << 6)->Arg(1 << 13)->Arg(1 << 17);

// --- Event queue in the hold model: a steady population where every pop
// makes room for a later push, as in a long replay. Every 16th pop re-pushes
// a burst of 16 events at one instant and the others push none, so the
// population holds at its start size while the window rebuilds keep laying
// bursts onto different buckets. PushPop above drains what it pushed and
// never reaches this regime. `retained_kb` is the queue's storage at the end.
void BM_EventQueueHold(benchmark::State& state) {
  NullHandler h;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kBurst = 16;
  Rng rng(9);
  des::EventQueue q;
  for (std::uint64_t i = 0; i < n; ++i)
    q.push(static_cast<SimTime>(rng.uniform_u64(1 << 20)), &h, 0, 0);
  std::uint64_t pops = 0;
  for (auto _ : state) {
    const des::QueuedEvent ev = q.pop();
    if (++pops % kBurst == 0) {
      const SimTime t = ev.t + static_cast<SimTime>(rng.uniform_u64(1 << 20));
      for (std::uint64_t j = 0; j < kBurst; ++j) q.push(t, &h, 0, 0);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["retained_kb"] = static_cast<double>(q.retained_bytes()) / 1024.0;
}
BENCHMARK(BM_EventQueueHold)->Arg(1000)->Arg(40000);

// --- Topology routing. ------------------------------------------------------
template <typename MakeTopo>
void route_bench(benchmark::State& state, MakeTopo make) {
  const auto topo = make();
  Rng rng(2);
  std::vector<LinkId> links;
  const auto n = static_cast<std::uint64_t>(topo->num_nodes());
  for (auto _ : state) {
    const auto a = static_cast<NodeId>(rng.uniform_u64(n));
    const auto b = static_cast<NodeId>(rng.uniform_u64(n));
    topo->route(a, b, links);
    benchmark::DoNotOptimize(links.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RouteTorus(benchmark::State& state) {
  route_bench(state, [] { return topo::make_torus_for(512); });
}
BENCHMARK(BM_RouteTorus);

void BM_RouteDragonfly(benchmark::State& state) {
  route_bench(state, [] { return topo::make_dragonfly_for(512); });
}
BENCHMARK(BM_RouteDragonfly);

void BM_RouteFatTree(benchmark::State& state) {
  route_bench(state, [] { return topo::make_fattree_for(512); });
}
BENCHMARK(BM_RouteFatTree);

// --- Network models: uniform random traffic. --------------------------------
template <typename Model>
void net_bench(benchmark::State& state) {
  class Sink final : public simnet::MessageSink {
   public:
    void message_delivered(simnet::MsgId, SimTime) override {}
  };
  topo::Torus3D topo(4, 4, 4);
  simnet::NetConfig cfg;
  cfg.message_bandwidth = 1.25e9;
  cfg.link_bandwidth = 1.25e10;
  cfg.injection_bandwidth = 2e10;
  Rng rng(3);
  const int msgs = static_cast<int>(state.range(0));
  std::uint64_t packets = 0;  // items = packets, the models' unit of work
  for (auto _ : state) {
    des::Engine eng;
    Sink sink;
    Model model(eng, topo, cfg, sink);
    for (int i = 0; i < msgs; ++i)
      model.inject(static_cast<simnet::MsgId>(i),
                   static_cast<NodeId>(rng.uniform_u64(64)),
                   static_cast<NodeId>(rng.uniform_u64(64)), 16 * 1024);
    eng.run();
    packets += model.stats().packets;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  state.counters["msgs"] = benchmark::Counter(
      static_cast<double>(msgs) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_PacketModel(benchmark::State& state) { net_bench<simnet::PacketModel>(state); }
BENCHMARK(BM_PacketModel)->Arg(512)->Arg(4096);

void BM_PacketFlowModel(benchmark::State& state) {
  net_bench<simnet::PacketFlowModel>(state);
}
BENCHMARK(BM_PacketFlowModel)->Arg(512)->Arg(4096);

// --- Flow model: incremental ripple throughput (re-rate iterations/sec). ----
void BM_FlowRipple(benchmark::State& state) {
  class Sink final : public simnet::MessageSink {
   public:
    void message_delivered(simnet::MsgId, SimTime) override {}
  };
  topo::Torus3D topo(4, 4, 4);
  simnet::NetConfig cfg;
  cfg.message_bandwidth = 1.25e9;
  cfg.link_bandwidth = 1.25e10;
  cfg.injection_bandwidth = 2e10;
  Rng rng(9);
  const int msgs = static_cast<int>(state.range(0));
  std::uint64_t ripples = 0;
  for (auto _ : state) {
    des::Engine eng;
    Sink sink;
    simnet::FlowModel model(eng, topo, cfg, sink);
    for (int i = 0; i < msgs; ++i)
      model.inject(static_cast<simnet::MsgId>(i),
                   static_cast<NodeId>(rng.uniform_u64(64)),
                   static_cast<NodeId>(rng.uniform_u64(64)), 256 * 1024);
    eng.run();
    ripples += model.stats().ripple_iterations;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ripples));
  state.counters["msgs"] = benchmark::Counter(
      static_cast<double>(msgs) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FlowRipple)->Arg(256)->Arg(2048);

// --- Max-min solver: full re-solve vs incremental component churn. ----------
// BM_MaxMinSolveFull dirties every constraint each iteration, forcing the
// whole-system water-fill the retired ripple performed on every rate update.
// BM_MaxMinSolveIncremental replaces one flow per iteration, the steady-state
// pattern of a running simulation, so each solve re-rates only the dirty
// component. Routes stay inside 8-link blocks (a sparse traffic pattern —
// neighbor exchanges, clustered collectives), keeping the sharing graph in
// many small components; the throughput gap between the two fixtures is the
// component-locality win. With all-to-all routes the graph collapses into
// one component and the gap vanishes by construction — locality is a
// property of the traffic, not of the solver.
constexpr int kMaxMinLinks = 256;
constexpr int kMaxMinBlock = 8;

void maxmin_add_clustered(simnet::maxmin::System& sys, Rng& rng,
                          std::vector<simnet::maxmin::VarId>& ids) {
  const auto base = static_cast<int>(rng.uniform_u64(kMaxMinLinks / kMaxMinBlock)) *
                    kMaxMinBlock;
  const auto v = sys.add_variable(1.25);
  for (int h = 0; h < 3; ++h)
    sys.attach(v, static_cast<simnet::maxmin::ConsId>(
                      base + static_cast<int>(rng.uniform_u64(kMaxMinBlock))));
  sys.admit(v);
  ids.push_back(v);
}

void maxmin_populate(simnet::maxmin::System& sys, Rng& rng, int flows,
                     std::vector<simnet::maxmin::VarId>& ids) {
  for (int l = 0; l < kMaxMinLinks; ++l) sys.add_constraint(12.5);
  for (int i = 0; i < flows; ++i) maxmin_add_clustered(sys, rng, ids);
  sys.solve();
}

void BM_MaxMinSolveFull(benchmark::State& state) {
  Rng rng(11);
  simnet::maxmin::System sys;
  std::vector<simnet::maxmin::VarId> ids;
  maxmin_populate(sys, rng, static_cast<int>(state.range(0)), ids);
  std::uint64_t touched = 0;
  for (auto _ : state) {
    for (int l = 0; l < kMaxMinLinks; ++l)
      sys.set_capacity(static_cast<simnet::maxmin::ConsId>(l), 12.5);
    sys.solve();
    touched += sys.touched_constraints();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["touched"] = benchmark::Counter(
      static_cast<double>(touched), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MaxMinSolveFull)->Arg(256)->Arg(2048);

void BM_MaxMinSolveIncremental(benchmark::State& state) {
  Rng rng(11);
  simnet::maxmin::System sys;
  std::vector<simnet::maxmin::VarId> ids;
  maxmin_populate(sys, rng, static_cast<int>(state.range(0)), ids);
  std::size_t victim = 0;
  std::uint64_t touched = 0;
  for (auto _ : state) {
    sys.retire(ids[victim]);
    maxmin_add_clustered(sys, rng, ids);  // appends the replacement id
    ids[victim] = ids.back();
    ids.pop_back();
    victim = (victim + 1) % ids.size();
    sys.solve();
    touched += sys.touched_constraints();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["touched"] = benchmark::Counter(
      static_cast<double>(touched), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MaxMinSolveIncremental)->Arg(256)->Arg(2048);

// --- MFACT: trace events per second and multi-config scaling. ---------------
void BM_MfactReplay(benchmark::State& state) {
  workloads::GenParams gp;
  gp.ranks = 64;
  gp.seed = 5;
  gp.iter_factor = 0.3;
  const trace::Trace t = workloads::generate_app("MiniFE", gp);
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<mfact::NetworkConfigPoint> configs(
      k, {gbps_to_Bps(10), 2500, 1.0, "cfg"});
  for (auto _ : state) {
    auto res = run_mfact(t, configs);
    benchmark::DoNotOptimize(res.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(t.total_events()) * state.iterations());
  state.counters["configs"] = static_cast<double>(k);
}
BENCHMARK(BM_MfactReplay)->Arg(1)->Arg(8)->Arg(32);

// --- Full replay comparison on one small trace. -----------------------------
void BM_SimReplay(benchmark::State& state) {
  workloads::GenParams gp;
  gp.ranks = 64;
  gp.seed = 5;
  gp.iter_factor = 0.3;
  const trace::Trace t = workloads::generate_app("MiniFE", gp);
  const machine::MachineInstance mi(machine::cielito(), t.nranks(), t.meta().ranks_per_node);
  const auto kind = static_cast<simmpi::NetModelKind>(state.range(0));
  for (auto _ : state) {
    auto res = simmpi::replay_trace(t, mi, kind);
    benchmark::DoNotOptimize(&res);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(t.total_events()) * state.iterations());
  state.SetLabel(simmpi::net_model_name(kind));
}
BENCHMARK(BM_SimReplay)->Arg(0)->Arg(1)->Arg(2);

// --- Logistic regression fit. ------------------------------------------------
void BM_LogisticFit(benchmark::State& state) {
  const std::size_t n = 235;
  stats::Dataset ds;
  ds.x = Matrix(n, 6);
  ds.y.resize(n);
  Rng rng(6);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 6; ++j) ds.x(i, j) = rng.normal();
    ds.y[i] = ds.x(i, 0) + 0.5 * ds.x(i, 1) + 0.2 * rng.normal() > 0 ? 1 : 0;
  }
  const std::vector<int> features = {0, 1, 2, 3, 4};
  for (auto _ : state) {
    auto m = fit_logistic(ds, features);
    benchmark::DoNotOptimize(&m);
  }
}
BENCHMARK(BM_LogisticFit);

}  // namespace

BENCHMARK_MAIN();
