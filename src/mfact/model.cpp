#include "mfact/model.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/error.hpp"
#include "common/flat_hash.hpp"
#include "mfact/coll_cost.hpp"
#include "obs/timeline.hpp"
#include "robust/cancel.hpp"
#include "robust/fault.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/match.hpp"

namespace hps::mfact {

namespace {

using trace::Event;
using trace::OpType;

using trace::MatchKey;
using trace::stream_key;

/// The single-pass multi-configuration logical clock replay.
class LogicalReplay {
 public:
  LogicalReplay(const trace::Trace& t, const std::vector<NetworkConfigPoint>& configs,
                const MfactParams& params)
      : trace_(t), configs_(configs), params_(params),
        k_(configs.size()), nranks_(static_cast<std::size_t>(t.nranks())), member_index_(t),
        a2av_(t, member_index_) {
    HPS_CHECK(!configs.empty());
    clocks_.assign(nranks_ * k_, 0.0);
    counters_.assign(nranks_ * k_, Counters{});
    if (params.p2p_model == P2pCostModel::kLogGP) nic_.assign(nranks_ * k_, 0.0);
    cursor_.assign(nranks_, 0);
    rank_aux_.resize(nranks_);
    cost_params_.resize(k_);
    for (std::size_t c = 0; c < k_; ++c) {
      cost_params_[c].bandwidth_Bps = configs[c].bandwidth;
      cost_params_[c].latency_ns = static_cast<double>(configs[c].latency);
      cost_params_[c].overhead_ns = static_cast<double>(params.overhead);
      cost_params_[c].allreduce_rabenseifner_threshold =
          params.allreduce_rabenseifner_threshold;
    }
    comm_state_.resize(t.num_comms());
  }

  std::vector<ConfigResult> run();

 private:
  struct RankAux {
    // (peer, tag) -> next seq of the stream.
    FlatMap<std::uint64_t, std::uint32_t, Mix64Hash> send_seq, recv_seq;
    // Posted irecvs. Its iteration order is part of the prediction contract:
    // WaitAll drains it in begin() order, consuming arrivals one at a time,
    // and the order in which a rank's clock absorbs them changes its wait
    // and total times. That order is libstdc++'s bucket order for these
    // exact emplace/find/erase calls, so the container, its hash, and the
    // call sequence must stay as they are until the reference predictions
    // are regenerated on purpose.
    std::unordered_map<std::int32_t, MatchKey> irecv_key;
    // Isend requests, complete at issue (a set; the mapped byte is unused).
    FlatMap<std::uint64_t, std::uint8_t, Mix64Hash> isend_reqs;
    bool coll_arrived = false;
    bool in_work = false;
  };

  struct CommState {
    int arrived = 0;
    std::uint32_t a2av_next = 0;  // Alltoallv instances completed
  };

  /// One message between its send and its receive: whichever side comes
  /// first creates the record; the receive consumes it.
  struct Match {
    std::uint32_t slab = kNoSlab;  // arrival slab once the send happened
    Rank waiter = -1;              // receiver blocked on it, if any
  };
  static constexpr std::uint32_t kNoSlab = ~std::uint32_t{0};

  double* clock(Rank r) { return &clocks_[static_cast<std::size_t>(r) * k_]; }
  double* nic(Rank r) { return &nic_[static_cast<std::size_t>(r) * k_]; }
  Counters* ctr(Rank r) { return &counters_[static_cast<std::size_t>(r) * k_]; }

  /// Record a base-configuration interval into the optional timeline. Each
  /// rank's base clock is monotonic, so intervals never overlap per track.
  void rec_iv(Rank r, obs::IntervalKind k, double from, double to,
              std::uint64_t detail = 0) {
    if (params_.timeline != nullptr && to > from)
      params_.timeline->record(r, k, static_cast<SimTime>(from), static_cast<SimTime>(to),
                               detail);
  }

  void push_work(Rank r) {
    auto& aux = rank_aux_[static_cast<std::size_t>(r)];
    if (aux.in_work) return;
    aux.in_work = true;
    work_.push_back(r);
  }

  void run_rank(Rank r);
  void process_send(Rank r, const Event& e);
  /// Apply a message arrival to the receiving rank's clocks. The slab holds
  /// one arrival timestamp per configuration.
  void apply_arrival(Rank r, const double* arrival);
  bool try_consume_msg(Rank r, const MatchKey& key);
  /// Returns true if the collective completed (cursors advanced).
  bool process_collective(Rank r, const Event& e);
  void apply_collective(const Event& e, const std::vector<Rank>& members);

  // Arrival slabs: one double per config, pooled.
  std::uint32_t alloc_slab() {
    if (!slab_free_.empty()) {
      const std::uint32_t s = slab_free_.back();
      slab_free_.pop_back();
      return s;
    }
    slabs_.resize(slabs_.size() + k_);
    return static_cast<std::uint32_t>(slabs_.size() / k_ - 1);
  }
  double* slab(std::uint32_t s) { return &slabs_[static_cast<std::size_t>(s) * k_]; }

  const trace::Trace& trace_;
  const std::vector<NetworkConfigPoint>& configs_;
  const MfactParams& params_;
  const std::size_t k_;
  const std::size_t nranks_;
  const trace::CommIndex member_index_;
  const trace::AlltoallvIndex a2av_;

  std::vector<double> clocks_;
  std::vector<double> nic_;  // LogGP: per-rank per-config NIC busy-until
  std::vector<Counters> counters_;
  std::vector<std::size_t> cursor_;
  std::vector<RankAux> rank_aux_;
  std::vector<CostParams> cost_params_;

  FlatMap<MatchKey, Match, trace::MatchKeyHash> matches_;
  std::vector<double> slabs_;
  std::vector<std::uint32_t> slab_free_;
  std::vector<CommState> comm_state_;
  std::vector<Rank> work_;
  // Scratch for collective processing.
  std::vector<std::uint64_t> send_tot_, recv_tot_;
  std::vector<int> nonzero_;
};

void LogicalReplay::process_send(Rank r, const Event& e) {
  auto& aux = rank_aux_[static_cast<std::size_t>(r)];
  const std::uint32_t seq = aux.send_seq[stream_key(e.peer, e.tag)]++;
  const std::uint32_t s = alloc_slab();
  double* arr = slab(s);
  double* clk = clock(r);
  Counters* cc = ctr(r);
  const bool loggp = params_.p2p_model == P2pCostModel::kLogGP;
  const double gap = static_cast<double>(params_.loggp_gap > 0 ? params_.loggp_gap
                                                               : params_.overhead);
  for (std::size_t c = 0; c < k_; ++c) {
    const auto& p = cost_params_[c];
    const double beta =
        p.bandwidth_Bps > 0 ? static_cast<double>(e.bytes) / p.bandwidth_Bps * 1e9 : 0.0;
    if (c == 0) rec_iv(r, obs::IntervalKind::kSend, clk[0], clk[0] + p.overhead_ns, e.bytes);
    if (loggp) {
      // LogGP: the departure waits for the NIC to finish the previous
      // transmission; back-to-back sends are paced at g + m*G.
      double* nc = nic(r);
      const double depart = std::max(clk[c] + p.overhead_ns, nc[c]);
      nc[c] = depart + gap + beta;
      arr[c] = depart + p.latency_ns + beta;
      clk[c] += p.overhead_ns;
      cc[c].latency += p.overhead_ns + p.latency_ns;
      cc[c].bandwidth += beta;
    } else {
      // Hockney: the message lands at send_start + o + L + m/B. The sender's
      // own clock only advances by its software overhead o; the path terms
      // are attributed to the sender's latency/bandwidth counters (they are
      // what reacts when the sweep scales L or B).
      arr[c] = clk[c] + p.overhead_ns + p.latency_ns + beta;
      clk[c] += p.overhead_ns;
      cc[c].latency += p.overhead_ns + p.latency_ns;
      cc[c].bandwidth += beta;
    }
    cc[c].p2p += p.overhead_ns + p.latency_ns + beta;
  }
  Match& m = matches_[MatchKey{r, e.peer, e.tag, seq}];
  m.slab = s;
  if (m.waiter >= 0) {
    push_work(m.waiter);
    m.waiter = -1;
  }
}

void LogicalReplay::apply_arrival(Rank r, const double* arrival) {
  double* clk = clock(r);
  Counters* cc = ctr(r);
  for (std::size_t c = 0; c < k_; ++c) {
    const auto& p = cost_params_[c];
    if (arrival[c] > clk[c]) {
      if (c == 0) rec_iv(r, obs::IntervalKind::kWait, clk[0], arrival[0]);
      cc[c].wait += arrival[c] - clk[c];
      clk[c] = arrival[c];
    }
    // Receiver-side software overhead; the path's L and m/B terms were
    // already folded into the arrival timestamp by the sender, so the
    // counters attribute them here where the cost is *felt*.
    if (c == 0) rec_iv(r, obs::IntervalKind::kRecv, clk[0], clk[0] + p.overhead_ns);
    clk[c] += p.overhead_ns;
    cc[c].latency += p.overhead_ns;
    cc[c].p2p += p.overhead_ns;
  }
}

bool LogicalReplay::try_consume_msg(Rank r, const MatchKey& key) {
  Match& m = matches_[key];
  if (m.slab == kNoSlab) {
    m.waiter = r;
    return false;
  }
  const std::uint32_t s = m.slab;
  matches_.erase(key);
  apply_arrival(r, slab(s));
  slab_free_.push_back(s);
  return true;
}

bool LogicalReplay::process_collective(Rank r, const Event& e) {
  auto& aux = rank_aux_[static_cast<std::size_t>(r)];
  const auto& members = trace_.comm(e.comm);
  if (members.size() == 1) {
    ++cursor_[static_cast<std::size_t>(r)];
    return true;
  }
  auto& cs = comm_state_[static_cast<std::size_t>(e.comm)];
  if (!aux.coll_arrived) {
    aux.coll_arrived = true;
    ++cs.arrived;
  }
  if (cs.arrived < static_cast<int>(members.size())) return false;

  // Last member to arrive: everyone's clocks are settled; apply the
  // analytic cost to every member and release them.
  cs.arrived = 0;
  apply_collective(e, members);
  for (const Rank m : members) {
    rank_aux_[static_cast<std::size_t>(m)].coll_arrived = false;
    ++cursor_[static_cast<std::size_t>(m)];
    if (m != r) push_work(m);
  }
  return true;
}

void LogicalReplay::apply_collective(const Event& e, const std::vector<Rank>& members) {
  const int n = static_cast<int>(members.size());

  // Per-member Alltoallv volumes need the full send matrix's row and column.
  const bool is_a2av = e.type == OpType::kAlltoallv;
  if (is_a2av) {
    send_tot_.assign(members.size(), 0);
    recv_tot_.assign(members.size(), 0);
    nonzero_.assign(members.size(), 0);
    const std::uint32_t inst = comm_state_[static_cast<std::size_t>(e.comm)].a2av_next++;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const auto& vlist = a2av_.vlist(e.comm, i, inst);
      for (std::size_t j = 0; j < members.size(); ++j) {
        if (i == j) continue;
        send_tot_[i] += vlist[j];
        recv_tot_[j] += vlist[j];
        if (vlist[j] > 0) {
          ++nonzero_[static_cast<int>(i)];
        }
      }
    }
  }

  const bool rooted = trace::is_rooted(e.type);
  std::int32_t root_idx = 0;
  if (rooted) {
    root_idx = member_index_(e.comm, e.peer);
    HPS_CHECK(root_idx >= 0);
  }

  for (std::size_t c = 0; c < k_; ++c) {
    const auto& p = cost_params_[c];
    // Gather the member clocks for this configuration.
    double maxclk = 0;
    for (const Rank m : members) maxclk = std::max(maxclk, clock(m)[c]);

    if (!rooted) {
      // Symmetric collectives synchronize all members: each waits for the
      // slowest, then pays the analytic cost.
      for (std::size_t i = 0; i < members.size(); ++i) {
        const Rank m = members[i];
        double* clk = &clock(m)[c];
        Counters& cc = ctr(m)[c];
        CollCost cost = is_a2av ? alltoallv_cost(n, nonzero_[static_cast<int>(i)],
                                                 send_tot_[i], recv_tot_[i], p)
                                : collective_cost(e.type, n, e.bytes, p);
        if (c == 0) {
          rec_iv(m, obs::IntervalKind::kWait, *clk, maxclk);
          rec_iv(m, obs::IntervalKind::kCollective, maxclk, maxclk + cost.total(), e.bytes);
        }
        cc.wait += maxclk - *clk;
        cc.latency += cost.latency_ns;
        cc.bandwidth += cost.bandwidth_ns;
        cc.coll += cost.latency_ns + cost.bandwidth_ns;
        *clk = maxclk + cost.total();
      }
      continue;
    }

    // Rooted collectives: the data flows to or from the root.
    const Rank root = members[static_cast<std::size_t>(root_idx)];
    const CollCost cost = collective_cost(e.type, n, e.bytes, p);
    const double root_clk = clock(root)[c];
    if (e.type == OpType::kBcast || e.type == OpType::kScatter) {
      // Root drives the tree; leaves see the data after the full cost.
      const double arrival = root_clk + cost.total();
      for (const Rank m : members) {
        double* clk = &clock(m)[c];
        Counters& cc = ctr(m)[c];
        if (m == root) {
          if (c == 0)
            rec_iv(m, obs::IntervalKind::kCollective, root_clk, arrival, e.bytes);
          cc.latency += cost.latency_ns;
          cc.bandwidth += cost.bandwidth_ns;
          cc.coll += cost.latency_ns + cost.bandwidth_ns;
          *clk = root_clk + cost.total();
        } else {
          if (arrival > *clk) {
            if (c == 0) rec_iv(m, obs::IntervalKind::kWait, *clk, arrival);
            cc.wait += arrival - *clk;
            *clk = arrival;
          }
          if (c == 0)
            rec_iv(m, obs::IntervalKind::kCollective, *clk, *clk + p.overhead_ns, e.bytes);
          cc.latency += p.overhead_ns;
          cc.coll += p.overhead_ns;
          *clk += p.overhead_ns;
        }
      }
    } else {  // Reduce / Gather: root waits for the slowest contributor.
      double max_others = root_clk;
      for (const Rank m : members) max_others = std::max(max_others, clock(m)[c]);
      for (const Rank m : members) {
        double* clk = &clock(m)[c];
        Counters& cc = ctr(m)[c];
        if (m == root) {
          const double arrival = max_others + cost.total();
          if (c == 0) {
            rec_iv(m, obs::IntervalKind::kWait, *clk, max_others);
            rec_iv(m, obs::IntervalKind::kCollective, std::max(*clk, max_others), arrival,
                   e.bytes);
          }
          cc.wait += std::max(0.0, max_others - *clk);
          cc.latency += cost.latency_ns;
          cc.bandwidth += cost.bandwidth_ns;
          cc.coll += cost.latency_ns + cost.bandwidth_ns;
          *clk = arrival;
        } else {
          // Contributors send one tree message and move on.
          const double one = p.overhead_ns + p.latency_ns +
                             (p.bandwidth_Bps > 0 ? static_cast<double>(e.bytes) /
                                                        p.bandwidth_Bps * 1e9
                                                  : 0.0);
          if (c == 0)
            rec_iv(m, obs::IntervalKind::kCollective, *clk, *clk + one, e.bytes);
          cc.latency += p.overhead_ns + p.latency_ns;
          cc.bandwidth += one - p.overhead_ns - p.latency_ns;
          cc.coll += one;
          *clk += one;
        }
      }
    }
  }
}

void LogicalReplay::run_rank(Rank r) {
  auto& aux = rank_aux_[static_cast<std::size_t>(r)];
  auto& cur = cursor_[static_cast<std::size_t>(r)];
  const auto& evs = trace_.rank(r).events;
  while (cur < evs.size()) {
    const Event& e = evs[cur];
    if (params_.cancel != nullptr)
      params_.cancel->tick(static_cast<SimTime>(clock(r)[0]));
    switch (e.type) {
      case OpType::kCompute: {
        double* clk = clock(r);
        Counters* cc = ctr(r);
        rec_iv(r, obs::IntervalKind::kCompute, clk[0],
               clk[0] + static_cast<double>(e.duration) * configs_[0].compute_scale);
        for (std::size_t c = 0; c < k_; ++c) {
          const double dur = static_cast<double>(e.duration) * configs_[c].compute_scale;
          clk[c] += dur;
          cc[c].compute += dur;
        }
        ++cur;
        break;
      }
      case OpType::kSend:
        process_send(r, e);
        ++cur;
        break;
      case OpType::kIsend:
        process_send(r, e);
        aux.isend_reqs[static_cast<std::uint32_t>(e.request)] = 1;
        ++cur;
        break;
      case OpType::kRecv: {
        // Peek the sequence number; only consume it on success so a blocked
        // retry sees the same key.
        std::uint32_t& seq = aux.recv_seq[stream_key(e.peer, e.tag)];
        if (!try_consume_msg(r, MatchKey{e.peer, r, e.tag, seq})) return;
        ++seq;
        ++cur;
        break;
      }
      case OpType::kIrecv: {
        const std::uint32_t seq = aux.recv_seq[stream_key(e.peer, e.tag)]++;
        aux.irecv_key.emplace(e.request, MatchKey{e.peer, r, e.tag, seq});
        ++cur;
        break;
      }
      case OpType::kWait: {
        if (aux.isend_reqs.erase(static_cast<std::uint32_t>(e.request))) {
          ++cur;
          break;
        }
        const auto it = aux.irecv_key.find(e.request);
        HPS_CHECK_MSG(it != aux.irecv_key.end(), "wait on unknown request");
        if (!try_consume_msg(r, it->second)) return;
        aux.irecv_key.erase(it);
        ++cur;
        break;
      }
      case OpType::kWaitAll: {
        aux.isend_reqs.clear();
        // Drain posted irecvs one at a time; block on the first missing.
        while (!aux.irecv_key.empty()) {
          const auto it = aux.irecv_key.begin();
          if (!try_consume_msg(r, it->second)) return;
          aux.irecv_key.erase(it);
        }
        ++cur;
        break;
      }
      default:
        HPS_CHECK(trace::is_collective(e.type));
        if (!process_collective(r, e)) return;
        break;  // cursor already advanced by process_collective
    }
  }
}

std::vector<ConfigResult> LogicalReplay::run() {
  for (Rank r = 0; r < trace_.nranks(); ++r) push_work(r);
  while (!work_.empty()) {
    const Rank r = work_.back();
    work_.pop_back();
    rank_aux_[static_cast<std::size_t>(r)].in_work = false;
    run_rank(r);
  }
  for (Rank r = 0; r < trace_.nranks(); ++r)
    if (cursor_[static_cast<std::size_t>(r)] != trace_.rank(r).events.size())
      throw DeadlockError("MFACT replay deadlock in trace " + trace_.meta().app + ": rank " +
                          std::to_string(r) + " stuck at event " +
                          std::to_string(cursor_[static_cast<std::size_t>(r)]));

  std::vector<ConfigResult> out(k_);
  for (std::size_t c = 0; c < k_; ++c) {
    ConfigResult& res = out[c];
    res.config = configs_[c];
    double maxclk = 0, comm_sum = 0;
    for (std::size_t r = 0; r < nranks_; ++r) {
      const double clk = clocks_[r * k_ + c];
      maxclk = std::max(maxclk, clk);
      comm_sum += clk - counters_[r * k_ + c].compute;
      res.counters.wait += counters_[r * k_ + c].wait;
      res.counters.bandwidth += counters_[r * k_ + c].bandwidth;
      res.counters.latency += counters_[r * k_ + c].latency;
      res.counters.compute += counters_[r * k_ + c].compute;
      res.counters.p2p += counters_[r * k_ + c].p2p;
      res.counters.coll += counters_[r * k_ + c].coll;
    }
    res.total_time = static_cast<SimTime>(maxclk);
    res.comm_time_mean = static_cast<SimTime>(comm_sum / static_cast<double>(nranks_));
  }
  return out;
}

}  // namespace

namespace {

/// Publish `scheme.mfact.*` counters for one evaluation. The model is
/// analytic — there is no DES behind it — so `des_events_processed` is
/// registered but never incremented: it reads as an honest zero next to the
/// simulation schemes in telemetry summaries.
void flush_mfact_telemetry(const trace::Trace& t, std::size_t nconfigs,
                           const std::vector<ConfigResult>& out, double wall) {
  auto& reg = telemetry::Registry::global();
  if (!reg.enabled()) return;
  std::uint64_t total_events = 0;
  for (Rank r = 0; r < t.nranks(); ++r) total_events += t.rank(r).events.size();
  double wait_sum = 0;
  for (const ConfigResult& cr : out) wait_sum += cr.counters.wait;
  reg.counter("scheme.mfact.runs").add(1);
  reg.counter("scheme.mfact.des_events_processed");
  reg.counter("scheme.mfact.replay_events").add(total_events);
  reg.counter("scheme.mfact.model_evals").add(total_events * nconfigs);
  reg.counter("scheme.mfact.logical_wait_ns").add(static_cast<std::uint64_t>(wait_sum));
  reg.histogram("scheme.mfact.wall_seconds", telemetry::duration_bounds()).observe(wall);
}

}  // namespace

std::vector<ConfigResult> run_mfact(const trace::Trace& t,
                                    const std::vector<NetworkConfigPoint>& configs,
                                    const MfactParams& params, double* wall_seconds) {
  robust::fault_point(robust::FaultSite::kMfact);
  const auto start = std::chrono::steady_clock::now();
  LogicalReplay replay(t, configs, params);
  auto out = replay.run();
  const auto end = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(end - start).count();
  if (wall_seconds != nullptr) *wall_seconds = wall;
  flush_mfact_telemetry(t, configs.size(), out, wall);
  return out;
}

std::vector<NetworkConfigPoint> make_sensitivity_sweep(Bandwidth base_bw, SimTime base_lat,
                                                       double compute_scale) {
  std::vector<NetworkConfigPoint> pts(kSweepNumPoints);
  auto set = [&](int i, double bw_mul, double lat_mul, std::string label) {
    pts[static_cast<std::size_t>(i)] = {base_bw * bw_mul,
                                        static_cast<SimTime>(static_cast<double>(base_lat) *
                                                             lat_mul),
                                        compute_scale, std::move(label)};
  };
  set(kSweepBase, 1, 1, "base");
  set(kSweepBwUp8, 8, 1, "bw x8");
  set(kSweepBwDown8, 1.0 / 8, 1, "bw /8");
  set(kSweepLatDown8, 1, 1.0 / 8, "lat /8");
  set(kSweepLatUp8, 1, 8, "lat x8");
  set(kSweepBwUp2, 2, 1, "bw x2");
  set(kSweepBwDown2, 0.5, 1, "bw /2");
  set(kSweepLatUp2, 1, 2, "lat x2");
  return pts;
}

}  // namespace hps::mfact
