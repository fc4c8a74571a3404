#include "simmpi/replayer.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "obs/timeline.hpp"
#include "simnet/flow_model.hpp"
#include "simnet/packet_model.hpp"
#include "simnet/packetflow_model.hpp"

namespace hps::simmpi {

using trace::stream_key;

namespace {
/// Collective request ids live above this base so they never collide with
/// trace-recorded (app) request ids, which are small non-negative ints.
constexpr std::int64_t kCollReqBase = std::int64_t{1} << 40;
constexpr bool is_coll_req(std::int64_t req) { return req >= kCollReqBase; }
}  // namespace

const char* net_model_name(NetModelKind k) {
  switch (k) {
    case NetModelKind::kPacket: return "packet";
    case NetModelKind::kFlow: return "flow";
    case NetModelKind::kPacketFlow: return "packet-flow";
  }
  return "?";
}

Replayer::Replayer(const trace::Trace& t, const machine::MachineInstance& m, NetModelKind kind,
                   const ReplayConfig& cfg)
    : trace_(t), machine_(m), cfg_(cfg), kind_(kind), member_index_(t),
      a2av_(t, member_index_) {
  HPS_CHECK(t.nranks() == m.nranks());
  eng_.set_recorder(cfg_.timeline);
  eng_.set_cancel(cfg_.cancel);

  simnet::NetConfig nc;
  const auto& net = m.config().net;
  nc.message_bandwidth = net.link_bandwidth;  // the per-rank Hockney rate
  nc.link_bandwidth = net.link_bandwidth * net.link_multiplier;
  nc.injection_bandwidth = net.injection_bandwidth * net.injection_multiplier;
  nc.software_overhead = m.software_overhead();
  nc.hop_latency = m.hop_latency();
  nc.packet_size = kind == NetModelKind::kPacketFlow ? cfg_.packetflow_packet_size
                                                     : cfg_.packet_size;
  switch (kind) {
    case NetModelKind::kPacket:
      net_ = std::make_unique<simnet::PacketModel>(eng_, m.topology(), nc, *this);
      break;
    case NetModelKind::kFlow:
      net_ = std::make_unique<simnet::FlowModel>(eng_, m.topology(), nc, *this);
      break;
    case NetModelKind::kPacketFlow:
      net_ = std::make_unique<simnet::PacketFlowModel>(eng_, m.topology(), nc, *this);
      break;
  }

  ranks_.resize(static_cast<std::size_t>(t.nranks()));
}

Replayer::~Replayer() = default;

void Replayer::schedule_advance(Rank r, SimTime at) {
  eng_.schedule_at(at, this, static_cast<std::uint64_t>(r), 0);
}

void Replayer::handle(des::Engine&, std::uint64_t a, std::uint64_t) {
  advance(static_cast<Rank>(a));
}

void Replayer::begin_block(RankState& st, Block b, std::int64_t req) {
  st.block = b;
  st.block_req = req;
  st.block_since = eng_.now();
}

void Replayer::unblock(Rank r) {
  RankState& st = ranks_[static_cast<std::size_t>(r)];
  const SimTime now = eng_.now();
  const SimTime blocked = now - st.block_since;
  if (blocked > 0) {
    st.blocked_total += blocked;
    // Attribute the blocked interval: blocking sends/receives issued from a
    // collective sub-schedule count as collective time, as do waits on
    // collective-internal requests; plain request waits and app-level
    // WaitAll count as wait time.
    const bool in_coll = st.coll_members != nullptr;
    double* bucket = &components_.wait_ns;
    auto kind = obs::IntervalKind::kWait;
    switch (st.block) {
      case Block::kRecv:
        bucket = in_coll ? &components_.collective_ns : &components_.p2p_ns;
        kind = in_coll ? obs::IntervalKind::kCollective : obs::IntervalKind::kRecv;
        break;
      case Block::kSendRdv:
        bucket = in_coll ? &components_.collective_ns : &components_.p2p_ns;
        kind = in_coll ? obs::IntervalKind::kCollective : obs::IntervalKind::kRendezvous;
        break;
      case Block::kWaitReq:
        if (is_coll_req(st.block_req)) {
          bucket = &components_.collective_ns;
          kind = obs::IntervalKind::kCollective;
        }
        break;
      case Block::kWaitAllColl:
        bucket = &components_.collective_ns;
        kind = obs::IntervalKind::kCollective;
        break;
      case Block::kWaitAllApp:
      case Block::kNone:
        break;
    }
    *bucket += static_cast<double>(blocked);
    if (obs::TimelineRecorder* rec = eng_.recorder())
      rec->record(r, kind, st.block_since, now);
  }
  st.block = Block::kNone;
  st.block_req = -1;
  schedule_advance(r, now);
}

void Replayer::advance(Rank r) {
  RankState& st = ranks_[static_cast<std::size_t>(r)];
  HPS_CHECK(!st.done && st.block == Block::kNone);
  const auto& events = trace_.rank(r).events;
  while (true) {
    if (st.sub_pc < st.subops.size()) {
      const SubOp op = st.subops[st.sub_pc];
      ++st.sub_pc;  // consume before exec so an unblock resumes *after* it
      if (!exec_subop(r, st, op)) return;
      continue;
    }
    if (st.coll_members != nullptr) {
      if (st.coll_round != kScheduleDone) {
        expand_window(st);
        continue;
      }
      HPS_CHECK_MSG(st.coll_isends_empty(), "collective ended with unwaited isends");
      st.coll_members = nullptr;
    }
    if (st.pc >= events.size()) {
      st.done = true;
      st.finish = eng_.now();
      ++finished_;
      return;
    }
    const trace::Event& e = events[st.pc];
    ++st.pc;
    if (!exec_event(r, st, e)) return;
  }
}

bool Replayer::exec_event(Rank r, RankState& st, const trace::Event& e) {
  using trace::OpType;
  const SimTime call_o = machine_.software_overhead();
  switch (e.type) {
    case OpType::kCompute: {
      const auto dur = static_cast<SimTime>(static_cast<double>(e.duration) *
                                            cfg_.compute_scale);
      if (dur <= 0) return true;
      st.compute_total += dur;
      if (obs::TimelineRecorder* rec = eng_.recorder())
        rec->record(r, obs::IntervalKind::kCompute, eng_.now(), eng_.now() + dur);
      schedule_advance(r, eng_.now() + dur);
      return false;
    }
    case OpType::kSend:
      do_send(r, st, e.peer, e.tag, st.send_seq[stream_key(e.peer, e.tag)]++, e.bytes,
              /*blocking=*/true, -1);
      if (st.block != Block::kNone) return false;
      schedule_advance(r, eng_.now() + call_o);
      return false;
    case OpType::kIsend: {
      const std::int64_t req = e.request;
      st.pending_reqs[static_cast<std::uint64_t>(req)] = 1;
      ++st.pending_app;
      do_send(r, st, e.peer, e.tag, st.send_seq[stream_key(e.peer, e.tag)]++, e.bytes,
              /*blocking=*/false, req);
      schedule_advance(r, eng_.now() + call_o);
      return false;
    }
    case OpType::kRecv:
      do_recv(r, st, e.peer, e.tag, st.recv_seq[stream_key(e.peer, e.tag)]++,
              /*blocking=*/true, -1);
      return st.block == Block::kNone;
    case OpType::kIrecv: {
      const std::int64_t req = e.request;
      st.pending_reqs[static_cast<std::uint64_t>(req)] = 1;
      ++st.pending_app;
      do_recv(r, st, e.peer, e.tag, st.recv_seq[stream_key(e.peer, e.tag)]++,
              /*blocking=*/false, req);
      return true;
    }
    case OpType::kWait:
      return do_wait(r, st, e.request);
    case OpType::kWaitAll:
      if (st.pending_app == 0) return true;
      begin_block(st, Block::kWaitAllApp);
      return false;
    default:
      HPS_CHECK(trace::is_collective(e.type));
      begin_collective(r, st, e);
      return true;  // sub-operations take over
  }
}

bool Replayer::exec_subop(Rank r, RankState& st, const SubOp& op) {
  const SimTime call_o = machine_.software_overhead();
  const auto& members = *st.coll_members;
  switch (op.kind) {
    case SubOp::Kind::kIsend: {
      const Rank dst = members[static_cast<std::size_t>(op.peer)];
      const std::int64_t req = new_coll_req(st);
      st.coll_isends.push_back(req);
      do_send(r, st, dst, st.coll_tag, op.seq, op.bytes, /*blocking=*/false, req);
      schedule_advance(r, eng_.now() + call_o);
      return false;
    }
    case SubOp::Kind::kRecv: {
      const Rank src = members[static_cast<std::size_t>(op.peer)];
      do_recv(r, st, src, st.coll_tag, op.seq, /*blocking=*/true, -1);
      return st.block == Block::kNone;
    }
    case SubOp::Kind::kWaitOne: {
      HPS_CHECK_MSG(!st.coll_isends_empty(), "WaitOne with no outstanding collective isend");
      const std::int64_t req = st.coll_isends[st.coll_head++];
      if (st.coll_isends_empty()) {  // reuse the buffer: it never outgrows one round trip
        st.coll_isends.clear();
        st.coll_head = 0;
      }
      return do_wait(r, st, req);
    }
    case SubOp::Kind::kWaitAll:
      st.coll_isends.clear();
      st.coll_head = 0;
      if (st.pending_coll == 0) return true;
      begin_block(st, Block::kWaitAllColl);
      return false;
  }
  return true;
}

bool Replayer::do_wait(Rank r, RankState& st, std::int64_t req) {
  (void)r;
  if (st.pending_reqs.find(static_cast<std::uint64_t>(req)) == nullptr)
    return true;  // already completed
  begin_block(st, Block::kWaitReq, req);
  return false;
}

std::int64_t Replayer::new_coll_req(RankState& st) {
  const std::int64_t req = kCollReqBase + next_coll_req_++;
  st.pending_reqs[static_cast<std::uint64_t>(req)] = 1;
  ++st.pending_coll;
  return req;
}

std::uint32_t Replayer::match_of(const trace::MatchKey& key) {
  // The mapped value is slot + 1, so the map's value-initialized zero means
  // "no record yet" and the find-or-insert stays a single probe.
  std::uint32_t& mapped = match_slot_[key];
  if (mapped == 0) {
    std::uint32_t slot;
    if (!match_free_.empty()) {
      slot = match_free_.back();
      match_free_.pop_back();
      match_pool_[slot] = MatchState{};
    } else {
      slot = static_cast<std::uint32_t>(match_pool_.size());
      match_pool_.emplace_back();
    }
    mapped = slot + 1;
  }
  return mapped - 1;
}

void Replayer::do_send(Rank r, RankState& st, Rank dst, Tag tag, std::uint32_t seq,
                       std::uint64_t bytes, bool blocking, std::int64_t req) {
  const trace::MatchKey key{r, dst, tag, seq};
  const std::uint32_t slot = match_of(key);
  MatchState& ms = match_pool_[slot];
  ms.send_bytes = bytes;
  if (bytes <= cfg_.eager_threshold) {
    // Eager: the payload leaves immediately; the send completes locally.
    ms.sender_done = true;
    if (obs::TimelineRecorder* rec = eng_.recorder())
      rec->record(r, obs::IntervalKind::kSend, eng_.now(),
                  eng_.now() + machine_.software_overhead(), bytes);
    inject(MsgKind::kEagerData, key, slot, r, dst, bytes);
    if (req >= 0) complete_request(r, req);
  } else {
    // Rendezvous: request-to-send now; data travels after the CTS arrives.
    rdv_sends_.add();
    ms.is_rdv = true;
    inject(MsgKind::kRts, key, slot, r, dst, 0);
    if (blocking) {
      begin_block(st, Block::kSendRdv);
    } else {
      ms.send_req = req;
    }
  }
}

void Replayer::do_recv(Rank r, RankState& st, Rank src, Tag tag, std::uint32_t seq,
                       bool blocking, std::int64_t req) {
  const trace::MatchKey key{src, r, tag, seq};
  const std::uint32_t slot = match_of(key);
  MatchState& ms = match_pool_[slot];
  ms.recv_posted = true;
  ms.recv_blocking = blocking;
  ms.recv_req = req;
  if (ms.data_delivered) {
    // The message was waiting in the unexpected queue; consume it now.
    complete_recv(key, ms);
    maybe_erase(key, slot, ms);
    return;
  }
  if (ms.is_rdv && ms.rts_arrived && !ms.cts_sent) send_cts(key, slot);
  if (blocking) begin_block(st, Block::kRecv);
}

void Replayer::inject(MsgKind kind, const trace::MatchKey& key, std::uint32_t slot,
                      Rank from, Rank to, std::uint64_t bytes) {
  std::uint32_t id;
  if (!msg_free_.empty()) {
    id = msg_free_.back();
    msg_free_.pop_back();
  } else {
    msg_pool_.emplace_back();
    id = static_cast<std::uint32_t>(msg_pool_.size() - 1);
  }
  msg_pool_[id] = {kind, key, slot};
  net_->inject(id, node_of(from), node_of(to), bytes);
}

void Replayer::send_cts(const trace::MatchKey& key, std::uint32_t slot) {
  match_pool_[slot].cts_sent = true;
  inject(MsgKind::kCts, key, slot, key.dst, key.src, 0);
}

void Replayer::message_delivered(simnet::MsgId id, SimTime /*at*/) {
  const MsgRec rec = msg_pool_[static_cast<std::size_t>(id)];
  msg_free_.push_back(static_cast<std::uint32_t>(id));
  // The record is reached through the slot carried by the message itself;
  // records outlive every message in flight for them (see match_slot_), so
  // no lookup — and no existence check — is needed here.
  MatchState& ms = match_pool_[rec.slot];
  switch (rec.kind) {
    case MsgKind::kRts:
      ms.is_rdv = true;
      ms.rts_arrived = true;
      if (ms.recv_posted && !ms.cts_sent) send_cts(rec.key, rec.slot);
      break;
    case MsgKind::kCts:
      // Arrived back at the sender: ship the payload.
      inject(MsgKind::kRdvData, rec.key, rec.slot, rec.key.src, rec.key.dst, ms.send_bytes);
      break;
    case MsgKind::kEagerData:
      ms.data_delivered = true;
      if (ms.recv_posted && !ms.recv_done) complete_recv(rec.key, ms);
      maybe_erase(rec.key, rec.slot, ms);
      break;
    case MsgKind::kRdvData:
      ms.data_delivered = true;
      complete_rdv_sender(rec.key, ms);
      if (ms.recv_posted && !ms.recv_done) complete_recv(rec.key, ms);
      maybe_erase(rec.key, rec.slot, ms);
      break;
  }
}

void Replayer::complete_recv(const trace::MatchKey& key, MatchState& ms) {
  ms.recv_done = true;
  msgs_matched_.add();
  RankState& st = ranks_[static_cast<std::size_t>(key.dst)];
  if (ms.recv_req >= 0) {
    complete_request(key.dst, ms.recv_req);
  } else if (ms.recv_blocking && st.block == Block::kRecv) {
    unblock(key.dst);
  }
}

void Replayer::complete_rdv_sender(const trace::MatchKey& key, MatchState& ms) {
  if (ms.sender_done) return;
  ms.sender_done = true;
  RankState& st = ranks_[static_cast<std::size_t>(key.src)];
  if (ms.send_req >= 0) {
    complete_request(key.src, ms.send_req);
  } else if (st.block == Block::kSendRdv) {
    unblock(key.src);
  }
}

void Replayer::complete_request(Rank r, std::int64_t req) {
  RankState& st = ranks_[static_cast<std::size_t>(r)];
  const bool erased = st.pending_reqs.erase(static_cast<std::uint64_t>(req));
  HPS_CHECK_MSG(erased, "completing unknown request");
  if (is_coll_req(req))
    --st.pending_coll;
  else
    --st.pending_app;

  switch (st.block) {
    case Block::kWaitReq:
      if (st.block_req == req) unblock(r);
      break;
    case Block::kWaitAllApp:
      if (st.pending_app == 0) unblock(r);
      break;
    case Block::kWaitAllColl:
      if (st.pending_coll == 0) unblock(r);
      break;
    default:
      break;
  }
}

void Replayer::maybe_erase(const trace::MatchKey& key, std::uint32_t slot,
                           const MatchState& ms) {
  // Only a fully completed record pays the erase probe; its slot goes back
  // on the free list for the next match_of().
  if (ms.recv_done && ms.sender_done && ms.data_delivered) {
    match_slot_.erase(key);
    match_free_.push_back(slot);
  }
}

void Replayer::begin_collective(Rank r, RankState& st, const trace::Event& e) {
  collectives_.add();
  const auto& members = trace_.comm(e.comm);
  const std::int32_t me = member_index_(e.comm, r);
  HPS_CHECK_MSG(me >= 0, "rank not a member of collective communicator");

  const std::uint32_t inst = st.coll_count[static_cast<std::uint32_t>(e.comm)]++;
  HPS_CHECK_MSG(inst < (1u << 20) && e.comm < (1 << 10),
                "collective tag space exhausted");
  const Tag tag = -(1 + (e.comm << 20) + static_cast<Tag>(inst));

  CollectiveDesc& d = st.coll;
  d = CollectiveDesc{};
  d.op = e.type;
  d.n = static_cast<int>(members.size());
  d.me = me;
  d.bytes = e.bytes;
  if (trace::is_rooted(e.type)) {
    const std::int32_t root = member_index_(e.comm, e.peer);
    HPS_CHECK_MSG(root >= 0, "collective root outside communicator");
    d.root = root;
  }
  if (e.type == trace::OpType::kAlltoallv) {
    st.coll_a2av_inst = st.a2av_count[static_cast<std::uint32_t>(e.comm)]++;
    d.send_sizes = trace_.rank(r).vlists[static_cast<std::size_t>(e.aux)];
  }
  st.coll_comm = e.comm;
  st.coll_members = &members;
  st.coll_tag = tag;
  st.coll_round = 0;  // advance() expands the schedule a window at a time
}

void Replayer::expand_window(RankState& st) {
  CollectiveDesc& d = st.coll;
  if (d.op == trace::OpType::kAlltoallv) {
    const int last = std::min(d.n - 1, st.coll_round + kScheduleWindow);
    recv_sizes_scratch_.resize(std::max(recv_sizes_scratch_.size(),
                                        static_cast<std::size_t>(d.n)));
    for (int k = st.coll_round; k < last; ++k) {
      const auto src = static_cast<std::size_t>(pairwise_source(d.n, d.me, k));
      recv_sizes_scratch_[src] =
          a2av_.vlist(st.coll_comm, src, st.coll_a2av_inst)[static_cast<std::size_t>(d.me)];
    }
    d.recv_sizes = std::span(recv_sizes_scratch_.data(), static_cast<std::size_t>(d.n));
  }
  st.coll_round = expand_collective_window(d, cfg_.algos, st.coll_round, kScheduleWindow,
                                           st.subops);
  st.sub_pc = 0;
  peak_window_ = std::max(peak_window_, st.subops.size());
}

ReplayResult Replayer::run() {
  const auto wall_start = std::chrono::steady_clock::now();
  for (Rank r = 0; r < trace_.nranks(); ++r) schedule_advance(r, 0);
  try {
    eng_.run();
  } catch (const robust::CancelledError& e) {
    // Budget trip: report how far the replay got. Rank finish times are
    // unreliable mid-flight, so only the aggregate decomposition, virtual
    // time reached, and engine/network statistics are harvested.
    ReplayResult partial;
    partial.total_time = eng_.now();
    partial.components = components_;  // blocked intervals attributed so far
    for (const RankState& st : ranks_)
      partial.components.compute_ns += static_cast<double>(st.compute_total);
    partial.engine = eng_.stats();
    partial.net = net_->stats();
    partial.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    throw ReplayCancelled(e, std::move(partial));
  }

  if (finished_ != trace_.nranks()) {
    std::string msg = "replay deadlock in " + trace_.meta().app + ": ";
    int shown = 0;
    for (Rank r = 0; r < trace_.nranks() && shown < 4; ++r) {
      const RankState& st = ranks_[static_cast<std::size_t>(r)];
      if (st.done) continue;
      msg += "rank " + std::to_string(r) + " blocked(state=" +
             std::to_string(static_cast<int>(st.block)) + ") at pc " + std::to_string(st.pc) +
             "; ";
      ++shown;
    }
    throw DeadlockError(msg);
  }

  ReplayResult res;
  res.rank_finish.reserve(ranks_.size());
  res.rank_comm.reserve(ranks_.size());
  SimTime comm_sum = 0;
  for (const RankState& st : ranks_) {
    res.rank_finish.push_back(st.finish);
    const SimTime comm = st.finish - st.compute_total;
    res.rank_comm.push_back(comm);
    comm_sum += comm;
    res.total_time = std::max(res.total_time, st.finish);
    // Whatever part of a rank's lifetime is neither compute nor a blocked
    // interval is software overhead and scheduling gaps: the residual bucket.
    components_.compute_ns += static_cast<double>(st.compute_total);
    components_.other_ns +=
        static_cast<double>(st.finish - st.compute_total - st.blocked_total);
  }
  res.comm_time_mean = comm_sum / static_cast<SimTime>(ranks_.size());
  res.components = components_;
  res.engine = eng_.stats();
  res.net = net_->stats();
  res.link_bytes = net_->link_bytes();
  const auto wall_end = std::chrono::steady_clock::now();
  res.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  flush_scheme_telemetry(res);
  return res;
}

namespace {

/// Handles into the global registry for one scheme's `scheme.<model>.*`
/// metrics. Resolved once per model kind — handle lookup by string would
/// otherwise rebuild ~15 keys per finished run.
struct SchemeMetrics {
  telemetry::Counter runs;
  telemetry::Counter des_events_processed;
  telemetry::Counter des_events_scheduled;
  telemetry::Counter net_messages;
  telemetry::Counter net_bytes;
  telemetry::Counter net_packets;
  telemetry::Counter net_rate_updates;
  telemetry::Counter net_ripple_iterations;
  telemetry::Counter net_queue_stalls;
  telemetry::Counter collectives;
  telemetry::Counter msgs_matched;
  telemetry::Counter rendezvous;
  telemetry::Gauge max_queue_depth;
  telemetry::Gauge net_max_active;
  telemetry::Histogram wall_seconds;

  explicit SchemeMetrics(NetModelKind k)
      : SchemeMetrics(std::string("scheme.") + net_model_name(k) + ".") {}
  explicit SchemeMetrics(const std::string& p)
      : runs(telemetry::Registry::global().counter(p + "runs")),
        des_events_processed(telemetry::Registry::global().counter(p + "des_events_processed")),
        des_events_scheduled(telemetry::Registry::global().counter(p + "des_events_scheduled")),
        net_messages(telemetry::Registry::global().counter(p + "net_messages")),
        net_bytes(telemetry::Registry::global().counter(p + "net_bytes")),
        net_packets(telemetry::Registry::global().counter(p + "net_packets")),
        net_rate_updates(telemetry::Registry::global().counter(p + "net_rate_updates")),
        net_ripple_iterations(
            telemetry::Registry::global().counter(p + "net_ripple_iterations")),
        net_queue_stalls(telemetry::Registry::global().counter(p + "net_queue_stalls")),
        collectives(telemetry::Registry::global().counter(p + "collectives")),
        msgs_matched(telemetry::Registry::global().counter(p + "msgs_matched")),
        rendezvous(telemetry::Registry::global().counter(p + "rendezvous")),
        max_queue_depth(telemetry::Registry::global().gauge(p + "max_queue_depth")),
        net_max_active(telemetry::Registry::global().gauge(p + "net_max_active")),
        wall_seconds(telemetry::Registry::global().histogram(p + "wall_seconds",
                                                             telemetry::duration_bounds())) {}

  static const SchemeMetrics& get(NetModelKind k) {
    static const SchemeMetrics packet{NetModelKind::kPacket};
    static const SchemeMetrics flow{NetModelKind::kFlow};
    static const SchemeMetrics packetflow{NetModelKind::kPacketFlow};
    switch (k) {
      case NetModelKind::kPacket:
        return packet;
      case NetModelKind::kFlow:
        return flow;
      default:
        return packetflow;
    }
  }
};

}  // namespace

void Replayer::flush_scheme_telemetry(const ReplayResult& res) {
  auto& reg = telemetry::Registry::global();
  if (!reg.enabled()) return;
  const SchemeMetrics& m = SchemeMetrics::get(kind_);
  m.runs.add(1);
  m.des_events_processed.add(res.engine.events_processed);
  m.des_events_scheduled.add(res.engine.events_scheduled);
  m.net_messages.add(res.net.messages);
  m.net_bytes.add(res.net.bytes);
  m.net_packets.add(res.net.packets);
  m.net_rate_updates.add(res.net.rate_updates);
  m.net_ripple_iterations.add(res.net.ripple_iterations);
  m.net_queue_stalls.add(res.net.queue_events);
  m.collectives.add(collectives_.value());
  m.msgs_matched.add(msgs_matched_.value());
  m.rendezvous.add(rdv_sends_.value());
  m.max_queue_depth.record(res.engine.max_queue_depth);
  m.net_max_active.record(res.net.max_active);
  m.wall_seconds.observe(res.wall_seconds);
  collectives_.reset();
  msgs_matched_.reset();
  rdv_sends_.reset();
}

ReplayResult replay_trace(const trace::Trace& t, const machine::MachineInstance& m,
                          NetModelKind kind, const ReplayConfig& cfg) {
  Replayer rp(t, m, kind, cfg);
  return rp.run();
}

}  // namespace hps::simmpi
