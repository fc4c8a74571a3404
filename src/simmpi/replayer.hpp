// Trace replay on a simulated network (the SST/Macro-style off-line
// simulation of the paper's §II-A).
//
// Each trace rank is a state machine driven by the discrete-event engine.
// Computation events advance the rank's clock by the measured interval
// (optionally scaled); communication events are executed through a network
// model with full MPI semantics:
//   * eager protocol for messages at or below the threshold (fire and
//     forget), rendezvous (RTS -> CTS -> data, all through the network) above;
//   * FIFO per-(source, destination, tag) matching with posted/unexpected
//     handling, via per-stream sequence numbers (counted per stream for app
//     point-to-point, fixed at schedule expansion for collectives);
//   * nonblocking operations with request completion and Wait/WaitAll;
//   * collectives decomposed into point-to-point schedules (collectives.hpp)
//     executed through the same network, so they create real contention.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/units.hpp"
#include "des/engine.hpp"
#include "machine/machine.hpp"
#include "obs/components.hpp"
#include "robust/cancel.hpp"
#include "simmpi/collectives.hpp"
#include "simnet/network.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/match.hpp"
#include "trace/trace.hpp"

namespace hps::obs {
class TimelineRecorder;
}

namespace hps::simmpi {

/// Which network model to replay on.
enum class NetModelKind { kPacket, kFlow, kPacketFlow };

const char* net_model_name(NetModelKind k);

struct ReplayConfig {
  /// Messages <= this use the eager protocol; larger ones use rendezvous.
  std::uint64_t eager_threshold = 8 * KiB;
  CollectiveAlgos algos;
  /// Scale factor on measured compute intervals (models faster/slower CPUs).
  double compute_scale = 1.0;
  /// Packet size for the packet model (SST 3.0-style fine packets).
  std::uint64_t packet_size = 1 * KiB;
  /// Packet size for the hybrid packet-flow model (coarse, 1-8 KB per the
  /// SST/Macro guidance; 4 KB default).
  std::uint64_t packetflow_packet_size = 4 * KiB;
  /// Optional virtual-time timeline sink (not owned). When set, the replayer
  /// and the network model record per-rank/per-link intervals into it.
  obs::TimelineRecorder* timeline = nullptr;
  /// Optional cooperative budget/cancel token (not owned). The replayer hands
  /// it to its DES engine; a trip surfaces as ReplayCancelled carrying the
  /// partial result accumulated up to the cancellation point.
  robust::CancelToken* cancel = nullptr;
};

struct ReplayResult {
  SimTime total_time = 0;      ///< max over ranks of finish time
  SimTime comm_time_mean = 0;  ///< mean over ranks of (finish - compute)
  std::vector<SimTime> rank_finish;
  std::vector<SimTime> rank_comm;
  des::EngineStats engine;
  simnet::NetStats net;
  /// Bytes carried per directed fabric link (hotspot telemetry).
  std::vector<std::uint64_t> link_bytes;
  /// Virtual-time decomposition summed over ranks (compute / p2p /
  /// collective / wait / residual).
  obs::ComponentTimes components;
  double wall_seconds = 0;  ///< host wall-clock spent replaying
};

/// Replay `t` on machine `m` with the given network model. Throws
/// hps::DeadlockError when the calendar drains with unfinished ranks,
/// hps::Error on other malformed traces (bad matching), and ReplayCancelled
/// when cfg.cancel trips mid-run.
ReplayResult replay_trace(const trace::Trace& t, const machine::MachineInstance& m,
                          NetModelKind kind, const ReplayConfig& cfg = {});

/// A budget/cancel trip that carries the partial result accumulated up to the
/// cancellation point (virtual time reached, component decomposition, engine
/// and network statistics) so a budget-exceeded outcome still reports how far
/// the run got.
class ReplayCancelled : public robust::CancelledError {
 public:
  ReplayCancelled(const robust::CancelledError& cause, ReplayResult partial)
      : robust::CancelledError(cause), partial_(std::move(partial)) {}
  const ReplayResult& partial() const { return partial_; }

 private:
  ReplayResult partial_;
};

/// The replay engine. Exposed (rather than hidden in the .cpp) so tests can
/// drive smaller scenarios and inspect state; most callers use replay_trace.
class Replayer final : public simnet::MessageSink, private des::Handler {
 public:
  Replayer(const trace::Trace& t, const machine::MachineInstance& m, NetModelKind kind,
           const ReplayConfig& cfg);
  ~Replayer() override;

  /// Run to completion and harvest results. Throws on deadlock.
  ReplayResult run();

  /// The most collective SubOps any rank has held at once: at most one
  /// window (kScheduleWindow rounds) of an O(n) schedule.
  std::size_t peak_window() const { return peak_window_; }

  // MessageSink:
  void message_delivered(simnet::MsgId id, SimTime at) override;

 private:
  enum class Block : std::uint8_t { kNone, kRecv, kSendRdv, kWaitReq, kWaitAllApp, kWaitAllColl };
  enum class MsgKind : std::uint8_t { kEagerData, kRts, kCts, kRdvData };

  struct MatchState {
    std::uint64_t send_bytes = 0;
    std::int64_t send_req = -1;  // rendezvous Isend request, -1 if blocking/none
    std::int64_t recv_req = -1;  // Irecv request, -1 if blocking/none
    bool is_rdv = false;
    bool rts_arrived = false;
    bool cts_sent = false;
    bool data_delivered = false;
    bool recv_posted = false;
    bool recv_blocking = false;
    bool recv_done = false;
    bool sender_done = false;
  };

  struct MsgRec {
    MsgKind kind = MsgKind::kEagerData;
    trace::MatchKey key;
    std::uint32_t slot = 0;  // index into match_pool_; skips the hash probe
  };

  struct RankState {
    std::size_t pc = 0;  // index into the rank's trace events
    // The collective in progress, if coll_members is set: its descriptor,
    // the window of its schedule being executed, and the round the next
    // window starts at (kScheduleDone after the last).
    const std::vector<Rank>* coll_members = nullptr;
    CollectiveDesc coll;
    CommId coll_comm = 0;
    std::uint32_t coll_a2av_inst = 0;  ///< Alltoallv: instance on coll_comm
    int coll_round = kScheduleDone;
    std::vector<SubOp> subops;
    std::size_t sub_pc = 0;
    Tag coll_tag = 0;
    // Collective isends in issue order, not yet waited: a vector drained by
    // a head cursor instead of a deque, rewound whenever it runs empty, so
    // one small reused buffer beats the deque's paged storage.
    std::vector<std::int64_t> coll_isends;
    std::size_t coll_head = 0;
    bool coll_isends_empty() const { return coll_head == coll_isends.size(); }

    Block block = Block::kNone;
    std::int64_t block_req = -1;
    SimTime block_since = 0;    ///< virtual time the current block began
    SimTime blocked_total = 0;  ///< lifetime sum of blocked intervals

    // Outstanding request ids (used as a set; the mapped byte is ignored).
    FlatMap<std::uint64_t, std::uint8_t, Mix64Hash> pending_reqs;
    int pending_app = 0;   // count of pending app (trace) requests
    int pending_coll = 0;  // count of pending collective requests

    // App point-to-point only: (peer, tag) -> next seq. Collective sub-ops
    // carry their own seq (SubOp::seq): each instance's tag is used once, so
    // counting it here would only add keys that are never read again.
    FlatMap<std::uint64_t, std::uint32_t, Mix64Hash> send_seq;
    FlatMap<std::uint64_t, std::uint32_t, Mix64Hash> recv_seq;
    // Collective / alltoallv instances per comm.
    FlatMap<std::uint64_t, std::uint32_t, Mix64Hash> coll_count;
    FlatMap<std::uint64_t, std::uint32_t, Mix64Hash> a2av_count;

    SimTime compute_total = 0;
    SimTime finish = -1;
    bool done = false;
  };

  // des::Handler: payload a = rank to advance.
  void handle(des::Engine& eng, std::uint64_t a, std::uint64_t b) override;

  void advance(Rank r);
  /// Execute one sub-operation; returns true if the rank may continue.
  bool exec_subop(Rank r, RankState& st, const SubOp& op);
  /// Execute one trace event; returns true if the rank may continue
  /// immediately (false: blocked or resumption already scheduled).
  bool exec_event(Rank r, RankState& st, const trace::Event& e);

  /// Post the seq-th send to (dst, tag) / receive from (src, tag).
  void do_send(Rank r, RankState& st, Rank dst, Tag tag, std::uint32_t seq,
               std::uint64_t bytes, bool blocking, std::int64_t req);
  void do_recv(Rank r, RankState& st, Rank src, Tag tag, std::uint32_t seq, bool blocking,
               std::int64_t req);
  bool do_wait(Rank r, RankState& st, std::int64_t req);
  void begin_collective(Rank r, RankState& st, const trace::Event& e);
  /// Replace the rank's SubOps with the next window of its collective.
  void expand_window(RankState& st);

  void inject(MsgKind kind, const trace::MatchKey& key, std::uint32_t slot, Rank from,
              Rank to, std::uint64_t bytes);
  void send_cts(const trace::MatchKey& key, std::uint32_t slot);
  void complete_request(Rank r, std::int64_t req);
  void complete_recv(const trace::MatchKey& key, MatchState& st);
  void complete_rdv_sender(const trace::MatchKey& key, MatchState& st);
  /// Find-or-create the match record for `key`; returns its match_pool_ slot.
  std::uint32_t match_of(const trace::MatchKey& key);
  void maybe_erase(const trace::MatchKey& key, std::uint32_t slot, const MatchState& ms);
  /// Enter a blocked state, stamping the block start for component
  /// attribution. All five block sites go through here.
  void begin_block(RankState& st, Block b, std::int64_t req = -1);
  void unblock(Rank r);
  void schedule_advance(Rank r, SimTime at);

  std::int64_t new_coll_req(RankState& st);

  /// Publish per-scheme counters (`scheme.<model>.*`) for this finished run
  /// into the global telemetry registry. No-op when telemetry is disabled.
  void flush_scheme_telemetry(const ReplayResult& res);

  NodeId node_of(Rank r) const { return machine_.node_of(r); }

  const trace::Trace& trace_;
  const machine::MachineInstance& machine_;
  ReplayConfig cfg_;
  NetModelKind kind_;

  // Single-threaded tallies, published via flush_scheme_telemetry().
  telemetry::LocalCounter collectives_;   ///< collectives decomposed to p2p
  telemetry::LocalCounter msgs_matched_;  ///< receives matched to a sender
  telemetry::LocalCounter rdv_sends_;     ///< sends over the eager threshold

  des::Engine eng_;
  std::unique_ptr<simnet::NetworkModel> net_;

  std::vector<RankState> ranks_;
  // Match records live in a recycled pool; the map only resolves key -> slot
  // (stored as slot + 1 so the map's value-initialized state means "new").
  // In-flight network messages carry the slot in their MsgRec, so a delivery
  // reaches its record with no hash probe at all. A record is erased only
  // when both sides and the data are done, so no in-flight message can
  // outlive its slot.
  FlatMap<trace::MatchKey, std::uint32_t, trace::MatchKeyHash> match_slot_;
  std::vector<MatchState> match_pool_;
  std::vector<std::uint32_t> match_free_;
  std::vector<MsgRec> msg_pool_;
  std::vector<std::uint32_t> msg_free_;

  const trace::CommIndex member_index_;
  const trace::AlltoallvIndex a2av_;

  std::int64_t next_coll_req_ = 0;
  Rank finished_ = 0;
  obs::ComponentTimes components_;  ///< accumulated at each unblock
  /// Alltoallv receive sizes of one window, shared by all ranks: only the
  /// entries of the window being expanded are current.
  std::vector<std::uint64_t> recv_sizes_scratch_;
  std::size_t peak_window_ = 0;
};

}  // namespace hps::simmpi
