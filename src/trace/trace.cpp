#include "trace/trace.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"

namespace hps::trace {

bool has_duplicate_members(std::vector<Rank> members) {
  std::sort(members.begin(), members.end());
  return std::adjacent_find(members.begin(), members.end()) != members.end();
}

Trace::Trace(TraceMeta meta) : meta_(std::move(meta)) {
  HPS_CHECK(meta_.nranks > 0);
  HPS_CHECK(meta_.ranks_per_node > 0);
  ranks_.resize(static_cast<std::size_t>(meta_.nranks));
  std::vector<Rank> world(static_cast<std::size_t>(meta_.nranks));
  for (Rank r = 0; r < meta_.nranks; ++r) world[static_cast<std::size_t>(r)] = r;
  comms_.push_back(std::move(world));
}

CommId Trace::add_comm(std::vector<Rank> members) {
  HPS_CHECK(!members.empty());
  for (Rank r : members) HPS_CHECK(r >= 0 && r < meta_.nranks);
  HPS_CHECK(!has_duplicate_members(members));
  comms_.push_back(std::move(members));
  return static_cast<CommId>(comms_.size() - 1);
}

std::uint64_t Trace::total_events() const {
  std::uint64_t n = 0;
  for (const auto& rt : ranks_) n += rt.events.size();
  return n;
}

SimTime Trace::measured_total() const {
  SimTime mx = 0;
  for (const auto& rt : ranks_) {
    SimTime t = 0;
    for (const auto& e : rt.events) t += e.duration;
    mx = std::max(mx, t);
  }
  return mx;
}

SimTime Trace::measured_comm_mean() const {
  if (ranks_.empty()) return 0;
  SimTime total = 0;
  for (const auto& rt : ranks_) {
    for (const auto& e : rt.events)
      if (e.type != OpType::kCompute) total += e.duration;
  }
  return total / static_cast<SimTime>(ranks_.size());
}

TraceStats compute_stats(const Trace& t) {
  TraceStats s;
  std::uint64_t total_dests = 0;
  std::uint64_t sending_ranks = 0;
  for (Rank r = 0; r < t.nranks(); ++r) {
    const auto& rt = t.rank(r);
    bool saw_barrier = false;
    bool saw_a2a = false;
    std::unordered_set<Rank> dests;
    for (const auto& e : rt.events) {
      ++s.events;
      s.time_total += e.duration;
      switch (e.type) {
        case OpType::kCompute:
          s.time_compute += e.duration;
          continue;  // not an MPI call
        case OpType::kSend:
          ++s.sends;
          ++s.messages;
          s.bytes_p2p += e.bytes;
          s.bytes_total += e.bytes;
          dests.insert(e.peer);
          s.time_p2p += e.duration;
          s.time_sync_p2p += e.duration;
          break;
        case OpType::kIsend:
          ++s.isends;
          ++s.messages;
          s.bytes_p2p += e.bytes;
          s.bytes_total += e.bytes;
          dests.insert(e.peer);
          s.time_p2p += e.duration;
          s.time_async_p2p += e.duration;
          break;
        case OpType::kRecv:
          ++s.recvs;
          s.time_p2p += e.duration;
          s.time_sync_p2p += e.duration;
          break;
        case OpType::kIrecv:
          ++s.irecvs;
          s.time_p2p += e.duration;
          s.time_async_p2p += e.duration;
          break;
        case OpType::kWait:
        case OpType::kWaitAll:
          s.time_p2p += e.duration;
          s.time_async_p2p += e.duration;
          break;
        case OpType::kBarrier:
          ++s.barriers;
          s.time_barrier += e.duration;
          if (!saw_barrier) {
            s.time_first_barrier += e.duration;
            saw_barrier = true;
          }
          break;
        default: {  // non-barrier collectives
          ++s.collectives;
          s.time_collective += e.duration;
          // Injected bytes: for alltoall-like ops `bytes` is already the
          // per-peer block (alltoall) or the total (alltoallv).
          const std::size_t csize = t.comm(e.comm).size();
          std::uint64_t injected = e.bytes;
          if (e.type == OpType::kAlltoall) injected = e.bytes * (csize > 0 ? csize - 1 : 0);
          s.bytes_total += injected;
          if (is_alltoall_like(e.type) && !saw_a2a) {
            s.time_first_a2a += e.duration;
            saw_a2a = true;
          }
          break;
        }
      }
      ++s.mpi_calls;
    }
    if (!dests.empty()) {
      total_dests += dests.size();
      ++sending_ranks;
    }
    s.comm_pairs += dests.size();
  }
  s.time_comm = s.time_total - s.time_compute;
  s.avg_dests_per_source =
      sending_ranks > 0 ? static_cast<double>(total_dests) / static_cast<double>(sending_ranks)
                        : 0.0;
  return s;
}

}  // namespace hps::trace
