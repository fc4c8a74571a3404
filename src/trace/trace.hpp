// Trace container: per-rank event streams plus metadata, the in-memory
// analogue of a directory of DUMPI files from one application run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "trace/event.hpp"

namespace hps::trace {

/// The event stream of a single MPI rank.
struct RankTrace {
  std::vector<Event> events;
  /// Per-destination byte lists for Alltoallv events (indexed by Event::aux).
  /// Each list has one entry per member of the event's communicator.
  std::vector<std::vector<std::uint64_t>> vlists;
};

/// Metadata describing the run the trace was collected from.
struct TraceMeta {
  std::string app;      ///< application name, e.g. "CG", "LULESH"
  std::string variant;  ///< problem class / size descriptor, e.g. "C.256"
  std::string machine;  ///< machine the trace was collected on
  Rank nranks = 0;
  std::int32_t ranks_per_node = 16;
  std::uint64_t seed = 0;  ///< generator seed (0 for externally loaded traces)
};

/// Largest rank count the trace readers accept: every rank gets storage
/// before any of its events is read, so a hostile header must not choose it.
inline constexpr Rank kMaxRanks = 1 << 20;

/// Whether `members` names some rank more than once.
bool has_duplicate_members(std::vector<Rank> members);

/// A complete application trace.
class Trace {
 public:
  Trace() = default;

  /// Construct an empty trace with `nranks` rank streams and a world
  /// communicator containing all of them.
  explicit Trace(TraceMeta meta);

  const TraceMeta& meta() const { return meta_; }
  TraceMeta& meta() { return meta_; }

  Rank nranks() const { return meta_.nranks; }
  std::int32_t nodes() const {
    return (meta_.nranks + meta_.ranks_per_node - 1) / meta_.ranks_per_node;
  }

  const RankTrace& rank(Rank r) const { return ranks_[static_cast<std::size_t>(r)]; }
  RankTrace& rank(Rank r) { return ranks_[static_cast<std::size_t>(r)]; }

  /// Register a sub-communicator; returns its CommId. Members are distinct
  /// world ranks.
  CommId add_comm(std::vector<Rank> members);

  /// Members of a communicator. CommId 0 is always the full world.
  const std::vector<Rank>& comm(CommId c) const { return comms_[static_cast<std::size_t>(c)]; }
  std::size_t num_comms() const { return comms_.size(); }

  /// Total number of events across ranks.
  std::uint64_t total_events() const;

  /// Measured wall time: max over ranks of the sum of event durations.
  SimTime measured_total() const;

  /// Measured communication time: mean over ranks of the summed durations of
  /// all non-compute events.
  SimTime measured_comm_mean() const;

 private:
  TraceMeta meta_;
  std::vector<RankTrace> ranks_;
  std::vector<std::vector<Rank>> comms_;
};

/// Per-trace tallies used by Table I and the feature extractor.
struct TraceStats {
  std::uint64_t events = 0;
  std::uint64_t mpi_calls = 0;     // all non-compute events
  std::uint64_t sends = 0;         // blocking sends
  std::uint64_t isends = 0;        // nonblocking sends
  std::uint64_t recvs = 0;
  std::uint64_t irecvs = 0;
  std::uint64_t barriers = 0;      // per-rank barrier records
  std::uint64_t collectives = 0;   // per-rank non-barrier collective records
  std::uint64_t messages = 0;      // p2p messages sent
  std::uint64_t bytes_total = 0;   // all bytes injected (p2p + collective contributions)
  std::uint64_t bytes_p2p = 0;
  SimTime time_total = 0;          // sum over ranks of all durations
  SimTime time_compute = 0;
  SimTime time_comm = 0;           // total - compute
  SimTime time_barrier = 0;
  SimTime time_first_barrier = 0;  // summed over ranks for the first barrier
  SimTime time_collective = 0;     // non-barrier collectives
  SimTime time_first_a2a = 0;      // first alltoall(-v) occurrence, summed over ranks
  SimTime time_p2p = 0;            // send/recv/wait durations
  SimTime time_sync_p2p = 0;       // blocking send+recv durations
  SimTime time_async_p2p = 0;      // isend/irecv/wait durations
  std::uint64_t comm_pairs = 0;    // distinct (src, dst) pairs with p2p traffic
  double avg_dests_per_source = 0; // mean distinct destinations per sending rank
  double comm_fraction() const {
    return time_total > 0 ? static_cast<double>(time_comm) / static_cast<double>(time_total) : 0.0;
  }
};

/// Single pass over the trace computing the tallies above.
TraceStats compute_stats(const Trace& t);

}  // namespace hps::trace
