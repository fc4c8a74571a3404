// Decomposition of MPI collectives into point-to-point schedules, following
// the algorithm repertoire of Thakur & Gropp ("Improving the Performance of
// MPI Collective Communication on Switched Networks"): dissemination
// barrier, binomial-tree bcast/reduce/gather/scatter, recursive-doubling
// allreduce (with the power-of-two fold-in for odd sizes), ring allgather,
// and pairwise-exchange alltoall(v).
//
// The expansion is per rank: given a collective descriptor it emits the
// ordered sub-operations that rank executes. All ranks expanding the same
// descriptor produce a globally deadlock-free, mutually matching schedule
// (each Isend is eventually matched by the peer's Recv in the same round).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "trace/event.hpp"

namespace hps::simmpi {

/// One step of a rank's collective schedule.
struct SubOp {
  enum class Kind : std::uint8_t {
    kIsend,    ///< nonblocking send to `peer`
    kRecv,     ///< blocking receive from `peer`
    kWaitOne,  ///< complete the oldest outstanding collective Isend
    kWaitAll,  ///< complete every outstanding collective Isend
  };
  Kind kind = Kind::kIsend;
  /// Matching ordinal: this is the seq-th Isend to (kIsend) or Recv from
  /// (kRecv) `peer` in this schedule, counting from 0; 0 for the waits.
  /// Every collective instance has a tag of its own, so (tag, seq) fixes the
  /// message's place in its MPI stream without a per-stream counter.
  std::uint16_t seq = 0;
  Rank peer = -1;        ///< peer *index within the communicator*
  std::uint64_t bytes = 0;
};
static_assert(sizeof(SubOp) == 16, "seq must stay in SubOp's padding");

/// Algorithm selection knobs (the ablation bench varies these).
struct CollectiveAlgos {
  enum class Alltoall { kPairwise, kBruck };
  enum class Allgather { kRing, kRecursiveDoubling };
  Alltoall alltoall = Alltoall::kPairwise;
  Allgather allgather = Allgather::kRing;
  /// Allreduce switches from recursive doubling to Rabenseifner
  /// (reduce-scatter + allgather) above this payload size.
  std::uint64_t allreduce_rabenseifner_threshold = 32 * KiB;
};

/// Descriptor of one collective instance as seen by rank `me` (an index in
/// [0, n) within the communicator, *not* a world rank).
struct CollectiveDesc {
  trace::OpType op = trace::OpType::kBarrier;
  int n = 0;     ///< communicator size
  int me = 0;    ///< my index within the communicator
  int root = 0;  ///< root index for rooted collectives
  std::uint64_t bytes = 0;  ///< payload semantics follow trace::OpType docs
  /// Alltoallv: bytes I send to each member (size n). Empty otherwise.
  std::span<const std::uint64_t> send_sizes;
  /// Alltoallv: bytes each member sends to me (size n). Empty otherwise.
  std::span<const std::uint64_t> recv_sizes;
};

/// Rounds of an O(n) schedule one windowed expansion emits (below).
inline constexpr int kScheduleWindow = 64;

/// expand_collective_window's return value once the schedule is complete.
inline constexpr int kScheduleDone = -1;

/// Expand rounds [first_round, first_round + max_rounds) of the collective
/// into `out` (cleared first), with every Isend and Recv numbered by `seq`
/// as in the whole schedule. Returns the round to resume from, or
/// kScheduleDone. Only the O(n)-round schedules are windowed: pairwise
/// alltoall and alltoallv (round k exchanges with me +/- (k + 1)) and the
/// ring allgather (round k passes block k on). Every other algorithm has
/// O(log n) rounds and emits its whole schedule from round 0. A windowed
/// Alltoallv reads only the recv_sizes entries of the window's sources
/// (pairwise_source). HPS_CHECK fails if more than 65,536 messages would go
/// to, or come from, one peer.
int expand_collective_window(const CollectiveDesc& d, const CollectiveAlgos& algos,
                             int first_round, int max_rounds, std::vector<SubOp>& out);

/// The whole schedule in one call.
void expand_collective(const CollectiveDesc& d, const CollectiveAlgos& algos,
                       std::vector<SubOp>& out);

/// The member whose block `me` receives in round `round` of a pairwise
/// alltoall or Alltoallv over n members.
inline int pairwise_source(int n, int me, int round) { return (me - round - 1 + n) % n; }

/// Number of p2p rounds of the dissemination barrier for n ranks (tests).
int dissemination_rounds(int n);

}  // namespace hps::simmpi
