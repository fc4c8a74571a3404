// MPI matching vocabulary shared by trace validation, the MFACT logical
// replay and the simulated-network replayer: FIFO stream keys, the key of
// one logical message, and per-trace communicator and Alltoallv indexes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "trace/trace.hpp"

namespace hps::trace {

/// One word naming the FIFO stream to or from `peer` with `tag`.
inline std::uint64_t stream_key(Rank peer, Tag tag) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer)) << 32) |
         static_cast<std::uint32_t>(tag);
}

/// Key identifying one logical message: the seq-th message from src to dst
/// with the given tag. Sequence numbers give MPI's FIFO matching order even
/// if the network delivers out of order.
struct MatchKey {
  Rank src = -1, dst = -1;
  Tag tag = 0;
  std::uint32_t seq = 0;
  bool operator==(const MatchKey&) const = default;
};

struct MatchKeyHash {
  std::size_t operator()(const MatchKey& k) const {
    std::uint64_t h = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.src)) << 32) |
                      static_cast<std::uint32_t>(k.dst);
    std::uint64_t h2 = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.tag)) << 32) |
                       k.seq;
    h ^= h2 * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(h ^ (h >> 31));
  }
};

/// comm -> world rank -> index into Trace::comm(c), -1 if not a member.
/// Built once per trace; unique because communicators never repeat a rank.
class CommIndex {
 public:
  explicit CommIndex(const Trace& t)
      : n_(static_cast<std::size_t>(t.nranks())), index_(t.num_comms() * n_, -1) {
    for (std::size_t c = 0; c < t.num_comms(); ++c) {
      const auto& members = t.comm(static_cast<CommId>(c));
      for (std::size_t i = 0; i < members.size(); ++i)
        index_[c * n_ + static_cast<std::size_t>(members[i])] = static_cast<std::int32_t>(i);
    }
  }

  /// `r`'s index in the valid comm `c`; -1 also when `r` is no world rank.
  std::int32_t operator()(CommId c, Rank r) const {
    if (r < 0 || static_cast<std::size_t>(r) >= n_) return -1;
    return index_[static_cast<std::size_t>(c) * n_ + static_cast<std::size_t>(r)];
  }

 private:
  std::size_t n_;
  std::vector<std::int32_t> index_;
};

/// The size list of every Alltoallv, by comm, member index and instance.
class AlltoallvIndex {
 public:
  AlltoallvIndex(const Trace& t, const CommIndex& members) : t_(t), aux_(t.num_comms()) {
    for (Rank r = 0; r < t.nranks(); ++r)
      for (const Event& e : t.rank(r).events) {
        if (e.type != OpType::kAlltoallv) continue;
        const std::int32_t me = members(e.comm, r);
        HPS_CHECK_MSG(me >= 0, "alltoallv on a communicator the rank is not in");
        auto& ids = aux_[static_cast<std::size_t>(e.comm)];
        ids.resize(t.comm(e.comm).size());
        ids[static_cast<std::size_t>(me)].push_back(e.aux);
      }
  }

  /// The vlist member `i` of comm `c` passed to the comm's inst-th Alltoallv.
  const std::vector<std::uint64_t>& vlist(CommId c, std::size_t i, std::uint32_t inst) const {
    const auto& ids = aux_[static_cast<std::size_t>(c)][i];
    HPS_CHECK_MSG(inst < ids.size(), "alltoallv instance mismatch across ranks");
    return t_.rank(t_.comm(c)[i]).vlists[static_cast<std::size_t>(ids[inst])];
  }

 private:
  const Trace& t_;
  std::vector<std::vector<std::vector<std::int32_t>>> aux_;  // comm, member: aux ids
};

}  // namespace hps::trace
