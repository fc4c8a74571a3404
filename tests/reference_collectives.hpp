// The whole-schedule implementation of simmpi::expand_collective, kept
// verbatim as the reference the differential tests compare the windowed
// expansion with: same SubOps, same order, same seq.
#pragma once

#include <algorithm>
#include <bit>
#include <vector>

#include "common/error.hpp"
#include "simmpi/collectives.hpp"

namespace hps::simmpi::reference {

namespace {

using trace::OpType;

int pow2_floor(int n) { return 1 << (std::bit_width(static_cast<unsigned>(n)) - 1); }
int pow2_ceil(int n) { return static_cast<int>(std::bit_ceil(static_cast<unsigned>(n))); }

// The algorithms below emit seq = 0; number_messages() fills it in.
void isend(std::vector<SubOp>& out, int peer, std::uint64_t bytes) {
  out.push_back({SubOp::Kind::kIsend, 0, static_cast<Rank>(peer), bytes});
}
void recv(std::vector<SubOp>& out, int peer, std::uint64_t bytes) {
  out.push_back({SubOp::Kind::kRecv, 0, static_cast<Rank>(peer), bytes});
}
void wait_one(std::vector<SubOp>& out) { out.push_back({SubOp::Kind::kWaitOne, 0, -1, 0}); }
void wait_all(std::vector<SubOp>& out) { out.push_back({SubOp::Kind::kWaitAll, 0, -1, 0}); }

/// Exchange with a partner: isend + recv + complete the isend. The standard
/// deadlock-free sendrecv building block of the doubling algorithms.
void exchange(std::vector<SubOp>& out, int peer, std::uint64_t send_bytes,
              std::uint64_t recv_bytes) {
  isend(out, peer, send_bytes);
  recv(out, peer, recv_bytes);
  wait_one(out);
}

/// Dissemination barrier (works for any n).
void barrier(const CollectiveDesc& d, std::vector<SubOp>& out) {
  for (int k = 1; k < d.n; k <<= 1) {
    isend(out, (d.me + k) % d.n, 0);
    recv(out, (d.me - k + d.n) % d.n, 0);
    wait_one(out);
  }
}

/// Binomial-tree helpers, in root-relative ("virtual") rank space.
/// Parent of vr > 0 is vr minus its lowest set bit; children of vr are
/// vr + m for power-of-two m below its lowest set bit (below 2^ceil for the
/// root), subject to vr + m < n.
int lsb_limit(int vr, int n) {
  return vr == 0 ? pow2_ceil(n) : (vr & -vr);
}

int to_comm_index(int vr, int root, int n) { return (vr + root) % n; }

void bcast(const CollectiveDesc& d, std::vector<SubOp>& out) {
  const int vr = (d.me - d.root + d.n) % d.n;
  const int limit = lsb_limit(vr, d.n);
  if (vr != 0) recv(out, to_comm_index(vr - limit, d.root, d.n), d.bytes);
  for (int m = limit >> 1; m >= 1; m >>= 1)
    if (vr + m < d.n) isend(out, to_comm_index(vr + m, d.root, d.n), d.bytes);
  wait_all(out);
}

void reduce(const CollectiveDesc& d, std::vector<SubOp>& out) {
  const int vr = (d.me - d.root + d.n) % d.n;
  const int limit = lsb_limit(vr, d.n);
  for (int m = 1; m < limit; m <<= 1)
    if (vr + m < d.n) recv(out, to_comm_index(vr + m, d.root, d.n), d.bytes);
  if (vr != 0) {
    isend(out, to_comm_index(vr - limit, d.root, d.n), d.bytes);
    wait_one(out);
  }
}

/// Subtree size (self + descendants) of virtual rank vr in the binomial tree.
std::uint64_t subtree(int vr, int n) {
  return static_cast<std::uint64_t>(std::min(lsb_limit(vr, n), n - vr));
}

void gather(const CollectiveDesc& d, std::vector<SubOp>& out) {
  const int vr = (d.me - d.root + d.n) % d.n;
  const int limit = lsb_limit(vr, d.n);
  for (int m = 1; m < limit; m <<= 1)
    if (vr + m < d.n)
      recv(out, to_comm_index(vr + m, d.root, d.n), d.bytes * subtree(vr + m, d.n));
  if (vr != 0) {
    isend(out, to_comm_index(vr - limit, d.root, d.n), d.bytes * subtree(vr, d.n));
    wait_one(out);
  }
}

void scatter(const CollectiveDesc& d, std::vector<SubOp>& out) {
  const int vr = (d.me - d.root + d.n) % d.n;
  const int limit = lsb_limit(vr, d.n);
  if (vr != 0) recv(out, to_comm_index(vr - limit, d.root, d.n), d.bytes * subtree(vr, d.n));
  for (int m = limit >> 1; m >= 1; m >>= 1)
    if (vr + m < d.n)
      isend(out, to_comm_index(vr + m, d.root, d.n), d.bytes * subtree(vr + m, d.n));
  wait_all(out);
}

/// Recursive-doubling allreduce with the power-of-two fold-in: ranks beyond
/// the largest power of two first fold their contribution into a partner,
/// sit out the doubling, and receive the final result afterwards.
void allreduce_recursive_doubling(const CollectiveDesc& d, std::vector<SubOp>& out) {
  const int p2 = pow2_floor(d.n);
  const int rem = d.n - p2;

  int newrank;
  if (d.me < 2 * rem) {
    if (d.me % 2 == 1) {
      isend(out, d.me - 1, d.bytes);
      wait_one(out);
      recv(out, d.me - 1, d.bytes);  // final result comes back at the end
      return;
    }
    recv(out, d.me + 1, d.bytes);
    newrank = d.me / 2;
  } else {
    newrank = d.me - rem;
  }

  auto real_rank = [&](int nr) { return nr < rem ? nr * 2 : nr + rem; };
  for (int mask = 1; mask < p2; mask <<= 1)
    exchange(out, real_rank(newrank ^ mask), d.bytes, d.bytes);

  if (d.me < 2 * rem) {
    isend(out, d.me + 1, d.bytes);
    wait_one(out);
  }
}

/// Rabenseifner allreduce: recursive-halving reduce-scatter followed by a
/// recursive-doubling allgather. Message sizes shrink/grow with distance.
void allreduce_rabenseifner(const CollectiveDesc& d, std::vector<SubOp>& out) {
  const int p2 = pow2_floor(d.n);
  const int rem = d.n - p2;

  int newrank;
  if (d.me < 2 * rem) {
    if (d.me % 2 == 1) {
      isend(out, d.me - 1, d.bytes);
      wait_one(out);
      recv(out, d.me - 1, d.bytes);
      return;
    }
    recv(out, d.me + 1, d.bytes);
    newrank = d.me / 2;
  } else {
    newrank = d.me - rem;
  }
  auto real_rank = [&](int nr) { return nr < rem ? nr * 2 : nr + rem; };
  auto chunk = [&](int distance) {
    const std::uint64_t b =
        d.bytes * static_cast<std::uint64_t>(distance) / static_cast<std::uint64_t>(p2);
    return d.bytes > 0 ? std::max<std::uint64_t>(b, 1) : 0;
  };
  // Reduce-scatter: halving distances, halving payloads.
  for (int mask = p2 >> 1; mask >= 1; mask >>= 1)
    exchange(out, real_rank(newrank ^ mask), chunk(mask), chunk(mask));
  // Allgather: doubling distances, doubling payloads.
  for (int mask = 1; mask < p2; mask <<= 1)
    exchange(out, real_rank(newrank ^ mask), chunk(mask), chunk(mask));

  if (d.me < 2 * rem) {
    isend(out, d.me + 1, d.bytes);
    wait_one(out);
  }
}

void allgather_ring(const CollectiveDesc& d, std::vector<SubOp>& out) {
  const int right = (d.me + 1) % d.n;
  const int left = (d.me - 1 + d.n) % d.n;
  for (int k = 0; k < d.n - 1; ++k) {
    isend(out, right, d.bytes);
    recv(out, left, d.bytes);
    wait_one(out);
  }
}

void allgather_recursive_doubling(const CollectiveDesc& d, std::vector<SubOp>& out) {
  // Power-of-two only; callers fall back to the ring otherwise.
  for (int mask = 1; mask < d.n; mask <<= 1)
    exchange(out, d.me ^ mask, d.bytes * static_cast<std::uint64_t>(mask),
             d.bytes * static_cast<std::uint64_t>(mask));
}

void alltoall_pairwise(const CollectiveDesc& d, std::vector<SubOp>& out) {
  for (int k = 1; k < d.n; ++k) {
    const int dst = (d.me + k) % d.n;
    const int src = (d.me - k + d.n) % d.n;
    isend(out, dst, d.bytes);
    recv(out, src, d.bytes);
    wait_one(out);
  }
}

/// Bruck alltoall: ceil(log2 n) rounds moving about half the payload each
/// round. Block bookkeeping is approximated with n/2 blocks per round, which
/// preserves the log-round volume profile that distinguishes Bruck from
/// pairwise in the ablation bench.
void alltoall_bruck(const CollectiveDesc& d, std::vector<SubOp>& out) {
  const std::uint64_t round_bytes =
      d.bytes * static_cast<std::uint64_t>(std::max(1, d.n / 2));
  for (int pof = 1; pof < d.n; pof <<= 1) {
    const int dst = (d.me - pof + d.n) % d.n;
    const int src = (d.me + pof) % d.n;
    isend(out, dst, round_bytes);
    recv(out, src, round_bytes);
    wait_one(out);
  }
}

/// Reduce-scatter via recursive halving (power-of-two fold-in as for
/// allreduce); each round exchanges half the remaining vector.
void reduce_scatter_halving(const CollectiveDesc& d, std::vector<SubOp>& out) {
  const int p2 = pow2_floor(d.n);
  const int rem = d.n - p2;
  int newrank;
  if (d.me < 2 * rem) {
    if (d.me % 2 == 1) {
      isend(out, d.me - 1, d.bytes);
      wait_one(out);
      recv(out, d.me - 1, std::max<std::uint64_t>(1, d.bytes / static_cast<unsigned>(d.n)));
      return;
    }
    recv(out, d.me + 1, d.bytes);
    newrank = d.me / 2;
  } else {
    newrank = d.me - rem;
  }
  auto real_rank = [&](int nr) { return nr < rem ? nr * 2 : nr + rem; };
  auto chunk = [&](int distance) {
    const std::uint64_t b =
        d.bytes * static_cast<std::uint64_t>(distance) / static_cast<std::uint64_t>(p2);
    return d.bytes > 0 ? std::max<std::uint64_t>(b, 1) : 0;
  };
  for (int mask = p2 >> 1; mask >= 1; mask >>= 1)
    exchange(out, real_rank(newrank ^ mask), chunk(mask), chunk(mask));
  if (d.me < 2 * rem) {
    // The folded-in odd partner receives its final 1/n block.
    isend(out, d.me + 1, std::max<std::uint64_t>(1, d.bytes / static_cast<unsigned>(d.n)));
    wait_one(out);
  }
}

/// Inclusive scan: the linear-pipeline algorithm (rank i receives the prefix
/// from i-1, combines, forwards to i+1). Latency-bound by design, which is
/// faithful to small-payload MPI_Scan implementations.
void scan_linear(const CollectiveDesc& d, std::vector<SubOp>& out) {
  if (d.me > 0) recv(out, d.me - 1, d.bytes);
  if (d.me + 1 < d.n) {
    isend(out, d.me + 1, d.bytes);
    wait_one(out);
  }
}

void alltoallv_pairwise(const CollectiveDesc& d, std::vector<SubOp>& out) {
  HPS_CHECK(static_cast<int>(d.send_sizes.size()) == d.n &&
            static_cast<int>(d.recv_sizes.size()) == d.n);
  // Self block stays local (no network traffic). Empty blocks move nothing:
  // the send side skips iff its block is zero, and the receive side skips
  // iff the (different) rank it hears from this round has a zero block for
  // it — both sides evaluate the same matrix entries, so the schedules
  // match globally.
  for (int k = 1; k < d.n; ++k) {
    const int dst = (d.me + k) % d.n;
    const int src = (d.me - k + d.n) % d.n;
    const std::uint64_t sb = d.send_sizes[static_cast<std::size_t>(dst)];
    const std::uint64_t rb = d.recv_sizes[static_cast<std::size_t>(src)];
    const bool sends = sb > 0;
    if (sends) isend(out, dst, sb);
    if (rb > 0) recv(out, src, rb);
    if (sends) wait_one(out);
  }
}

/// Give every Isend and Recv its per-peer ordinal (SubOp::seq). The counters
/// (Isend and Recv interleaved per peer) are one buffer per thread, grown to
/// the largest communicator seen and left all zero after each call: only the
/// entries this schedule touched are reset.
void number_messages(int n, std::vector<SubOp>& out) {
  thread_local std::vector<std::uint32_t> counts;
  const std::size_t need = 2 * static_cast<std::size_t>(n);
  if (counts.size() < need) counts.resize(need);
  auto slot = [](const SubOp& op) {
    return 2 * static_cast<std::size_t>(op.peer) + (op.kind == SubOp::Kind::kRecv ? 1 : 0);
  };
  for (SubOp& op : out) {
    if (op.kind != SubOp::Kind::kIsend && op.kind != SubOp::Kind::kRecv) continue;
    const std::uint32_t seq = counts[slot(op)]++;
    HPS_CHECK_MSG(seq <= UINT16_MAX, "collective schedule: over 65536 messages to one peer");
    op.seq = static_cast<std::uint16_t>(seq);
  }
  for (const SubOp& op : out)
    if (op.kind == SubOp::Kind::kIsend || op.kind == SubOp::Kind::kRecv) counts[slot(op)] = 0;
}

}  // namespace

inline void expand_collective(const CollectiveDesc& d, const CollectiveAlgos& algos,
                       std::vector<SubOp>& out) {
  out.clear();
  HPS_CHECK(d.n >= 1 && d.me >= 0 && d.me < d.n);
  if (d.n == 1) return;  // single-member communicator: everything is local
  switch (d.op) {
    case OpType::kBarrier:
      barrier(d, out);
      break;
    case OpType::kBcast:
      bcast(d, out);
      break;
    case OpType::kReduce:
      reduce(d, out);
      break;
    case OpType::kAllreduce:
      if (d.bytes > algos.allreduce_rabenseifner_threshold)
        allreduce_rabenseifner(d, out);
      else
        allreduce_recursive_doubling(d, out);
      break;
    case OpType::kAllgather:
      if (algos.allgather == CollectiveAlgos::Allgather::kRecursiveDoubling &&
          std::has_single_bit(static_cast<unsigned>(d.n)))
        allgather_recursive_doubling(d, out);
      else
        allgather_ring(d, out);
      break;
    case OpType::kAlltoall:
      if (algos.alltoall == CollectiveAlgos::Alltoall::kBruck)
        alltoall_bruck(d, out);
      else
        alltoall_pairwise(d, out);
      break;
    case OpType::kAlltoallv:
      alltoallv_pairwise(d, out);
      break;
    case OpType::kGather:
      gather(d, out);
      break;
    case OpType::kScatter:
      scatter(d, out);
      break;
    case OpType::kReduceScatter:
      reduce_scatter_halving(d, out);
      break;
    case OpType::kScan:
      scan_linear(d, out);
      break;
    default:
      HPS_CHECK_MSG(false, "expand_collective: not a collective op");
  }
  number_messages(d.n, out);
}

}  // namespace hps::simmpi::reference
