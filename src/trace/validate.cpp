#include "trace/validate.hpp"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "common/error.hpp"
#include "common/flat_hash.hpp"
#include "trace/match.hpp"

namespace hps::trace {

namespace {

std::string strf(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

/// Collective signature for cross-rank consistency checks.
struct CollSig {
  OpType type;
  CommId comm;
  Rank root;
  std::uint64_t bytes;
  bool operator==(const CollSig&) const = default;
};

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

}  // namespace

std::vector<ValidationIssue> validate(const Trace& t) {
  std::vector<ValidationIssue> issues;
  auto issue = [&](Rank r, std::string msg) { issues.push_back({r, std::move(msg)}); };

  const Rank n = t.nranks();
  const CommIndex member_index(t);

  // FIFO streams, one per (src, dst, tag) that anything was sent on or
  // received from: the sizes sent, in order, and the receives matched
  // against them. Per source rank, stream_key(dst, tag) -> stream id + 1.
  struct Stream {
    Rank src, dst;
    Tag tag;
    std::vector<std::uint64_t> sizes;
    std::size_t received = 0;
    std::size_t mismatch = kNone;      // first receive whose size differs
    std::uint64_t mismatch_bytes = 0;  // and its size
  };
  std::vector<Stream> streams;
  std::vector<FlatMap<std::uint64_t, std::uint32_t, Mix64Hash>> streams_of(
      static_cast<std::size_t>(n));
  auto stream = [&](Rank src, Rank dst, Tag tag) -> Stream& {
    std::uint32_t& id = streams_of[static_cast<std::size_t>(src)][stream_key(dst, tag)];
    if (id == 0) {
      streams.push_back({src, dst, tag, {}});
      id = static_cast<std::uint32_t>(streams.size());
    }
    return streams[id - 1];
  };

  // Per comm, per member: the member's collective sequence.
  std::vector<std::vector<std::vector<CollSig>>> coll_seq(t.num_comms());
  for (CommId c = 0; c < static_cast<CommId>(t.num_comms()); ++c)
    coll_seq[static_cast<std::size_t>(c)].resize(t.comm(c).size());

  // Open request ids of the current rank (a set; the mapped byte is unused).
  FlatMap<std::uint64_t, std::uint8_t, Mix64Hash> open_requests;
  auto open_request = [&](std::int32_t req) {  // false if `req` is already open
    const std::size_t before = open_requests.size();
    open_requests[static_cast<std::uint32_t>(req)];
    return open_requests.size() != before;
  };

  for (Rank r = 0; r < n; ++r) {
    const auto& rt = t.rank(r);
    open_requests.clear();
    for (std::size_t i = 0; i < rt.events.size(); ++i) {
      const Event& e = rt.events[i];
      if (e.duration < 0) issue(r, strf("event %zu has negative duration", i));
      switch (e.type) {
        case OpType::kCompute:
          break;
        case OpType::kSend:
        case OpType::kIsend:
          if (e.peer < 0 || e.peer >= n)
            issue(r, strf("send event %zu has invalid destination %d", i, e.peer));
          else
            stream(r, e.peer, e.tag).sizes.push_back(e.bytes);
          if (e.type == OpType::kIsend && !open_request(e.request))
            issue(r, strf("isend event %zu reuses open request %d", i, e.request));
          break;
        case OpType::kRecv:
        case OpType::kIrecv:
          if (e.peer != kAnySource && (e.peer < 0 || e.peer >= n))
            issue(r, strf("recv event %zu has invalid source %d", i, e.peer));
          if (e.type == OpType::kIrecv && !open_request(e.request))
            issue(r, strf("irecv event %zu reuses open request %d", i, e.request));
          break;
        case OpType::kWait:
          if (!open_requests.erase(static_cast<std::uint32_t>(e.request)))
            issue(r, strf("wait event %zu names unknown request %d", i, e.request));
          break;
        case OpType::kWaitAll:
          open_requests.clear();
          break;
        default: {  // collectives
          if (e.comm < 0 || e.comm >= static_cast<CommId>(t.num_comms())) {
            issue(r, strf("collective event %zu names invalid comm %d", i, e.comm));
            break;
          }
          const std::int32_t member = member_index(e.comm, r);
          if (member < 0) {
            issue(r, strf("rank executes collective %zu on comm %d it is not a member of", i,
                          e.comm));
            break;
          }
          if (is_rooted(e.type) && member_index(e.comm, e.peer) < 0)
            issue(r, strf("rooted collective event %zu has root %d outside comm", i, e.peer));
          if (e.type == OpType::kAlltoallv) {
            if (e.aux < 0 || static_cast<std::size_t>(e.aux) >= rt.vlists.size()) {
              issue(r, strf("alltoallv event %zu has invalid aux index %d", i, e.aux));
              break;
            }
            if (rt.vlists[static_cast<std::size_t>(e.aux)].size() != t.comm(e.comm).size())
              issue(r, strf("alltoallv event %zu vlist size mismatches comm size", i));
          }
          // Alltoallv per-rank totals legitimately differ; compare bytes=0.
          const std::uint64_t sig_bytes = e.type == OpType::kAlltoallv ? 0 : e.bytes;
          coll_seq[static_cast<std::size_t>(e.comm)][static_cast<std::size_t>(member)].push_back(
              {e.type, e.comm, is_rooted(e.type) ? e.peer : Rank{-1}, sig_bytes});
          break;
        }
      }
    }
    if (!open_requests.empty())
      issue(r, strf("%zu nonblocking requests never completed", open_requests.size()));
  }

  // Match every receive against its stream in FIFO order. A stream nothing
  // was sent on is created here and keeps no sizes.
  for (Rank r = 0; r < n; ++r) {
    for (const Event& e : t.rank(r).events) {
      if (!is_recv_like(e.type) || e.peer < 0 || e.peer >= n) continue;
      Stream& s = stream(e.peer, r, e.tag);
      const std::size_t k = s.received++;
      if (s.mismatch == kNone && k < s.sizes.size() && s.sizes[k] != e.bytes) {
        s.mismatch = k;
        s.mismatch_bytes = e.bytes;
      }
    }
  }

  // Cross-rank p2p stream consistency: streams something was sent on, then
  // receive-only streams, each in (src, dst, tag) order.
  std::sort(streams.begin(), streams.end(), [](const Stream& a, const Stream& b) {
    return std::tuple(a.sizes.empty(), a.src, a.dst, a.tag) <
           std::tuple(b.sizes.empty(), b.src, b.dst, b.tag);
  });
  for (const Stream& s : streams) {
    if (s.sizes.empty()) {
      issue(s.dst, strf("%zu receives from rank %d tag %d never sent", s.received, s.src, s.tag));
    } else if (s.received == 0) {
      issue(s.src, strf("%zu messages to rank %d tag %d never received", s.sizes.size(), s.dst,
                        s.tag));
    } else if (s.received != s.sizes.size()) {
      issue(s.src, strf("message count mismatch to rank %d tag %d: %zu sent, %zu received",
                        s.dst, s.tag, s.sizes.size(), s.received));
    } else if (s.mismatch != kNone) {
      issue(s.src, strf("message %zu to rank %d tag %d size mismatch: %llu vs %llu", s.mismatch,
                        s.dst, s.tag, static_cast<unsigned long long>(s.sizes[s.mismatch]),
                        static_cast<unsigned long long>(s.mismatch_bytes)));
    }
  }

  // Cross-rank collective sequence consistency.
  for (std::size_t comm = 0; comm < coll_seq.size(); ++comm) {
    const auto& seqs = coll_seq[comm];
    for (std::size_t m = 1; m < seqs.size(); ++m) {
      if (seqs[m].size() != seqs[0].size()) {
        issue(-1, strf("comm %zu: member %zu ran %zu collectives, member 0 ran %zu", comm, m,
                       seqs[m].size(), seqs[0].size()));
        continue;
      }
      for (std::size_t i = 0; i < seqs[m].size(); ++i) {
        if (!(seqs[m][i] == seqs[0][i])) {
          issue(-1, strf("comm %zu: collective %zu differs between member 0 and member %zu",
                         comm, i, m));
          break;
        }
      }
    }
  }

  return issues;
}

void validate_or_throw(const Trace& t) {
  const auto issues = validate(t);
  if (issues.empty()) return;
  std::string msg = "trace validation failed (" + t.meta().app + "): ";
  const std::size_t show = std::min<std::size_t>(issues.size(), 5);
  for (std::size_t i = 0; i < show; ++i) {
    msg += strf("[rank %d] ", issues[i].rank);
    msg += issues[i].message;
    if (i + 1 < show) msg += "; ";
  }
  if (issues.size() > show) msg += strf(" (+%zu more)", issues.size() - show);
  HPS_THROW(msg);
}

}  // namespace hps::trace
