// The ordered-map implementation of trace::validate, kept verbatim as the
// reference the differential tests compare the production validator with:
// same issues, same messages, same order.
#pragma once

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "trace/validate.hpp"

namespace hps::trace::reference {

namespace {

inline std::string strf(const char* fmt, auto... args) {
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

}  // namespace

inline std::vector<ValidationIssue> validate(const Trace& t) {
  std::vector<ValidationIssue> issues;
  auto issue = [&](Rank r, std::string msg) { issues.push_back({r, std::move(msg)}); };

  const Rank n = t.nranks();

  // Per-(src,dst,tag) FIFO streams of message sizes.
  using Key = std::tuple<Rank, Rank, Tag>;
  std::map<Key, std::vector<std::uint64_t>> sent, received;
  // Per-(comm) collective sequences per rank.
  std::map<CommId, std::vector<std::vector<CollSig>>> coll_seq;  // comm -> per-member list

  for (CommId c = 0; c < static_cast<CommId>(t.num_comms()); ++c)
    coll_seq[c].resize(t.comm(c).size());

  for (Rank r = 0; r < n; ++r) {
    const auto& rt = t.rank(r);
    std::set<std::int32_t> open_requests;
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
            sent[{r, e.peer, e.tag}].push_back(e.bytes);
          if (e.type == OpType::kIsend) {
            if (!open_requests.insert(e.request).second)
              issue(r, strf("isend event %zu reuses open request %d", i, e.request));
          }
          break;
        case OpType::kRecv:
        case OpType::kIrecv:
          if (e.peer != kAnySource && (e.peer < 0 || e.peer >= n))
            issue(r, strf("recv event %zu has invalid source %d", i, e.peer));
          else if (e.peer != kAnySource)
            received[{e.peer, r, e.tag}].push_back(e.bytes);
          if (e.type == OpType::kIrecv) {
            if (!open_requests.insert(e.request).second)
              issue(r, strf("irecv event %zu reuses open request %d", i, e.request));
          }
          break;
        case OpType::kWait:
          if (open_requests.erase(e.request) == 0)
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
          const auto& members = t.comm(e.comm);
          auto pos = std::find(members.begin(), members.end(), r);
          if (pos == members.end()) {
            issue(r, strf("rank executes collective %zu on comm %d it is not a member of", i,
                          e.comm));
            break;
          }
          if (is_rooted(e.type) &&
              std::find(members.begin(), members.end(), e.peer) == members.end())
            issue(r, strf("rooted collective event %zu has root %d outside comm", i, e.peer));
          if (e.type == OpType::kAlltoallv) {
            if (e.aux < 0 || static_cast<std::size_t>(e.aux) >= rt.vlists.size()) {
              issue(r, strf("alltoallv event %zu has invalid aux index %d", i, e.aux));
              break;
            }
            if (rt.vlists[static_cast<std::size_t>(e.aux)].size() != members.size())
              issue(r, strf("alltoallv event %zu vlist size mismatches comm size", i));
          }
          const std::size_t member_idx = static_cast<std::size_t>(pos - members.begin());
          // Alltoallv per-rank totals legitimately differ; compare bytes=0.
          const std::uint64_t sig_bytes = e.type == OpType::kAlltoallv ? 0 : e.bytes;
          coll_seq[e.comm][member_idx].push_back(
              {e.type, e.comm, is_rooted(e.type) ? e.peer : Rank{-1}, sig_bytes});
          break;
        }
      }
    }
    if (!open_requests.empty())
      issue(r, strf("%zu nonblocking requests never completed", open_requests.size()));
  }

  // Cross-rank p2p stream consistency.
  for (const auto& [key, sizes] : sent) {
    const auto it = received.find(key);
    const auto& [src, dst, tag] = key;
    if (it == received.end()) {
      issue(src, strf("%zu messages to rank %d tag %d never received", sizes.size(), dst, tag));
      continue;
    }
    if (it->second.size() != sizes.size()) {
      issue(src, strf("message count mismatch to rank %d tag %d: %zu sent, %zu received", dst,
                      tag, sizes.size(), it->second.size()));
      continue;
    }
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      if (sizes[i] != it->second[i]) {
        issue(src, strf("message %zu to rank %d tag %d size mismatch: %llu vs %llu", i, dst, tag,
                        static_cast<unsigned long long>(sizes[i]),
                        static_cast<unsigned long long>(it->second[i])));
        break;
      }
    }
  }
  for (const auto& [key, sizes] : received) {
    if (!sent.contains(key)) {
      const auto& [src, dst, tag] = key;
      issue(dst, strf("%zu receives from rank %d tag %d never sent", sizes.size(), src, tag));
    }
  }

  // Cross-rank collective sequence consistency.
  for (const auto& [comm, seqs] : coll_seq) {
    for (std::size_t m = 1; m < seqs.size(); ++m) {
      if (seqs[m].size() != seqs[0].size()) {
        issue(-1, strf("comm %d: member %zu ran %zu collectives, member 0 ran %zu", comm, m,
                       seqs[m].size(), seqs[0].size()));
        continue;
      }
      for (std::size_t i = 0; i < seqs[m].size(); ++i) {
        if (!(seqs[m][i] == seqs[0][i])) {
          issue(-1, strf("comm %d: collective %zu differs between member 0 and member %zu", comm,
                         i, m));
          break;
        }
      }
    }
  }

  return issues;
}

}  // namespace hps::trace::reference
