#include "serve/protocol.hpp"

#include <iterator>
#include <sstream>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace hps::serve {

const char* request_kind_name(Request::Kind k) {
  switch (k) {
    case Request::Kind::kStudy: return "study";
    case Request::Kind::kPing: return "ping";
    case Request::Kind::kStats: return "stats";
    case Request::Kind::kShutdown: return "shutdown";
    case Request::Kind::kMetrics: return "metrics";
  }
  return "?";
}

namespace {

/// Decode failures are protocol violations, reported as hps::Error for the
/// server to map onto Status::kBadRequest.
constexpr const char* kPayloadLabel = "serve payload";

/// A peer may speak any version in [kMinProtocolVersion, kProtocolVersion];
/// newer-than-us is rejected (we cannot know what the extra bytes mean).
std::uint32_t check_version(std::uint32_t version, const char* what) {
  HPS_REQUIRE(version >= kMinProtocolVersion && version <= kProtocolVersion,
              std::string("serve ") + what + " version " + std::to_string(version) +
                  " unsupported (accept " + std::to_string(kMinProtocolVersion) + ".." +
                  std::to_string(kProtocolVersion) + ")");
  return version;
}

}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kDegraded: return "degraded";
    case Status::kInterrupted: return "interrupted";
    case Status::kQueueFull: return "queue-full";
    case Status::kDraining: return "draining";
    case Status::kOversized: return "oversized";
    case Status::kBadRequest: return "bad-request";
    case Status::kError: return "error";
    case Status::kExpired: return "expired";
  }
  return "?";
}

std::string encode_request(const Request& r) {
  std::string out;
  out.reserve(64);
  put_u32(out, kProtocolVersion);
  put_u8(out, static_cast<std::uint8_t>(r.kind));
  put_u64(out, r.seed);
  put_f64(out, r.duration_scale);
  put_u32(out, static_cast<std::uint32_t>(r.limit));
  put_u8(out, r.force_recompute ? 1 : 0);
  put_f64(out, r.wall_deadline_s);
  put_u64(out, r.max_des_events);
  put_u64(out, static_cast<std::uint64_t>(r.virtual_horizon_ns));
  // v3 extension: appended so a v1/v2 decoder's fixed prefix is untouched.
  put_u64(out, r.deadline_ms);
  return out;
}

Request decode_request(const std::string& payload) {
  ByteReader rd(payload, kPayloadLabel, kMaxRequestBytes);
  const std::uint32_t version = check_version(rd.u32(), "request");
  Request r;
  const std::uint8_t kind = rd.u8();
  // kMetrics joined in v2; a v1 payload may not claim it.
  const std::uint8_t max_kind = version >= 2 ? 5 : 4;
  HPS_REQUIRE(kind >= 1 && kind <= max_kind, "serve request kind out of range");
  r.kind = static_cast<Request::Kind>(kind);
  r.seed = rd.u64();
  r.duration_scale = rd.f64();
  r.limit = static_cast<std::int32_t>(rd.u32());
  r.force_recompute = rd.u8() != 0;
  r.wall_deadline_s = rd.f64();
  r.max_des_events = rd.u64();
  r.virtual_horizon_ns = static_cast<std::int64_t>(rd.u64());
  if (version >= 3) r.deadline_ms = rd.u64();
  rd.done();
  HPS_REQUIRE(r.duration_scale > 0 && r.duration_scale <= 10.0,
              "serve request duration_scale out of range");
  HPS_REQUIRE(r.limit >= 0, "serve request limit out of range");
  return r;
}

std::string encode_summary(const Summary& s) {
  std::string out;
  out.reserve(32 + s.detail.size());
  put_u32(out, kProtocolVersion);
  put_u8(out, static_cast<std::uint8_t>(s.status));
  put_u8(out, s.cache_hit ? 1 : 0);
  put_u32(out, s.records);
  put_u32(out, s.degraded);
  put_f64(out, s.wall_seconds);
  put_str(out, s.detail);
  // v3 extension: graceful-degradation tag, appended after the v2 layout.
  put_u8(out, s.mfact_fallback ? 1 : 0);
  return out;
}

Summary decode_summary(const std::string& payload) {
  ByteReader rd(payload, kPayloadLabel, kMaxRequestBytes);
  const std::uint32_t version = check_version(rd.u32(), "summary");
  Summary s;
  const std::uint8_t st = rd.u8();
  // kExpired joined in v3; an older payload may not claim it.
  const auto max_status = static_cast<std::uint8_t>(version >= 3 ? Status::kExpired
                                                                 : Status::kError);
  HPS_REQUIRE(st <= max_status, "serve summary status out of range");
  s.status = static_cast<Status>(st);
  s.cache_hit = rd.u8() != 0;
  s.records = rd.u32();
  s.degraded = rd.u32();
  s.wall_seconds = rd.f64();
  s.detail = rd.str();
  if (version >= 3) s.mfact_fallback = rd.u8() != 0;
  rd.done();
  return s;
}

namespace {

/// One Stats counter: its JSON name, its member, and the protocol version
/// that appended it to the wire layout.
struct StatsField {
  const char* name;
  std::uint64_t Stats::*member;
  std::uint32_t since;
};

/// Every Stats counter in wire order (which is also JSON order). Newer
/// versions only append, so a decoder reads the prefix its peer's version
/// knows and leaves the rest defaulted.
constexpr StatsField kStatsFields[] = {
    {"requests", &Stats::requests, 1},
    {"studies_run", &Stats::studies_run, 1},
    {"cache_hits", &Stats::cache_hits, 1},
    {"cache_misses", &Stats::cache_misses, 1},
    {"cache_bytes", &Stats::cache_bytes, 1},
    {"cache_entries", &Stats::cache_entries, 1},
    {"cache_evictions", &Stats::cache_evictions, 1},
    {"coalesced", &Stats::coalesced, 1},
    {"rejected_queue_full", &Stats::rejected_queue_full, 1},
    {"rejected_draining", &Stats::rejected_draining, 1},
    {"rejected_bad", &Stats::rejected_bad, 1},
    {"rejected_conn_limit", &Stats::rejected_conn_limit, 1},
    {"active", &Stats::active, 1},
    {"queued", &Stats::queued, 1},
    {"uptime_ms", &Stats::uptime_ms, 2},
    {"ledger_records", &Stats::ledger_records, 2},
    {"spans_dropped", &Stats::spans_dropped, 2},
    {"rejected_expired", &Stats::rejected_expired, 3},
    {"shed_queue_delay", &Stats::shed_queue_delay, 3},
    {"degraded_fallback", &Stats::degraded_fallback, 3},
    {"rejected_slow_read", &Stats::rejected_slow_read, 3},
    {"ledger_write_errors", &Stats::ledger_write_errors, 3},
    {"cache_spilled", &Stats::cache_spilled, 4},
    {"cache_recovered", &Stats::cache_recovered, 4},
    {"cache_quarantined", &Stats::cache_quarantined, 4},
    {"cache_recovery_ms", &Stats::cache_recovery_ms, 4},
    {"cache_scrub_passes", &Stats::cache_scrub_passes, 4},
    {"cache_scrub_corrupt", &Stats::cache_scrub_corrupt, 4},
};

}  // namespace

std::string encode_stats(const Stats& s) {
  std::string out;
  out.reserve(4 + 8 * std::size(kStatsFields));
  put_u32(out, kProtocolVersion);
  for (const StatsField& f : kStatsFields) put_u64(out, s.*f.member);
  return out;
}

Stats decode_stats(const std::string& payload) {
  ByteReader rd(payload, kPayloadLabel, kMaxRequestBytes);
  const std::uint32_t version = check_version(rd.u32(), "stats");
  Stats s;
  for (const StatsField& f : kStatsFields)
    if (version >= f.since) s.*f.member = rd.u64();
  rd.done();
  return s;
}

std::string stats_to_json(const Stats& s) {
  std::ostringstream os;
  char sep = '{';
  for (const StatsField& f : kStatsFields) {
    os << sep << '"' << f.name << "\":" << s.*f.member;
    sep = ',';
  }
  os << '}';
  return os.str();
}

}  // namespace hps::serve
