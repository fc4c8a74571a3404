#include "serve/protocol.hpp"

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

std::string encode_stats(const Stats& s) {
  std::string out;
  out.reserve(16 + 17 * 8);
  put_u32(out, kProtocolVersion);
  for (const std::uint64_t v :
       {s.requests, s.studies_run, s.cache_hits, s.cache_misses, s.cache_bytes,
        s.cache_entries, s.cache_evictions, s.coalesced, s.rejected_queue_full,
        s.rejected_draining, s.rejected_bad, s.rejected_conn_limit, s.active,
        s.queued})
    put_u64(out, v);
  // v2 extension: appended so a v1 decoder's fixed prefix is untouched.
  for (const std::uint64_t v : {s.uptime_ms, s.ledger_records, s.spans_dropped})
    put_u64(out, v);
  // v3 extension: overload counters, appended after the v2 layout.
  for (const std::uint64_t v :
       {s.rejected_expired, s.shed_queue_delay, s.degraded_fallback,
        s.rejected_slow_read, s.ledger_write_errors})
    put_u64(out, v);
  // v4 extension: durable-cache counters, appended after the v3 layout.
  for (const std::uint64_t v :
       {s.cache_spilled, s.cache_recovered, s.cache_quarantined,
        s.cache_recovery_ms, s.cache_scrub_passes, s.cache_scrub_corrupt})
    put_u64(out, v);
  return out;
}

Stats decode_stats(const std::string& payload) {
  ByteReader rd(payload, kPayloadLabel, kMaxRequestBytes);
  const std::uint32_t version = check_version(rd.u32(), "stats");
  Stats s;
  for (std::uint64_t* v :
       {&s.requests, &s.studies_run, &s.cache_hits, &s.cache_misses, &s.cache_bytes,
        &s.cache_entries, &s.cache_evictions, &s.coalesced, &s.rejected_queue_full,
        &s.rejected_draining, &s.rejected_bad, &s.rejected_conn_limit, &s.active,
        &s.queued})
    *v = rd.u64();
  if (version >= 2)
    for (std::uint64_t* v : {&s.uptime_ms, &s.ledger_records, &s.spans_dropped}) *v = rd.u64();
  if (version >= 3)
    for (std::uint64_t* v :
         {&s.rejected_expired, &s.shed_queue_delay, &s.degraded_fallback,
          &s.rejected_slow_read, &s.ledger_write_errors})
      *v = rd.u64();
  if (version >= 4)
    for (std::uint64_t* v :
         {&s.cache_spilled, &s.cache_recovered, &s.cache_quarantined,
          &s.cache_recovery_ms, &s.cache_scrub_passes, &s.cache_scrub_corrupt})
      *v = rd.u64();
  rd.done();
  return s;
}

std::string stats_to_json(const Stats& s) {
  std::ostringstream os;
  os << "{\"requests\":" << s.requests << ",\"studies_run\":" << s.studies_run
     << ",\"cache_hits\":" << s.cache_hits << ",\"cache_misses\":" << s.cache_misses
     << ",\"cache_bytes\":" << s.cache_bytes << ",\"cache_entries\":" << s.cache_entries
     << ",\"cache_evictions\":" << s.cache_evictions << ",\"coalesced\":" << s.coalesced
     << ",\"rejected_queue_full\":" << s.rejected_queue_full
     << ",\"rejected_draining\":" << s.rejected_draining
     << ",\"rejected_bad\":" << s.rejected_bad
     << ",\"rejected_conn_limit\":" << s.rejected_conn_limit
     << ",\"active\":" << s.active
     << ",\"queued\":" << s.queued
     << ",\"uptime_ms\":" << s.uptime_ms
     << ",\"ledger_records\":" << s.ledger_records
     << ",\"spans_dropped\":" << s.spans_dropped
     << ",\"rejected_expired\":" << s.rejected_expired
     << ",\"shed_queue_delay\":" << s.shed_queue_delay
     << ",\"degraded_fallback\":" << s.degraded_fallback
     << ",\"rejected_slow_read\":" << s.rejected_slow_read
     << ",\"ledger_write_errors\":" << s.ledger_write_errors
     << ",\"cache_spilled\":" << s.cache_spilled
     << ",\"cache_recovered\":" << s.cache_recovered
     << ",\"cache_quarantined\":" << s.cache_quarantined
     << ",\"cache_recovery_ms\":" << s.cache_recovery_ms
     << ",\"cache_scrub_passes\":" << s.cache_scrub_passes
     << ",\"cache_scrub_corrupt\":" << s.cache_scrub_corrupt << "}";
  return os.str();
}

}  // namespace hps::serve
