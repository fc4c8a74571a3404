// hpcsweepd wire protocol: what travels inside the CRC-framed transport
// (robust/ipc.hpp) between a client and the prediction daemon.
//
// Every exchange is one client kRequest frame answered by a terminal server
// frame, optionally preceded by streamed kRecord frames:
//
//   study    → kRecord* (one ledger JSON line each), then kSummary
//            → or kReject (admission control said no; Summary payload)
//   ping     → kPong
//   stats    → kStatsReply (Stats payload)
//   shutdown → kSummary, then the server drains and exits
//
// Payloads are little-endian fixed-width binary (the study cache's codec
// style): versioned, explicit, and cheap to reject. A request frame is tiny;
// the server caps request frames at kMaxRequestBytes so an abusive length
// field is dropped before any allocation — responses (which carry whole
// ledgers) use the transport-wide ipc::kMaxFrameBytes instead.
#pragma once

#include <cstdint>
#include <string>

namespace hps::serve {

/// Bump on any wire-layout change; a request newer than the server is
/// rejected as kBadRequest rather than misread. Decoders accept payloads
/// from kMinProtocolVersion up: old fixed-layout fields come first, newer
/// fields are appended and defaulted when absent, so a v1 peer still
/// interoperates (pinned by protocol tests).
/// v2: Request gains the kMetrics kind; Stats appends uptime_ms,
///     ledger_records and spans_dropped.
/// v3: Request appends deadline_ms (client end-to-end deadline); Summary
///     appends the mfact_fallback flag and Status gains kExpired; Stats
///     appends the overload counters (rejected_expired, shed_queue_delay,
///     degraded_fallback, rejected_slow_read, ledger_write_errors).
/// v4: Stats appends the durable-cache counters (cache_spilled,
///     cache_recovered, cache_quarantined, cache_recovery_ms,
///     cache_scrub_passes, cache_scrub_corrupt).
inline constexpr std::uint32_t kProtocolVersion = 4;
inline constexpr std::uint32_t kMinProtocolVersion = 1;

/// Cap on a single *request* frame. Requests are a fixed few dozen bytes;
/// anything bigger is garbage or abuse, refused before allocation.
inline constexpr std::uint32_t kMaxRequestBytes = 64u << 10;

struct Request {
  enum class Kind : std::uint8_t {
    kStudy = 1,     ///< run (or serve from cache) a corpus study
    kPing = 2,      ///< liveness probe
    kStats = 3,     ///< daemon counters snapshot
    kShutdown = 4,  ///< drain and exit (admin)
    kMetrics = 5,   ///< live metrics snapshot (histograms + cost model), v2+
  };
  Kind kind = Kind::kStudy;

  // Study parameters (kStudy only) — the subset of core::StudyOptions a
  // remote caller may choose; everything else is daemon policy.
  std::uint64_t seed = 42;
  double duration_scale = 0.1;
  std::int32_t limit = 0;
  bool force_recompute = false;  ///< bypass the shared result cache

  // Per-request budget (0 = unlimited); the daemon clamps each value to its
  // own configured ceiling before running.
  double wall_deadline_s = 0;
  std::uint64_t max_des_events = 0;
  std::int64_t virtual_horizon_ns = 0;

  /// v3: end-to-end deadline in milliseconds from the moment the daemon
  /// decodes the request (0 = none). Queue wait is charged against it: an
  /// entry whose deadline passes before dispatch is rejected kExpired, and
  /// the execution wall budget is derived from whatever deadline *remains*
  /// at dispatch. Decoded as 0 from v1/v2 payloads.
  std::uint64_t deadline_ms = 0;
};

const char* request_kind_name(Request::Kind k);

/// Terminal verdict of one request.
enum class Status : std::uint8_t {
  kOk = 0,          ///< study ran (or was served from cache), all records ok
  kDegraded,        ///< study completed but some records carry failures
  kInterrupted,     ///< the daemon was interrupted mid-study (drain)
  kQueueFull,       ///< backpressure: the admission queue is at capacity
  kDraining,        ///< the daemon is shutting down, not accepting work
  kOversized,       ///< request frame exceeded kMaxRequestBytes
  kBadRequest,      ///< unframeable/undecodable/unsupported request
  kError,           ///< server-side failure (detail says what)
  kExpired,         ///< v3: the request's end-to-end deadline passed before
                    ///< (or while) it waited for dispatch
};

const char* status_name(Status s);

/// Payload of kSummary and kReject frames.
struct Summary {
  Status status = Status::kOk;
  bool cache_hit = false;     ///< served from the shared result cache
  std::uint32_t records = 0;  ///< kRecord frames that preceded this summary
  std::uint32_t degraded = 0; ///< records with a real fail_kind
  double wall_seconds = 0;    ///< server-side study wall time (0 on a hit)
  std::string detail;         ///< human-readable context (errors, reasons)
  /// v3: the requested simulation was infeasible within the remaining
  /// deadline (or overload shedding state), so the daemon answered with the
  /// cheap MFACT model instead — the result is tagged, never cached, and the
  /// summary status reads kDegraded. Decoded as false from v1/v2 payloads.
  bool mfact_fallback = false;
};

/// Payload of kStatsReply: the daemon's cumulative counters. Their wire and
/// JSON order is the kStatsFields table in protocol.cpp; a new counter is
/// one member here and one line there.
struct Stats {
  std::uint64_t requests = 0;          ///< study requests admitted or rejected
  std::uint64_t studies_run = 0;       ///< actual computations dispatched
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_bytes = 0;       ///< current cache footprint
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t coalesced = 0;         ///< waiters attached to an in-flight study
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_draining = 0;
  std::uint64_t rejected_bad = 0;      ///< oversized + unframeable + undecodable
  std::uint64_t rejected_conn_limit = 0;  ///< accepts refused at max_connections
  std::uint64_t active = 0;            ///< studies executing right now
  std::uint64_t queued = 0;            ///< jobs waiting in the admission queue

  // v2 fields (defaulted when decoding a v1 payload).
  std::uint64_t uptime_ms = 0;         ///< since the daemon started serving
  std::uint64_t ledger_records = 0;    ///< serve-ledger request lines written
  std::uint64_t spans_dropped = 0;     ///< request spans lost to the ring cap

  // v3 fields (defaulted when decoding a v1/v2 payload): overload handling.
  std::uint64_t rejected_expired = 0;   ///< deadline passed before dispatch
  std::uint64_t shed_queue_delay = 0;   ///< CoDel-style queue-delay sheds
  std::uint64_t degraded_fallback = 0;  ///< answered with MFACT fallback
  std::uint64_t rejected_slow_read = 0; ///< connections dropped by the
                                        ///< slow-read (slowloris) guard
  std::uint64_t ledger_write_errors = 0; ///< serve-ledger appends lost to I/O
                                         ///< failure (ENOSPC, short writes)

  // v4 fields (defaulted when decoding an older payload): durable cache.
  std::uint64_t cache_spilled = 0;      ///< records appended to the spill file
  std::uint64_t cache_recovered = 0;    ///< entries restored on startup
  std::uint64_t cache_quarantined = 0;  ///< damaged regions sidecarred
  std::uint64_t cache_recovery_ms = 0;  ///< startup recovery wall time
  std::uint64_t cache_scrub_passes = 0; ///< completed background scrub passes
  std::uint64_t cache_scrub_corrupt = 0; ///< damaged regions found by scrubbing
};

std::string encode_request(const Request& r);
/// Throws hps::Error on a short/garbled/version-mismatched payload.
Request decode_request(const std::string& payload);

std::string encode_summary(const Summary& s);
Summary decode_summary(const std::string& payload);

std::string encode_stats(const Stats& s);
Stats decode_stats(const std::string& payload);

/// One-line JSON rendering (diagnostics, `hpcsweep_inspect request --stats`).
std::string stats_to_json(const Stats& s);

}  // namespace hps::serve
