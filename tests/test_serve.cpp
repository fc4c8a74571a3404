// hpcsweepd serving stack: protocol codecs, admission queue, result cache,
// and a live daemon exercised over real Unix sockets — framing round-trips,
// poisoned/oversized request rejection, shared-cache coherence across
// concurrent clients, single-flight coalescing, queue-full backpressure, and
// drain on SIGTERM.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/serve_ledger.hpp"
#include "robust/fault.hpp"
#include "robust/interrupt.hpp"
#include "robust/ipc.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "serve/spill.hpp"

#include "codec_testing.hpp"

namespace hps::serve {
namespace {

namespace ipc = hps::robust::ipc;

// ---------------------------------------------------------------------------
// Protocol codecs

TEST(ServeProtocol, RequestRoundTripPreservesEveryField) {
  Request r;
  r.kind = Request::Kind::kStudy;
  r.seed = 0xdeadbeefcafe1234ull;
  r.duration_scale = 0.375;
  r.limit = 17;
  r.force_recompute = true;
  r.wall_deadline_s = 12.5;
  r.max_des_events = 9876543210ull;
  r.virtual_horizon_ns = 1234567890123ll;

  const Request got = decode_request(encode_request(r));
  EXPECT_EQ(got.kind, r.kind);
  EXPECT_EQ(got.seed, r.seed);
  EXPECT_DOUBLE_EQ(got.duration_scale, r.duration_scale);
  EXPECT_EQ(got.limit, r.limit);
  EXPECT_EQ(got.force_recompute, r.force_recompute);
  EXPECT_DOUBLE_EQ(got.wall_deadline_s, r.wall_deadline_s);
  EXPECT_EQ(got.max_des_events, r.max_des_events);
  EXPECT_EQ(got.virtual_horizon_ns, r.virtual_horizon_ns);
}

TEST(ServeProtocol, SummaryAndStatsRoundTrip) {
  Summary s;
  s.status = Status::kDegraded;
  s.cache_hit = true;
  s.records = 42;
  s.degraded = 3;
  s.wall_seconds = 1.25;
  s.detail = "three traces hit the wall deadline";
  const Summary gs = decode_summary(encode_summary(s));
  EXPECT_EQ(gs.status, s.status);
  EXPECT_EQ(gs.cache_hit, s.cache_hit);
  EXPECT_EQ(gs.records, s.records);
  EXPECT_EQ(gs.degraded, s.degraded);
  EXPECT_DOUBLE_EQ(gs.wall_seconds, s.wall_seconds);
  EXPECT_EQ(gs.detail, s.detail);

  Stats st;
  st.requests = 10;
  st.studies_run = 4;
  st.cache_hits = 5;
  st.cache_misses = 4;
  st.cache_bytes = 123456;
  st.cache_entries = 4;
  st.cache_evictions = 1;
  st.coalesced = 1;
  st.rejected_queue_full = 2;
  st.rejected_draining = 1;
  st.rejected_bad = 3;
  st.rejected_conn_limit = 7;
  st.active = 1;
  st.queued = 2;
  const Stats gt = decode_stats(encode_stats(st));
  EXPECT_EQ(gt.requests, st.requests);
  EXPECT_EQ(gt.studies_run, st.studies_run);
  EXPECT_EQ(gt.cache_hits, st.cache_hits);
  EXPECT_EQ(gt.cache_misses, st.cache_misses);
  EXPECT_EQ(gt.cache_bytes, st.cache_bytes);
  EXPECT_EQ(gt.cache_entries, st.cache_entries);
  EXPECT_EQ(gt.cache_evictions, st.cache_evictions);
  EXPECT_EQ(gt.coalesced, st.coalesced);
  EXPECT_EQ(gt.rejected_queue_full, st.rejected_queue_full);
  EXPECT_EQ(gt.rejected_draining, st.rejected_draining);
  EXPECT_EQ(gt.rejected_bad, st.rejected_bad);
  EXPECT_EQ(gt.rejected_conn_limit, st.rejected_conn_limit);
  EXPECT_EQ(gt.active, st.active);
  EXPECT_EQ(gt.queued, st.queued);
  // JSON rendering carries every counter by name.
  const std::string j = stats_to_json(st);
  EXPECT_NE(j.find("\"requests\":10"), std::string::npos);
  EXPECT_NE(j.find("\"rejected_queue_full\":2"), std::string::npos);
}

// Golden bytes: the wire layout, pinned. The hex constants were captured from
// the codec before it moved into common/bytes.hpp; any drift here is a wire
// break for every peer already deployed.

Request golden_request() {
  Request r;
  r.kind = Request::Kind::kStudy;
  r.seed = 0x0123456789abcdefull;
  r.duration_scale = 0.375;
  r.limit = 17;
  r.force_recompute = true;
  r.wall_deadline_s = 12.5;
  r.max_des_events = 9876543210ull;
  r.virtual_horizon_ns = -2;
  r.deadline_ms = 1500;
  return r;
}

Summary golden_summary() {
  Summary s;
  s.status = Status::kDegraded;
  s.cache_hit = true;
  s.records = 42;
  s.degraded = 3;
  s.wall_seconds = 1.25;
  s.detail = "a\"b";
  s.mfact_fallback = true;
  return s;
}

Stats golden_stats() {
  Stats s;
  std::uint64_t v = 1;
  for (std::uint64_t* f :
       {&s.requests, &s.studies_run, &s.cache_hits, &s.cache_misses, &s.cache_bytes,
        &s.cache_entries, &s.cache_evictions, &s.coalesced, &s.rejected_queue_full,
        &s.rejected_draining, &s.rejected_bad, &s.rejected_conn_limit, &s.active,
        &s.queued, &s.uptime_ms, &s.ledger_records, &s.spans_dropped,
        &s.rejected_expired, &s.shed_queue_delay, &s.degraded_fallback,
        &s.rejected_slow_read, &s.ledger_write_errors, &s.cache_spilled,
        &s.cache_recovered, &s.cache_quarantined, &s.cache_recovery_ms,
        &s.cache_scrub_passes, &s.cache_scrub_corrupt})
    *f = v++;
  return s;
}

constexpr const char* kGoldenRequestHex =
    "0400000001efcdab8967452301000000000000d83f11000000010000000000002940ea16"
    "b04c02000000feffffffffffffffdc05000000000000";
constexpr const char* kGoldenSummaryHex =
    "0400000001012a00000003000000000000000000f43f0300000061226201";
constexpr const char* kGoldenStatsHex =
    "040000000100000000000000020000000000000003000000000000000400000000000000"
    "050000000000000006000000000000000700000000000000080000000000000009000000"
    "000000000a000000000000000b000000000000000c000000000000000d00000000000000"
    "0e000000000000000f000000000000001000000000000000110000000000000012000000"
    "000000001300000000000000140000000000000015000000000000001600000000000000"
    "1700000000000000180000000000000019000000000000001a000000000000001b000000"
    "000000001c00000000000000";

TEST(ServeProtocol, GoldenBytesAreStable) {
  using hps::testing::from_hex;
  using hps::testing::to_hex;
  EXPECT_EQ(to_hex(encode_request(golden_request())), kGoldenRequestHex);
  EXPECT_EQ(to_hex(encode_summary(golden_summary())), kGoldenSummaryHex);
  EXPECT_EQ(to_hex(encode_stats(golden_stats())), kGoldenStatsHex);

  const Request r = decode_request(from_hex(kGoldenRequestHex));
  EXPECT_EQ(r.seed, golden_request().seed);
  EXPECT_EQ(r.virtual_horizon_ns, -2);
  EXPECT_EQ(r.deadline_ms, 1500u);
  const Summary s = decode_summary(from_hex(kGoldenSummaryHex));
  EXPECT_EQ(s.detail, "a\"b");
  EXPECT_TRUE(s.mfact_fallback);
  EXPECT_EQ(decode_stats(from_hex(kGoldenStatsHex)).cache_scrub_corrupt, 28u);
}

TEST(ServeProtocol, DecodeRejectsGarbledPayloads) {
  Request r;
  const std::string ok = encode_request(r);
  EXPECT_THROW(decode_request(ok.substr(0, ok.size() - 3)), hps::Error);  // short
  EXPECT_THROW(decode_request(ok + "xx"), hps::Error);                    // trailing
  std::string wrong_version = ok;
  wrong_version[0] = static_cast<char>(kProtocolVersion + 1);
  EXPECT_THROW(decode_request(wrong_version), hps::Error);
  std::string bad_kind = ok;
  bad_kind[4] = 99;  // kind byte follows the u32 version
  EXPECT_THROW(decode_request(bad_kind), hps::Error);
  EXPECT_THROW(decode_request(""), hps::Error);
}

// Every decoder behind the socket, swept with seeded mutations: each input is
// decoded or rejected with hps::Error, never a third outcome.
TEST(ServeProtocol, MutatedPayloadsDecodeOrRejectWithError) {
  using hps::testing::expect_decoded_or_rejected;
  expect_decoded_or_rejected(encode_request(golden_request()),
                             [](const std::string& p) { decode_request(p); });
  expect_decoded_or_rejected(encode_summary(golden_summary()),
                             [](const std::string& p) { decode_summary(p); });
  expect_decoded_or_rejected(encode_stats(golden_stats()),
                             [](const std::string& p) { decode_stats(p); });
}

TEST(ServeProtocol, Names) {
  EXPECT_STREQ(status_name(Status::kOk), "ok");
  EXPECT_STREQ(status_name(Status::kQueueFull), "queue-full");
  EXPECT_STREQ(status_name(Status::kDraining), "draining");
  EXPECT_STREQ(request_kind_name(Request::Kind::kStudy), "study");
  EXPECT_STREQ(request_kind_name(Request::Kind::kShutdown), "shutdown");
}

// ---------------------------------------------------------------------------
// Framing round-trip over a real socketpair (the daemon's actual transport)

TEST(ServeFraming, RequestFrameRoundTripsOverSocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  Request r;
  r.seed = 7;
  r.limit = 3;
  const std::string payload = encode_request(r);
  ASSERT_TRUE(ipc::write_frame(sv[0], {ipc::MsgType::kRequest, payload}));

  ipc::Message m;
  ASSERT_EQ(ipc::read_message(sv[1], m, kMaxRequestBytes), ipc::ReadStatus::kMessage);
  EXPECT_EQ(m.type, ipc::MsgType::kRequest);
  const Request got = decode_request(m.payload);
  EXPECT_EQ(got.seed, 7u);
  EXPECT_EQ(got.limit, 3);
  ::close(sv[0]);
  ::close(sv[1]);
}

// ---------------------------------------------------------------------------
// AdmissionQueue

TEST(AdmissionQueue, BackpressureAtCapacityAndRefusalAfterClose) {
  AdmissionQueue<int> q(2);
  EXPECT_EQ(q.try_push(1), AdmissionQueue<int>::Push::kAccepted);
  EXPECT_EQ(q.try_push(2), AdmissionQueue<int>::Push::kAccepted);
  EXPECT_EQ(q.try_push(3), AdmissionQueue<int>::Push::kFull);
  EXPECT_EQ(q.size(), 2u);

  int out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);  // FIFO
  EXPECT_EQ(q.try_push(3), AdmissionQueue<int>::Push::kAccepted);

  q.close();
  EXPECT_EQ(q.try_push(4), AdmissionQueue<int>::Push::kClosed);
  // The admitted backlog drains even after close — admission is a promise.
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(q.pop(out));  // closed and empty: consumer exits
}

TEST(AdmissionQueue, PopBlocksUntilPushOrClose) {
  AdmissionQueue<int> q(4);
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    int out = 0;
    if (q.pop(out) && out == 99) got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  EXPECT_EQ(q.try_push(99), AdmissionQueue<int>::Push::kAccepted);
  consumer.join();
  EXPECT_TRUE(got.load());

  std::thread waiter([&] {
    int out = 0;
    EXPECT_FALSE(q.pop(out));
  });
  q.close();
  waiter.join();
}

// ---------------------------------------------------------------------------
// ResultCache

std::shared_ptr<const CachedResult> make_result(std::size_t line_bytes) {
  auto r = std::make_shared<CachedResult>();
  r->records.push_back(std::string(line_bytes, 'r'));
  return r;
}

TEST(ResultCache, LruEvictionUnderByteBudget) {
  // Budget fits roughly two 4 KB entries (plus struct overhead).
  ResultCache cache(2 * (4096 + 512));
  cache.insert(1, make_result(4096));
  cache.insert(2, make_result(4096));
  EXPECT_NE(cache.lookup(1), nullptr);  // bump 1 to most-recent
  cache.insert(3, make_result(4096));   // evicts 2, the LRU entry
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);

  const auto c = cache.counters();
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.hits, 3u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_GT(c.bytes, 0u);
}

TEST(ResultCache, EvictedEntryStaysAliveForItsHolder) {
  ResultCache cache(4096 + 512);
  cache.insert(1, make_result(4096));
  auto held = cache.lookup(1);
  ASSERT_NE(held, nullptr);
  cache.insert(2, make_result(4096));  // evicts 1 while we still hold it
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_EQ(held->records.size(), 1u);  // bytes remain valid for the streamer
}

TEST(ResultCache, OversizedEntryAndZeroBudgetAreDropped) {
  ResultCache tiny(64);
  tiny.insert(1, make_result(4096));  // larger than the whole budget
  EXPECT_EQ(tiny.lookup(1), nullptr);

  ResultCache off(0);
  off.insert(1, make_result(8));
  EXPECT_EQ(off.lookup(1), nullptr);
  EXPECT_EQ(off.counters().entries, 0u);
}

TEST(ResultCache, ReplaceUpdatesAccounting) {
  ResultCache cache(1 << 20);
  cache.insert(1, make_result(1000));
  const auto before = cache.counters().bytes;
  cache.insert(1, make_result(100));
  const auto after = cache.counters().bytes;
  EXPECT_LT(after, before);
  EXPECT_EQ(cache.counters().entries, 1u);
}

// ---------------------------------------------------------------------------
// Live daemon over Unix sockets

struct DaemonFixture {
  std::string path;
  std::unique_ptr<Server> server;
  std::thread runner;

  explicit DaemonFixture(ServerOptions opts) {
    path = "/tmp/hps_serve_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter()++) + ".sock";
    opts.socket_path = path;
    opts.install_signal_guard = false;  // tests drive the interrupt flag directly
    server = std::make_unique<Server>(std::move(opts));
    runner = std::thread([this] { server->run(); });
  }

  ~DaemonFixture() {
    if (server) server->shutdown();
    if (runner.joinable()) runner.join();
    ::unlink(path.c_str());
    robust::clear_interrupt();
  }

  static ServerOptions small() {
    ServerOptions o;
    o.dispatchers = 2;
    o.queue_capacity = 8;
    o.cache_bytes = 16u << 20;
    o.max_duration_scale = 0.1;
    return o;
  }

  static std::atomic<int>& counter() {
    static std::atomic<int> c{0};
    return c;
  }
};

Request tiny_study(std::uint64_t seed, std::int32_t limit = 2) {
  Request r;
  r.kind = Request::Kind::kStudy;
  r.seed = seed;
  r.duration_scale = 0.05;
  r.limit = limit;
  return r;
}

TEST(ServeDaemon, PingStatsAndStudyRoundTrip) {
  DaemonFixture d(DaemonFixture::small());
  Client c = Client::connect_unix(d.path);
  EXPECT_TRUE(c.ping());

  const auto reply = c.study(tiny_study(7));
  ASSERT_EQ(reply.summary.status, Status::kOk);
  EXPECT_FALSE(reply.summary.cache_hit);
  EXPECT_GT(reply.summary.records, 0u);
  EXPECT_EQ(reply.records.size(), reply.summary.records);
  for (const std::string& line : reply.records) {
    EXPECT_EQ(line.front(), '{');  // ledger JSON lines
    EXPECT_NE(line.find("\"study_key\""), std::string::npos);
  }

  const Stats st = c.stats();
  EXPECT_EQ(st.requests, 1u);
  EXPECT_EQ(st.studies_run, 1u);
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.cache_hits, 0u);
}

TEST(ServeDaemon, RepeatedRequestServedFromSharedCacheByteIdentical) {
  DaemonFixture d(DaemonFixture::small());
  // Two *separate* clients — the cache is shared daemon state, not
  // per-connection state.
  Client c1 = Client::connect_unix(d.path);
  const auto first = c1.study(tiny_study(11));
  ASSERT_EQ(first.summary.status, Status::kOk);
  EXPECT_FALSE(first.summary.cache_hit);

  Client c2 = Client::connect_unix(d.path);
  const auto second = c2.study(tiny_study(11));
  ASSERT_EQ(second.summary.status, Status::kOk);
  EXPECT_TRUE(second.summary.cache_hit);
  EXPECT_EQ(second.records, first.records);  // byte-identical replay

  const Stats st = c2.stats();
  EXPECT_EQ(st.studies_run, 1u);  // one computation served both
  EXPECT_EQ(st.cache_hits, 1u);

  // force_recompute bypasses the cache and recomputes. Records carry a
  // per-trace wall_seconds measurement, so a *re*computation is identical
  // modulo that one timing field.
  Request forced = tiny_study(11);
  forced.force_recompute = true;
  const auto third = c2.study(forced);
  ASSERT_EQ(third.summary.status, Status::kOk);
  EXPECT_FALSE(third.summary.cache_hit);
  const auto strip_wall = [](std::string line) {
    const std::size_t at = line.find(",\"wall_seconds\":");
    if (at != std::string::npos) line.resize(at);
    return line;
  };
  ASSERT_EQ(third.records.size(), first.records.size());
  for (std::size_t i = 0; i < first.records.size(); ++i)
    EXPECT_EQ(strip_wall(third.records[i]), strip_wall(first.records[i]));
  EXPECT_EQ(c2.stats().studies_run, 2u);
}

TEST(ServeDaemon, ConcurrentIdenticalClientsCoalesceToOneComputation) {
  ServerOptions o = DaemonFixture::small();
  o.dispatchers = 2;
  DaemonFixture d(std::move(o));

  constexpr int kClients = 6;
  std::vector<Client::StudyReply> replies(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client c = Client::connect_unix(d.path);
      replies[static_cast<std::size_t>(i)] = c.study(tiny_study(23, 3));
    });
  }
  for (std::thread& t : threads) t.join();

  for (const auto& r : replies) {
    ASSERT_EQ(r.summary.status, Status::kOk);
    EXPECT_EQ(r.records, replies[0].records);  // all byte-identical
  }
  Client c = Client::connect_unix(d.path);
  const Stats st = c.stats();
  // Single-flight: with all requests racing on one key, the study ran far
  // fewer times than it was asked for (exactly once unless a client arrived
  // after the result was already cached *and* evicted — impossible here).
  EXPECT_EQ(st.studies_run, 1u);
  EXPECT_EQ(st.cache_hits + st.coalesced, static_cast<std::uint64_t>(kClients - 1));
}

TEST(ServeDaemon, PoisonedAndOversizedRequestsAreRejectedNotFatal) {
  DaemonFixture d(DaemonFixture::small());

  {  // CRC-poisoned frame → kBadRequest reject, connection closed.
    Client c = Client::connect_unix(d.path);
    std::string frame = ipc::encode_frame(
        {ipc::MsgType::kRequest, encode_request(tiny_study(1))});
    frame.back() ^= 0x01;
    ASSERT_EQ(::write(c.fd(), frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    ipc::Message m;
    ASSERT_EQ(ipc::read_message(c.fd(), m), ipc::ReadStatus::kMessage);
    EXPECT_EQ(m.type, ipc::MsgType::kReject);
    EXPECT_EQ(decode_summary(m.payload).status, Status::kBadRequest);
    EXPECT_EQ(ipc::read_message(c.fd(), m), ipc::ReadStatus::kEof);
  }
  {  // Oversized length field → kOversized reject before any allocation.
    Client c = Client::connect_unix(d.path);
    const std::string big(kMaxRequestBytes + 64, 'z');
    const std::string frame = ipc::encode_frame({ipc::MsgType::kRequest, big});
    // The daemon rejects on the 8-byte header; it may close before we finish
    // writing the body, so a short write is fine.
    (void)::write(c.fd(), frame.data(), frame.size());
    ipc::Message m;
    ASSERT_EQ(ipc::read_message(c.fd(), m), ipc::ReadStatus::kMessage);
    EXPECT_EQ(m.type, ipc::MsgType::kReject);
    EXPECT_EQ(decode_summary(m.payload).status, Status::kOversized);
  }
  {  // Undecodable payload inside a well-framed message → kBadRequest.
    Client c = Client::connect_unix(d.path);
    ASSERT_TRUE(ipc::write_frame(c.fd(), {ipc::MsgType::kRequest, "not-a-request"}));
    ipc::Message m;
    ASSERT_EQ(ipc::read_message(c.fd(), m), ipc::ReadStatus::kMessage);
    EXPECT_EQ(m.type, ipc::MsgType::kReject);
    EXPECT_EQ(decode_summary(m.payload).status, Status::kBadRequest);
  }

  // The daemon survived all three abuses and still serves honest clients.
  Client c = Client::connect_unix(d.path);
  EXPECT_TRUE(c.ping());
  EXPECT_EQ(c.study(tiny_study(2)).summary.status, Status::kOk);
  EXPECT_GE(c.stats().rejected_bad, 3u);
}

TEST(ServeDaemon, QueueFullRequestsGetExplicitBackpressure) {
  ServerOptions o = DaemonFixture::small();
  o.dispatchers = 1;      // one executor...
  o.queue_capacity = 1;   // ...and room for exactly one waiter
  DaemonFixture d(std::move(o));

  // Fill the executor, then the queue, with *distinct* studies (distinct
  // seeds → distinct cache keys, so single-flight cannot coalesce them).
  // Admission is sequenced via the stats probe: the second holder is only
  // sent once the first has been popped by the dispatcher — otherwise the
  // holder itself can race the pop and eat the queue-full rejection.
  Client probe = Client::connect_unix(d.path);
  const auto wait_for = [&](auto&& pred) {
    for (int i = 0; i < 800; ++i) {
      if (pred(probe.stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  };

  // Holder studies are sized for a saturation window of hundreds of ms —
  // the overflow probe fires within ~1 ms of observing saturation, long
  // before the executing study can finish and free the queue slot.
  const auto big_study = [](std::uint64_t seed) {
    Request r = tiny_study(seed, /*limit=*/6);
    r.duration_scale = 0.1;
    return r;
  };
  std::vector<std::thread> holders;
  holders.emplace_back([&] {
    Client c = Client::connect_unix(d.path);
    EXPECT_EQ(c.study(big_study(100)).summary.status, Status::kOk);
  });
  const bool executing = wait_for([](const Stats& st) { return st.active >= 1; });
  holders.emplace_back([&] {
    Client c = Client::connect_unix(d.path);
    EXPECT_EQ(c.study(big_study(101)).summary.status, Status::kOk);
  });
  const bool saturated =
      wait_for([](const Stats& st) { return st.active >= 1 && st.queued >= 1; });

  Client::StudyReply overflow;
  long long elapsed_ms = 0;
  if (saturated) {
    // The next distinct study must be rejected immediately — not queued,
    // not hung.
    const auto start = std::chrono::steady_clock::now();
    overflow = probe.study(big_study(999));
    elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  }
  for (std::thread& t : holders) t.join();  // join before any assert bails out

  ASSERT_TRUE(executing) << "first study never started executing";
  ASSERT_TRUE(saturated) << "daemon never saturated";
  EXPECT_EQ(overflow.summary.status, Status::kQueueFull);
  EXPECT_EQ(overflow.records.size(), 0u);
  EXPECT_LT(elapsed_ms, 2000);
  EXPECT_GE(probe.stats().rejected_queue_full, 1u);
}

TEST(ServeDaemon, SigtermDrainsGracefully) {
  ServerOptions o = DaemonFixture::small();
  DaemonFixture d(std::move(o));

  Client c = Client::connect_unix(d.path);
  ASSERT_EQ(c.study(tiny_study(31)).summary.status, Status::kOk);

  // Same path the installed signal handler takes on SIGTERM.
  robust::request_interrupt(SIGTERM);
  d.runner.join();  // run() must return on its own

  // Post-drain: the socket is gone and new connections are refused.
  EXPECT_THROW(Client::connect_unix(d.path), hps::Error);

  // A draining daemon answered in-flight waiters; its final counters are
  // still readable in-process.
  const Stats st = d.server->stats();
  EXPECT_EQ(st.requests, 1u);
  robust::clear_interrupt();
}

TEST(ServeDaemon, StudyRequestDuringDrainIsRejectedAsDraining) {
  ServerOptions o = DaemonFixture::small();
  DaemonFixture d(std::move(o));

  Client c = Client::connect_unix(d.path);
  ASSERT_TRUE(c.ping());

  // Flip into drain while the connection is already open: the open
  // connection's next study must get kDraining, not a hang.
  robust::request_interrupt(SIGTERM);
  const auto r = c.study(tiny_study(41));
  EXPECT_EQ(r.summary.status, Status::kDraining);
  d.runner.join();
  robust::clear_interrupt();
}

TEST(ServeDaemon, AdmissionClampsBoundWhatRemoteCallersGet) {
  ServerOptions o = DaemonFixture::small();
  o.max_duration_scale = 0.05;
  o.max_limit = 2;
  DaemonFixture d(std::move(o));

  Client c = Client::connect_unix(d.path);
  Request greedy = tiny_study(51, /*limit=*/0);  // 0 = whole corpus
  greedy.duration_scale = 5.0;
  const auto r = c.study(greedy);
  ASSERT_EQ(r.summary.status, Status::kOk);
  // Clamped to max_limit=2 specs; each spec yields grid-many records, so the
  // reply is bounded well below the full corpus.
  EXPECT_LE(r.summary.records, 2u * 16u);
  EXPECT_GT(r.summary.records, 0u);
}

TEST(ServeDaemon, TcpLoopbackServesTheSameProtocol) {
  ServerOptions o = DaemonFixture::small();
  o.tcp_port = 0;  // ephemeral
  DaemonFixture d(std::move(o));
  ASSERT_GT(d.server->tcp_port(), 0);

  Client c = Client::connect_tcp("127.0.0.1", d.server->tcp_port());
  EXPECT_TRUE(c.ping());
  const auto r = c.study(tiny_study(61));
  EXPECT_EQ(r.summary.status, Status::kOk);
  EXPECT_GT(r.records.size(), 0u);
}

TEST(ServeDaemon, ConnectionCapRejectsExcessConnections) {
  ServerOptions o = DaemonFixture::small();
  o.max_connections = 1;
  DaemonFixture d(std::move(o));

  Client first = Client::connect_unix(d.path);
  ASSERT_TRUE(first.ping());  // the single connection slot is taken

  // The next connection is accepted, told why it cannot be served, and
  // closed — never a silent hang, never an unbounded thread.
  Client second = Client::connect_unix(d.path);
  ipc::Message m;
  ASSERT_EQ(ipc::read_message(second.fd(), m), ipc::ReadStatus::kMessage);
  EXPECT_EQ(m.type, ipc::MsgType::kReject);
  const Summary s = decode_summary(m.payload);
  EXPECT_EQ(s.status, Status::kQueueFull);
  EXPECT_NE(s.detail.find("connection limit"), std::string::npos);
  EXPECT_EQ(ipc::read_message(second.fd(), m), ipc::ReadStatus::kEof);

  // The admitted connection is unaffected, and the rejection was counted.
  EXPECT_TRUE(first.ping());
  EXPECT_GE(first.stats().rejected_conn_limit, 1u);
}

TEST(ServeDaemon, TcpShutdownIsRefusedUnixShutdownWorks) {
  ServerOptions o = DaemonFixture::small();
  o.tcp_port = 0;
  DaemonFixture d(std::move(o));
  ASSERT_GT(d.server->tcp_port(), 0);

  // Shutdown over TCP: explicit bad-request reject, daemon stays up.
  Client tcp = Client::connect_tcp("127.0.0.1", d.server->tcp_port());
  const Summary refused = tcp.shutdown_server();
  EXPECT_EQ(refused.status, Status::kBadRequest);
  EXPECT_NE(refused.detail.find("Unix-domain"), std::string::npos);

  Client unix_client = Client::connect_unix(d.path);
  EXPECT_TRUE(unix_client.ping());  // still serving

  // The same request over the Unix socket drains as before.
  const Summary ack = unix_client.shutdown_server();
  EXPECT_EQ(ack.status, Status::kOk);
  d.runner.join();
}

TEST(ServeListener, RefusesToStealALiveDaemonsSocket) {
  DaemonFixture d(DaemonFixture::small());
  Client c = Client::connect_unix(d.path);
  ASSERT_TRUE(c.ping());

  ServerOptions o = DaemonFixture::small();
  o.socket_path = d.path;
  EXPECT_THROW(Server second(std::move(o)), hps::Error);

  // The live daemon kept its socket and its traffic.
  EXPECT_TRUE(c.ping());
}

TEST(ServeListener, StaleSocketFileIsReclaimed) {
  const std::string path = "/tmp/hps_serve_stale_" + std::to_string(::getpid()) +
                           ".sock";
  ::unlink(path.c_str());
  // Bind a socket, then close it: the filesystem entry survives with no
  // listener behind it — exactly what a crashed daemon leaves.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ::close(fd);

  ServerOptions o = DaemonFixture::small();
  o.socket_path = path;
  EXPECT_NO_THROW({ Server reclaimed(std::move(o)); });  // stale file reclaimed
  ::unlink(path.c_str());
}

TEST(ServeDaemon, ShutdownRequestAcksThenDrains) {
  DaemonFixture d(DaemonFixture::small());
  Client c = Client::connect_unix(d.path);
  const Summary ack = c.shutdown_server();
  EXPECT_EQ(ack.status, Status::kOk);
  d.runner.join();
  EXPECT_THROW(Client::connect_unix(d.path), hps::Error);
}

// ---------------------------------------------------------------------------
// Protocol v2: observability extensions stay backward compatible

TEST(ServeProtocol, StatsV2FieldsRoundTrip) {
  Stats st;
  st.requests = 10;
  st.uptime_ms = 123456;
  st.ledger_records = 10;
  st.spans_dropped = 3;
  const Stats gt = decode_stats(encode_stats(st));
  EXPECT_EQ(gt.requests, st.requests);
  EXPECT_EQ(gt.uptime_ms, st.uptime_ms);
  EXPECT_EQ(gt.ledger_records, st.ledger_records);
  EXPECT_EQ(gt.spans_dropped, st.spans_dropped);
  const std::string j = stats_to_json(st);
  EXPECT_NE(j.find("\"uptime_ms\":123456"), std::string::npos);
  EXPECT_NE(j.find("\"spans_dropped\":3"), std::string::npos);
}

TEST(ServeProtocol, V1StatsPayloadStillDecodesWithV2FieldsDefaulted) {
  Stats st;
  st.requests = 7;
  st.cache_hits = 4;
  st.uptime_ms = 999;       // v2-only — must vanish from a v1 payload
  st.ledger_records = 888;
  st.spans_dropped = 777;
  // Reconstruct what a v1 daemon would have sent: every later extension is
  // *appended*, so drop the six v4 u64s, the five v3 u64s, and the three v2
  // u64s, then patch the version word.
  std::string v1 = encode_stats(st);
  ASSERT_GT(v1.size(), 14u * 8u);
  v1.resize(v1.size() - 14 * 8);
  v1[0] = 1;  // little-endian u32 version: 4 -> 1
  const Stats gt = decode_stats(v1);
  EXPECT_EQ(gt.requests, 7u);
  EXPECT_EQ(gt.cache_hits, 4u);
  EXPECT_EQ(gt.uptime_ms, 0u);
  EXPECT_EQ(gt.ledger_records, 0u);
  EXPECT_EQ(gt.spans_dropped, 0u);
  // A v1 payload that *kept* the trailing bytes is garbage, not half-valid.
  std::string v1_trailing = encode_stats(st);
  v1_trailing[0] = 1;
  EXPECT_THROW(decode_stats(v1_trailing), hps::Error);
}

TEST(ServeProtocol, V1RequestPayloadStillDecodesButMayNotClaimMetrics) {
  Request r = tiny_study(5);
  std::string v1 = encode_request(r);
  v1.resize(v1.size() - 8);  // drop the v3 deadline_ms tail
  v1[0] = 1;  // same byte layout in v1; only the version word moved
  const Request got = decode_request(v1);
  EXPECT_EQ(got.kind, Request::Kind::kStudy);
  EXPECT_EQ(got.seed, 5u);

  // kMetrics is a v2 kind: valid in a v2+ payload, out of range in v1.
  Request m;
  m.kind = Request::Kind::kMetrics;
  std::string enc = encode_request(m);
  EXPECT_EQ(decode_request(enc).kind, Request::Kind::kMetrics);
  enc.resize(enc.size() - 8);
  enc[0] = 1;
  EXPECT_THROW(decode_request(enc), hps::Error);
}

TEST(ServeMetrics, MetricsReplyCodecRoundTrip) {
  MetricsReply m;
  m.stats.requests = 5;
  m.stats.spans_dropped = 2;
  m.uptime_seconds = 12.5;
  MetricsReply::Hist h;
  h.name = std::string(kPhaseMetricPrefix) + "execute";
  h.data.bounds = {0.001, 0.01, 0.1};
  h.data.buckets = {1, 2, 3, 0};
  h.data.count = 6;
  h.data.sum = 0.123;
  m.hists.push_back(h);
  obs::CostCell cell;
  cell.app_class = "stencil";
  cell.scheme = "packet";
  cell.count = 4;
  cell.wall_seconds = 0.25;
  m.costs.push_back(cell);

  const MetricsReply got = decode_metrics(encode_metrics(m));
  EXPECT_EQ(got.stats.requests, 5u);
  EXPECT_EQ(got.stats.spans_dropped, 2u);
  EXPECT_DOUBLE_EQ(got.uptime_seconds, 12.5);
  ASSERT_EQ(got.hists.size(), 1u);
  EXPECT_EQ(got.hists[0].name, h.name);
  EXPECT_EQ(got.hists[0].data.bounds, h.data.bounds);
  EXPECT_EQ(got.hists[0].data.buckets, h.data.buckets);
  EXPECT_EQ(got.hists[0].data.count, 6u);
  EXPECT_DOUBLE_EQ(got.hists[0].data.sum, 0.123);
  ASSERT_EQ(got.costs.size(), 1u);
  EXPECT_EQ(got.costs[0].app_class, "stencil");
  EXPECT_EQ(got.costs[0].scheme, "packet");
  EXPECT_EQ(got.costs[0].count, 4u);
  EXPECT_DOUBLE_EQ(got.costs[0].wall_seconds, 0.25);
  ASSERT_NE(got.find(h.name), nullptr);
  EXPECT_EQ(got.find("no.such.metric"), nullptr);

  const std::string enc = encode_metrics(m);
  EXPECT_THROW(decode_metrics(enc.substr(0, enc.size() - 5)), hps::Error);
  EXPECT_THROW(decode_metrics(enc + "z"), hps::Error);
  EXPECT_THROW(decode_metrics(""), hps::Error);
}

constexpr const char* kGoldenMetricsHex =
    "04000000e400000004000000010000000000000002000000000000000300000000000000"
    "040000000000000005000000000000000600000000000000070000000000000008000000"
    "0000000009000000000000000a000000000000000b000000000000000c00000000000000"
    "0d000000000000000e000000000000000f00000000000000100000000000000011000000"
    "000000001200000000000000130000000000000014000000000000001500000000000000"
    "16000000000000001700000000000000180000000000000019000000000000001a000000"
    "000000001b000000000000001c0000000000000000000000000029400100000013000000"
    "73657276652e70686173652e6578656375746502000000fca9f1d24d62503f9a99999999"
    "99b93f030000000100000000000000020000000000000000000000000000000300000000"
    "000000000000000000c03f01000000070000007374656e63696c060000007061636b6574"
    "0400000000000000000000000000d03f";

TEST(ServeMetrics, MetricsReplyGoldenBytesAreStable) {
  MetricsReply m;
  m.stats = golden_stats();
  m.uptime_seconds = 12.5;
  MetricsReply::Hist h;
  h.name = std::string(kPhaseMetricPrefix) + "execute";
  h.data.bounds = {0.001, 0.1};
  h.data.buckets = {1, 2, 0};
  h.data.count = 3;
  h.data.sum = 0.125;
  m.hists.push_back(h);
  obs::CostCell cell;
  cell.app_class = "stencil";
  cell.scheme = "packet";
  cell.count = 4;
  cell.wall_seconds = 0.25;
  m.costs.push_back(cell);
  EXPECT_EQ(hps::testing::to_hex(encode_metrics(m)), kGoldenMetricsHex);

  const MetricsReply got = decode_metrics(hps::testing::from_hex(kGoldenMetricsHex));
  EXPECT_EQ(got.stats.queued, 14u);
  ASSERT_EQ(got.hists.size(), 1u);
  EXPECT_EQ(got.hists[0].name, h.name);
  EXPECT_EQ(got.hists[0].data.buckets, h.data.buckets);
  ASSERT_EQ(got.costs.size(), 1u);
  EXPECT_EQ(got.costs[0].scheme, "packet");
}

// Text renderings, pinned byte for byte: stats_to_json is what `request
// --stats` and the drain line print, render_prometheus is what scrapers
// parse. The reply is the one MetricsReplyGoldenBytesAreStable encodes.
constexpr const char* kGoldenStatsJson =
    "{\"requests\":1,\"studies_run\":2,\"cache_hits\":3,\"cache_misses\":4,"
    "\"cache_bytes\":5,\"cache_entries\":6,\"cache_evictions\":7,\"coalesced\":8,"
    "\"rejected_queue_full\":9,\"rejected_draining\":10,\"rejected_bad\":11,"
    "\"rejected_conn_limit\":12,\"active\":13,\"queued\":14,\"uptime_ms\":15,"
    "\"ledger_records\":16,\"spans_dropped\":17,\"rejected_expired\":18,"
    "\"shed_queue_delay\":19,\"degraded_fallback\":20,\"rejected_slow_read\":21,"
    "\"ledger_write_errors\":22,\"cache_spilled\":23,\"cache_recovered\":24,"
    "\"cache_quarantined\":25,\"cache_recovery_ms\":26,\"cache_scrub_passes\":27,"
    "\"cache_scrub_corrupt\":28}";

constexpr const char* kGoldenPrometheus = R"prom(# TYPE hpcsweepd_requests_total counter
hpcsweepd_requests_total 1
# TYPE hpcsweepd_studies_run_total counter
hpcsweepd_studies_run_total 2
# TYPE hpcsweepd_coalesced_total counter
hpcsweepd_coalesced_total 8
# TYPE hpcsweepd_cache_hits_total counter
hpcsweepd_cache_hits_total 3
# TYPE hpcsweepd_cache_misses_total counter
hpcsweepd_cache_misses_total 4
# TYPE hpcsweepd_cache_evictions_total counter
hpcsweepd_cache_evictions_total 7
# TYPE hpcsweepd_rejected_total counter
hpcsweepd_rejected_total{reason="queue_full"} 9
hpcsweepd_rejected_total{reason="draining"} 10
hpcsweepd_rejected_total{reason="bad_request"} 11
hpcsweepd_rejected_total{reason="conn_limit"} 12
hpcsweepd_rejected_total{reason="expired"} 18
hpcsweepd_rejected_total{reason="slow_read"} 21
# TYPE hpcsweepd_shed_total counter
hpcsweepd_shed_total 19
# TYPE hpcsweepd_degraded_fallback_total counter
hpcsweepd_degraded_fallback_total 20
# TYPE hpcsweepd_cache_spilled_total counter
hpcsweepd_cache_spilled_total 23
# TYPE hpcsweepd_cache_recovered_total counter
hpcsweepd_cache_recovered_total 24
# TYPE hpcsweepd_cache_quarantined_total counter
hpcsweepd_cache_quarantined_total 25
# TYPE hpcsweepd_cache_scrub_passes_total counter
hpcsweepd_cache_scrub_passes_total 27
# TYPE hpcsweepd_cache_scrub_corrupt_total counter
hpcsweepd_cache_scrub_corrupt_total 28
# TYPE hpcsweepd_serve_ledger_records_total counter
hpcsweepd_serve_ledger_records_total 16
# TYPE hpcsweepd_ledger_write_errors_total counter
hpcsweepd_ledger_write_errors_total 22
# TYPE hpcsweepd_spans_dropped_total counter
hpcsweepd_spans_dropped_total 17
# TYPE hpcsweepd_cache_bytes gauge
hpcsweepd_cache_bytes 5
# TYPE hpcsweepd_cache_entries gauge
hpcsweepd_cache_entries 6
# TYPE hpcsweepd_active_studies gauge
hpcsweepd_active_studies 13
# TYPE hpcsweepd_queue_depth gauge
hpcsweepd_queue_depth 14
# TYPE hpcsweepd_uptime_seconds gauge
hpcsweepd_uptime_seconds 12.5
# TYPE hpcsweepd_cache_recovery_ms gauge
hpcsweepd_cache_recovery_ms 26
# TYPE hpcsweepd_phase_latency_seconds histogram
hpcsweepd_phase_latency_seconds_bucket{phase="execute",le="0.001"} 1
hpcsweepd_phase_latency_seconds_bucket{phase="execute",le="0.1"} 3
hpcsweepd_phase_latency_seconds_bucket{phase="execute",le="+Inf"} 3
hpcsweepd_phase_latency_seconds_sum{phase="execute"} 0.125
hpcsweepd_phase_latency_seconds_count{phase="execute"} 3
# TYPE hpcsweepd_cost_wall_seconds_total counter
# TYPE hpcsweepd_cost_runs_total counter
hpcsweepd_cost_wall_seconds_total{class="stencil",scheme="packet"} 0.25
hpcsweepd_cost_runs_total{class="stencil",scheme="packet"} 4
)prom";

TEST(ServeMetrics, TextRenderingsAreStable) {
  EXPECT_EQ(stats_to_json(golden_stats()), kGoldenStatsJson);
  EXPECT_EQ(render_prometheus(decode_metrics(hps::testing::from_hex(kGoldenMetricsHex))),
            kGoldenPrometheus);
}

TEST(ServeMetrics, MutatedRepliesDecodeOrRejectWithError) {
  hps::testing::expect_decoded_or_rejected(hps::testing::from_hex(kGoldenMetricsHex),
                                           [](const std::string& p) { decode_metrics(p); });
}

// ---------------------------------------------------------------------------
// Live observability: kMetrics, serve ledger, tracing neutrality

TEST(ServeMetrics, LiveDaemonServesPhaseHistogramsAndCosts) {
  DaemonFixture d(DaemonFixture::small());
  Client c = Client::connect_unix(d.path);
  ASSERT_EQ(c.study(tiny_study(71)).summary.status, Status::kOk);       // miss
  ASSERT_TRUE(c.study(tiny_study(71)).summary.cache_hit);               // hit

  const MetricsReply m = c.metrics();
  EXPECT_EQ(m.stats.requests, 2u);
  EXPECT_EQ(m.stats.cache_hits, 1u);
  EXPECT_GT(m.uptime_seconds, 0.0);

  // Every request passes decode/clamp/cache_lookup/stream; only the computed
  // one passes queue_wait/execute/cache_insert.
  const auto count_of = [&](const std::string& name) -> std::uint64_t {
    const MetricsReply::Hist* h = m.find(name);
    return h ? h->data.count : 0;
  };
  EXPECT_EQ(count_of(kRequestMetric), 2u);
  EXPECT_EQ(count_of(std::string(kPhaseMetricPrefix) + "decode"), 2u);
  EXPECT_EQ(count_of(std::string(kPhaseMetricPrefix) + "cache_lookup"), 2u);
  EXPECT_EQ(count_of(std::string(kPhaseMetricPrefix) + "stream"), 2u);
  EXPECT_EQ(count_of(std::string(kPhaseMetricPrefix) + "execute"), 1u);
  EXPECT_EQ(count_of(std::string(kPhaseMetricPrefix) + "cache_insert"), 1u);
  // The computed study populates per-class latency and the cost model.
  bool saw_class_hist = false;
  for (const auto& h : m.hists)
    if (h.name.rfind(kClassMetricPrefix, 0) == 0 && h.data.count > 0) saw_class_hist = true;
  EXPECT_TRUE(saw_class_hist);
  ASSERT_FALSE(m.costs.empty());
  for (const auto& cell : m.costs) {
    EXPECT_FALSE(cell.app_class.empty());
    EXPECT_FALSE(cell.scheme.empty());
    EXPECT_GT(cell.count, 0u);
  }

  // The Prometheus rendering carries the counter families and histograms.
  const std::string prom = render_prometheus(m);
  EXPECT_NE(prom.find("# TYPE hpcsweepd_requests_total counter"), std::string::npos);
  EXPECT_NE(prom.find("hpcsweepd_requests_total 2"), std::string::npos);
  EXPECT_NE(prom.find("hpcsweepd_phase_latency_seconds_bucket"), std::string::npos);
  EXPECT_NE(prom.find("{phase=\"execute\""), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  // Dashboard rendering is exercised for crash-freedom and headline counters.
  const std::string dash = render_dashboard(m, nullptr, 2.0);
  EXPECT_NE(dash.find("hpcsweepd"), std::string::npos);
}

TEST(ServeLedger, OneRecordPerRequestPhasesTileAndCostFooterOnDrain) {
  const std::string stem = "/tmp/hps_serve_obs_" + std::to_string(::getpid()) + "_" +
                           std::to_string(DaemonFixture::counter()++);
  const std::string ledger_path = stem + ".jsonl";
  const std::string trace_path = stem + ".trace.json";
  {
    ServerOptions o = DaemonFixture::small();
    o.serve_ledger_path = ledger_path;
    o.trace_path = trace_path;
    DaemonFixture d(std::move(o));
    Client c = Client::connect_unix(d.path);
    ASSERT_EQ(c.study(tiny_study(81)).summary.status, Status::kOk);   // computed
    ASSERT_TRUE(c.study(tiny_study(81)).summary.cache_hit);           // hit
    ASSERT_EQ(c.study(tiny_study(82)).summary.status, Status::kOk);   // computed
    EXPECT_EQ(c.stats().ledger_records, 3u);
  }  // fixture dtor drains: cost footer + Chrome trace written here

  const obs::ServeLedger led = obs::load_serve_ledger(ledger_path);
  ASSERT_EQ(led.requests.size(), 3u);
  std::set<std::uint64_t> ids;
  for (const obs::ServeRecord& rec : led.requests) {
    EXPECT_EQ(rec.schema, obs::kServeSchemaVersion);
    EXPECT_NE(rec.trace_id, 0u);
    ids.insert(rec.trace_id);
    EXPECT_EQ(rec.status, "ok");
    EXPECT_FALSE(rec.app_classes.empty());
    EXPECT_GT(rec.total_ns, 0);
    // Acceptance bar: per-phase durations tile the request within 1%.
    std::int64_t phase_sum = 0;
    for (const auto& [name, ns] : rec.phases) {
      EXPECT_GE(ns, 0) << name;
      phase_sum += ns;
    }
    EXPECT_NEAR(static_cast<double>(phase_sum), static_cast<double>(rec.total_ns),
                static_cast<double>(rec.total_ns) * 0.01);
  }
  EXPECT_EQ(ids.size(), 3u);  // trace ids are unique per request
  EXPECT_FALSE(led.requests[0].cache_hit);
  EXPECT_TRUE(led.requests[1].cache_hit);
  EXPECT_FALSE(led.requests[2].cache_hit);

  // Drain appended the measured-cost footer for the two computed studies.
  ASSERT_FALSE(led.costs.empty());
  double wall_total = 0;
  for (const obs::CostCell& cell : led.costs) wall_total += cell.wall_seconds;
  EXPECT_GT(wall_total, 0.0);

  // The Chrome trace landed too, with trace-id-tagged request spans.
  std::ifstream tf(trace_path);
  ASSERT_TRUE(tf.good());
  std::string trace((std::istreambuf_iterator<char>(tf)), std::istreambuf_iterator<char>());
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"trace_id\""), std::string::npos);
  EXPECT_NE(trace.find("\"request\""), std::string::npos);

  std::remove(ledger_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(ServeDaemon, TracingOnOrOffPredictionsAreIdentical) {
  // The trace id must never leak into study results or cache keys: a daemon
  // with full tracing enabled streams the same records (modulo the measured
  // wall_seconds timing field) as one with tracing off.
  const std::string stem = "/tmp/hps_serve_trc_" + std::to_string(::getpid()) + "_" +
                           std::to_string(DaemonFixture::counter()++);
  Client::StudyReply plain, traced;
  {
    DaemonFixture d(DaemonFixture::small());
    Client c = Client::connect_unix(d.path);
    plain = c.study(tiny_study(91));
  }
  {
    ServerOptions o = DaemonFixture::small();
    o.serve_ledger_path = stem + ".jsonl";
    o.trace_path = stem + ".trace.json";
    DaemonFixture d(std::move(o));
    Client c = Client::connect_unix(d.path);
    traced = c.study(tiny_study(91));
  }
  ASSERT_EQ(plain.summary.status, Status::kOk);
  ASSERT_EQ(traced.summary.status, Status::kOk);
  const auto strip_wall = [](std::string line) {
    const std::size_t at = line.find(",\"wall_seconds\":");
    if (at != std::string::npos) line.resize(at);
    return line;
  };
  ASSERT_EQ(traced.records.size(), plain.records.size());
  for (std::size_t i = 0; i < plain.records.size(); ++i)
    EXPECT_EQ(strip_wall(traced.records[i]), strip_wall(plain.records[i]));
  std::remove((stem + ".jsonl").c_str());
  std::remove((stem + ".trace.json").c_str());
}

// ---------------------------------------------------------------------------
// Protocol v3: end-to-end deadlines, expiry, graceful degradation

TEST(ServeProtocol, V3DeadlineFallbackAndExpiredRoundTrip) {
  Request r = tiny_study(9);
  r.deadline_ms = 1500;
  EXPECT_EQ(decode_request(encode_request(r)).deadline_ms, 1500u);

  Summary s;
  s.status = Status::kExpired;
  s.mfact_fallback = true;
  s.detail = "degraded=mfact_fallback";
  const Summary gs = decode_summary(encode_summary(s));
  EXPECT_EQ(gs.status, Status::kExpired);
  EXPECT_TRUE(gs.mfact_fallback);
  EXPECT_STREQ(status_name(Status::kExpired), "expired");

  Stats st;
  st.rejected_expired = 1;
  st.shed_queue_delay = 2;
  st.degraded_fallback = 3;
  st.rejected_slow_read = 4;
  st.ledger_write_errors = 5;
  const Stats gt = decode_stats(encode_stats(st));
  EXPECT_EQ(gt.rejected_expired, 1u);
  EXPECT_EQ(gt.shed_queue_delay, 2u);
  EXPECT_EQ(gt.degraded_fallback, 3u);
  EXPECT_EQ(gt.rejected_slow_read, 4u);
  EXPECT_EQ(gt.ledger_write_errors, 5u);
  const std::string j = stats_to_json(st);
  EXPECT_NE(j.find("\"shed_queue_delay\":2"), std::string::npos);
  EXPECT_NE(j.find("\"ledger_write_errors\":5"), std::string::npos);
}

TEST(ServeProtocol, V2PayloadsStillDecodeWithV3FieldsDefaulted) {
  // Reconstruct what a v2 client/daemon would have sent: every v3 field is
  // *appended*, so drop the trailing bytes and patch the version word.
  Request r = tiny_study(5);
  r.deadline_ms = 777;  // v3-only — must vanish from a v2 payload
  std::string v2req = encode_request(r);
  ASSERT_GT(v2req.size(), 8u);
  v2req.resize(v2req.size() - 8);  // trailing u64 deadline_ms
  v2req[0] = 2;
  const Request gr = decode_request(v2req);
  EXPECT_EQ(gr.seed, 5u);
  EXPECT_EQ(gr.deadline_ms, 0u);

  Summary s;
  s.status = Status::kDegraded;
  s.mfact_fallback = true;
  std::string v2sum = encode_summary(s);
  v2sum.resize(v2sum.size() - 1);  // trailing u8 mfact_fallback
  v2sum[0] = 2;
  const Summary gs = decode_summary(v2sum);
  EXPECT_EQ(gs.status, Status::kDegraded);
  EXPECT_FALSE(gs.mfact_fallback);

  // kExpired is a v3 status: valid in v3, out of range in a v2 payload.
  Summary e;
  e.status = Status::kExpired;
  std::string v2exp = encode_summary(e);
  v2exp.resize(v2exp.size() - 1);
  v2exp[0] = 2;
  EXPECT_THROW(decode_summary(v2exp), hps::Error);

  Stats st;
  st.requests = 6;
  st.rejected_expired = 9;  // v3-only
  std::string v2st = encode_stats(st);
  ASSERT_GT(v2st.size(), 11u * 8u);
  v2st.resize(v2st.size() - 11 * 8);  // five v3 + six v4 trailing counters
  v2st[0] = 2;
  const Stats gt = decode_stats(v2st);
  EXPECT_EQ(gt.requests, 6u);
  EXPECT_EQ(gt.rejected_expired, 0u);
  EXPECT_EQ(gt.shed_queue_delay, 0u);
}

// ---------------------------------------------------------------------------
// AdmissionQueue v3: expiry, CoDel shedding, class fairness, close races

TEST(AdmissionQueue, ExpiredEntriesComeOutClassifiedExpired) {
  using Q = AdmissionQueue<int>;
  Q q(4);
  const std::int64_t past = Q::steady_now_ns() - 1;
  const std::int64_t future = Q::steady_now_ns() + 60'000'000'000ll;
  ASSERT_EQ(q.try_push(1, past, 1), Q::Push::kAccepted);
  ASSERT_EQ(q.try_push(2, future, 1), Q::Push::kAccepted);
  ASSERT_EQ(q.try_push(3, /*deadline_ns=*/0, 1), Q::Push::kAccepted);

  int out = 0;
  EXPECT_EQ(q.pop_entry(out), Q::Pop::kExpired);  // still handed to the consumer
  EXPECT_EQ(out, 1);
  EXPECT_EQ(q.pop_entry(out), Q::Pop::kItem);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(q.pop_entry(out), Q::Pop::kItem);  // 0 = no deadline, never expires
  EXPECT_EQ(out, 3);
}

TEST(AdmissionQueue, CoDelShedsOnlySustainedOverTargetDelay) {
  using Q = AdmissionQueue<int>;
  Q q(8, ShedPolicy{/*target_ns=*/1'000'000, /*interval_ns=*/5'000'000});
  int out = 0;

  // A fast dequeue stays under target: no shed state accumulates.
  ASSERT_EQ(q.try_push(0), Q::Push::kAccepted);
  EXPECT_EQ(q.pop_entry(out), Q::Pop::kItem);

  // First over-target dequeue only opens the observation window...
  ASSERT_EQ(q.try_push(1), Q::Push::kAccepted);
  ASSERT_EQ(q.try_push(2), Q::Push::kAccepted);
  ASSERT_EQ(q.try_push(3), Q::Push::kAccepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(q.pop_entry(out), Q::Pop::kItem);
  EXPECT_EQ(out, 1);
  // ...and once delay has stayed above target past the interval, the queue
  // drops into shedding and keeps shedding over-target dequeues.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(q.pop_entry(out), Q::Pop::kShed);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(q.pop_entry(out), Q::Pop::kShed);
  EXPECT_EQ(out, 3);
  EXPECT_EQ(q.shed_count(), 2u);

  // The first under-target dequeue resets the state: recovery is immediate.
  ASSERT_EQ(q.try_push(4), Q::Push::kAccepted);
  EXPECT_EQ(q.pop_entry(out), Q::Pop::kItem);
  EXPECT_EQ(out, 4);
  EXPECT_EQ(q.shed_count(), 2u);
}

TEST(AdmissionQueue, WeightedRoundRobinKeepsCheapClassFlowing) {
  using Q = AdmissionQueue<int>;
  Q q(8);
  // Four expensive simulations queued first, then two cheap MFACT-planned
  // entries: the cheap class (weight 2) must jump the simulation backlog.
  for (int i = 10; i < 14; ++i) ASSERT_EQ(q.try_push(i, 0, 1), Q::Push::kAccepted);
  ASSERT_EQ(q.try_push(0, 0, 0), Q::Push::kAccepted);
  ASSERT_EQ(q.try_push(1, 0, 0), Q::Push::kAccepted);

  std::vector<int> order;
  int out = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(q.pop_entry(out), Q::Pop::kItem);
    order.push_back(out);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 12, 13}));
}

TEST(AdmissionQueue, CloseWhileConsumersBlockedInPopDoesNotHangOrDropWork) {
  using Q = AdmissionQueue<int>;
  Q q(128);
  std::atomic<int> popped{0};
  std::atomic<int> closed_seen{0};
  std::vector<std::thread> consumers;
  for (int t = 0; t < 4; ++t) {
    consumers.emplace_back([&] {
      int out = 0;
      for (;;) {
        const Q::Pop p = q.pop_entry(out);
        if (p == Q::Pop::kClosed) {
          closed_seen.fetch_add(1);
          return;
        }
        popped.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 50; ++i) ASSERT_EQ(q.try_push(i), Q::Push::kAccepted);
  q.close();  // races the consumers mid-pop: nothing may hang or vanish
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(popped.load(), 50);       // admission is a promise, even across close
  EXPECT_EQ(closed_seen.load(), 4);   // every consumer exited cleanly
  EXPECT_EQ(q.try_push(99), Q::Push::kClosed);
}

// ---------------------------------------------------------------------------
// End-to-end deadlines and graceful degradation against a live daemon

/// Installs a fault plan for one scope; tests must never leak a global plan.
struct FaultPlanGuard {
  explicit FaultPlanGuard(const std::string& plan) {
    robust::set_fault_plan(robust::parse_fault_plan(plan));
  }
  ~FaultPlanGuard() { robust::clear_fault_plan(); }
};

TEST(ServeDaemon, DeadlineExpiredByDispatchDelayComesBackExpired) {
  ServerOptions o = DaemonFixture::small();
  o.dispatchers = 1;
  DaemonFixture d(std::move(o));
  // Chaos: every dispatch stalls 300 ms, charged against the deadline like
  // queue wait — a 50 ms end-to-end budget cannot survive it.
  FaultPlanGuard fault("site=serve.dispatch,kind=delay,delay_ms=300");
  Client c = Client::connect_unix(d.path);
  Request req = tiny_study(201);
  req.deadline_ms = 50;
  const auto reply = c.study(req);
  EXPECT_EQ(reply.summary.status, Status::kExpired);
  EXPECT_EQ(reply.records.size(), 0u);
  EXPECT_NE(reply.summary.detail.find("deadline"), std::string::npos);

  Client probe = Client::connect_unix(d.path);
  EXPECT_GE(probe.stats().rejected_expired, 1u);
  // An undeadlined request sails through the same chaos untouched.
  EXPECT_EQ(probe.study(tiny_study(202)).summary.status, Status::kOk);
}

TEST(ServeDaemon, InfeasibleDeadlineDegradesToMfactFallbackUncached) {
  DaemonFixture d(DaemonFixture::small());
  Client warm = Client::connect_unix(d.path);
  // Warm the measured-cost model so the feasibility triage has a prediction.
  // Chaos: every message injected by the flow scheme of corpus spec 2 (189
  // of them cross the network alone) stalls 2 ms inside the timed replay, so
  // the measured cost of a full study is at least 0.378 s on any host.
  Request big = tiny_study(211, /*limit=*/6);
  const auto warmed = [&] {
    FaultPlanGuard fault("site=flow,spec=2,scheme=flow,kind=delay,delay_ms=2");
    return warm.study(big);
  }();
  ASSERT_EQ(warmed.summary.status, Status::kOk);
  ASSERT_GE(warmed.summary.wall_seconds, 0.378);

  // A 100 ms deadline cannot fit the simulation schemes, even with the cost
  // model's average diluted by the two degraded runs below; the daemon must
  // degrade to MFACT-only, tag the reply, and keep the degraded result out
  // of the shared cache.
  Request rushed = tiny_study(212, /*limit=*/6);
  rushed.deadline_ms = 100;
  const auto first = Client::connect_unix(d.path).study(rushed);
  ASSERT_EQ(first.summary.status, Status::kDegraded);
  EXPECT_TRUE(first.summary.mfact_fallback);
  EXPECT_NE(first.summary.detail.find("mfact_fallback"), std::string::npos);
  EXPECT_GT(first.summary.records, 0u);

  const auto second = Client::connect_unix(d.path).study(rushed);
  ASSERT_EQ(second.summary.status, Status::kDegraded);
  EXPECT_TRUE(second.summary.mfact_fallback);
  EXPECT_FALSE(second.summary.cache_hit);  // degraded results are never cached

  Client probe = Client::connect_unix(d.path);
  EXPECT_GE(probe.stats().degraded_fallback, 2u);
  // The healthy path is untouched: the full study is still served (from
  // cache) byte-identically despite the degraded runs in between.
  const auto again = probe.study(big);
  ASSERT_EQ(again.summary.status, Status::kOk);
  EXPECT_TRUE(again.summary.cache_hit);
  ASSERT_EQ(again.records.size(), warmed.records.size());
  for (std::size_t i = 0; i < again.records.size(); ++i)
    EXPECT_EQ(again.records[i], warmed.records[i]);
}

// ---------------------------------------------------------------------------
// Resilient client: retries, circuit breaker, timeouts

TEST(ResilientClient, BreakerOpensFailsFastThenHalfOpenProbeRecloses) {
  const std::string path = "/tmp/hps_serve_cb_" + std::to_string(::getpid()) + "_" +
                           std::to_string(DaemonFixture::counter()++) + ".sock";
  ClientPolicy policy;
  policy.timeout_ms = 2000;
  policy.max_retries = 1;
  policy.backoff_ms = 1;
  policy.backoff_max_ms = 2;
  policy.jitter_seed = 7;
  policy.breaker_failures = 2;
  policy.breaker_cooldown_ms = 200;
  ResilientClient rc = ResilientClient::unix_socket(path, policy);

  // No daemon: first study burns its retry budget (two connect failures),
  // which trips the breaker.
  EXPECT_THROW(rc.study(tiny_study(221)), hps::Error);
  EXPECT_EQ(rc.last_attempts(), 2);
  EXPECT_EQ(rc.breaker_state(), ResilientClient::Breaker::kOpen);

  // While open the client fails fast without touching the socket.
  EXPECT_THROW(rc.study(tiny_study(221)), CircuitOpenError);

  // After the cooldown one half-open probe goes through; the daemon is
  // still down, so the probe fails immediately (no retry burn) and re-opens.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(rc.breaker_state(), ResilientClient::Breaker::kHalfOpen);
  EXPECT_THROW(rc.study(tiny_study(221)), hps::Error);
  EXPECT_EQ(rc.last_attempts(), 1);
  EXPECT_EQ(rc.breaker_state(), ResilientClient::Breaker::kOpen);

  // Bring a real daemon up on the same path: the next half-open probe
  // succeeds and re-closes the breaker.
  ServerOptions o = DaemonFixture::small();
  o.socket_path = path;
  o.install_signal_guard = false;
  Server server(std::move(o));
  std::thread runner([&] { server.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  const auto reply = rc.study(tiny_study(221));
  EXPECT_EQ(reply.summary.status, Status::kOk);
  EXPECT_EQ(rc.last_attempts(), 1);
  EXPECT_EQ(rc.breaker_state(), ResilientClient::Breaker::kClosed);
  server.shutdown();
  runner.join();
  ::unlink(path.c_str());
}

TEST(ResilientClient, SocketTimeoutSurfacesAsTimeoutErrorAndIsNeverRetried) {
  // A listener that accepts connections (via the kernel backlog) but never
  // replies: the documented worst case a socket deadline exists for.
  const std::string path = "/tmp/hps_serve_stall_" + std::to_string(::getpid()) + "_" +
                           std::to_string(DaemonFixture::counter()++) + ".sock";
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 8), 0);

  ClientPolicy policy;
  policy.timeout_ms = 50;
  policy.max_retries = 3;
  policy.backoff_ms = 1;
  ResilientClient rc = ResilientClient::unix_socket(path, policy);
  EXPECT_THROW(rc.study(tiny_study(231)), TimeoutError);
  // The request reached the wire: retrying could double-execute it, so the
  // whole retry budget must stay unspent.
  EXPECT_EQ(rc.last_attempts(), 1);

  ::close(lfd);
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// Slowloris guard

TEST(ServeDaemon, PartialFrameHeldPastTheCapIsRejected) {
  ServerOptions o = DaemonFixture::small();
  o.slow_read_timeout_ms = 100;
  DaemonFixture d(std::move(o));

  // A well-behaved client on the same daemon is unaffected before and after.
  Client ok = Client::connect_unix(d.path);
  ASSERT_EQ(ok.study(tiny_study(241)).summary.status, Status::kOk);

  // Dribble 4 bytes of a valid request frame and then stall.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, d.path.c_str(), sizeof addr.sun_path - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const std::string frame =
      ipc::encode_frame({ipc::MsgType::kRequest, encode_request(tiny_study(242))});
  ASSERT_EQ(::send(fd, frame.data(), 4, 0), 4);

  // The daemon must reject the connection with an explicit slow-read error
  // (not silently hold it): read the reject frame back.
  ipc::Message m;
  ASSERT_EQ(ipc::read_message(fd, m), ipc::ReadStatus::kMessage);
  EXPECT_EQ(m.type, ipc::MsgType::kReject);
  const Summary s = decode_summary(m.payload);
  EXPECT_EQ(s.status, Status::kBadRequest);
  EXPECT_NE(s.detail.find("slow read"), std::string::npos);
  ::close(fd);

  Client probe = Client::connect_unix(d.path);
  EXPECT_EQ(probe.stats().rejected_slow_read, 1u);
  EXPECT_EQ(probe.study(tiny_study(243)).summary.status, Status::kOk);
}

// ---------------------------------------------------------------------------
// Serve-ledger hardening and the new record fields

TEST(ServeLedger, WriterDisablesAfterEnospcAndCountsEveryLostLine) {
  if (!std::ofstream("/dev/full").is_open()) GTEST_SKIP() << "/dev/full unavailable";
  obs::ServeLedgerWriter w("/dev/full");
  obs::ServeRecord rec;
  rec.trace_id = 1;
  w.append(rec);  // first flush hits ENOSPC: latch + warn once
  EXPECT_EQ(w.write_errors(), 1u);
  EXPECT_EQ(w.records_written(), 0u);
  w.append(rec);  // disabled: counted as lost, not attempted
  w.append(rec);
  EXPECT_EQ(w.write_errors(), 3u);
  EXPECT_EQ(w.records_written(), 0u);
}

TEST(ServeLedger, FallbackAndDeadlineFieldsRoundTripThroughJsonl) {
  obs::ServeRecord rec;
  rec.trace_id = 0xabc;
  rec.status = "degraded";
  rec.mfact_fallback = true;
  rec.deadline_ms = 1234;
  const std::string line = obs::to_json_line(rec);
  EXPECT_NE(line.find("\"mfact_fallback\":true"), std::string::npos);
  EXPECT_NE(line.find("\"deadline_ms\":1234"), std::string::npos);

  const std::string path = "/tmp/hps_serve_led_" + std::to_string(::getpid()) + "_" +
                           std::to_string(DaemonFixture::counter()++) + ".jsonl";
  {
    obs::ServeLedgerWriter w(path);
    w.append(rec);
    EXPECT_EQ(w.records_written(), 1u);
    EXPECT_EQ(w.write_errors(), 0u);
  }
  const obs::ServeLedger led = obs::load_serve_ledger(path);
  ASSERT_EQ(led.requests.size(), 1u);
  EXPECT_TRUE(led.requests[0].mfact_fallback);
  EXPECT_EQ(led.requests[0].deadline_ms, 1234u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Serve fault sites: chaos hooks parse, fire, and never take the daemon down

TEST(ServeFault, ServeSitesParseAndName) {
  const auto plan = robust::parse_fault_plan(
      "site=serve.cache-insert,kind=throw;site=serve.ledger-append;"
      "site=serve.dispatch,kind=delay,delay_ms=5");
  ASSERT_EQ(plan.specs.size(), 3u);
  EXPECT_EQ(plan.specs[0].site, robust::FaultSite::kServeCacheInsert);
  EXPECT_EQ(plan.specs[1].site, robust::FaultSite::kServeLedgerAppend);
  EXPECT_EQ(plan.specs[2].site, robust::FaultSite::kServeDispatch);
  EXPECT_STREQ(robust::fault_site_name(robust::FaultSite::kServeCacheInsert),
               "serve.cache-insert");
  EXPECT_STREQ(robust::fault_site_name(robust::FaultSite::kServeLedgerAppend),
               "serve.ledger-append");
  EXPECT_STREQ(robust::fault_site_name(robust::FaultSite::kServeDispatch),
               "serve.dispatch");
}

TEST(ServeFault, CacheInsertFailureCostsOnlyTheFutureHit) {
  DaemonFixture d(DaemonFixture::small());
  FaultPlanGuard fault("site=serve.cache-insert,kind=throw");
  Client c = Client::connect_unix(d.path);
  const auto first = c.study(tiny_study(251));
  ASSERT_EQ(first.summary.status, Status::kOk);  // the study itself succeeded
  const auto second = c.study(tiny_study(251));
  ASSERT_EQ(second.summary.status, Status::kOk);
  EXPECT_FALSE(second.summary.cache_hit);  // insert failed: recomputed, not lost
}

TEST(ServeFault, LedgerAppendFailureIsCountedNotFatal) {
  const std::string path = "/tmp/hps_serve_lf_" + std::to_string(::getpid()) + "_" +
                           std::to_string(DaemonFixture::counter()++) + ".jsonl";
  ServerOptions o = DaemonFixture::small();
  o.serve_ledger_path = path;
  DaemonFixture d(std::move(o));
  FaultPlanGuard fault("site=serve.ledger-append,kind=throw");
  Client c = Client::connect_unix(d.path);
  ASSERT_EQ(c.study(tiny_study(261)).summary.status, Status::kOk);
  const Stats st = c.stats();
  EXPECT_GE(st.ledger_write_errors, 1u);
  EXPECT_EQ(st.ledger_records, 0u);  // the lost line is counted, not half-written
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Durable cache: spill codec, recovery, quarantine, scrubbing

std::string fresh_cache_dir() {
  const std::string dir = "/tmp/hps_serve_spill_" + std::to_string(::getpid()) + "_" +
                          std::to_string(DaemonFixture::counter()++);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::shared_ptr<CachedResult> durable_result(const std::string& tag,
                                             bool fallback = false) {
  auto r = std::make_shared<CachedResult>();
  r->status = fallback ? Status::kDegraded : Status::kOk;
  r->degraded = fallback ? 3u : 0u;
  r->wall_seconds = 1.5 + static_cast<double>(tag.size());
  r->app_classes = "latency-bound,bandwidth-bound";
  r->mfact_fallback = fallback;
  r->records = {"{\"trace\":\"" + tag + "\"}", "{\"trace\":\"" + tag + tag + "\"}"};
  return r;
}

TEST(SpillCodec, RecordRoundTripPreservesEveryField) {
  auto r = durable_result("alpha");
  r->status = Status::kDegraded;
  r->degraded = 2;
  const SpillRecord got = decode_spill_record(encode_spill_record(42, *r));
  EXPECT_EQ(got.key, 42u);
  EXPECT_EQ(got.result.status, r->status);
  EXPECT_EQ(got.result.degraded, r->degraded);
  EXPECT_DOUBLE_EQ(got.result.wall_seconds, r->wall_seconds);
  EXPECT_EQ(got.result.app_classes, r->app_classes);
  EXPECT_EQ(got.result.mfact_fallback, r->mfact_fallback);
  EXPECT_EQ(got.result.records, r->records);
}

TEST(SpillCodec, DecodeRejectsTruncationTrailingBytesAndBadSchema) {
  const std::string ok = encode_spill_record(7, *durable_result("x"));
  EXPECT_THROW(decode_spill_record(ok.substr(0, ok.size() - 2)), hps::Error);
  EXPECT_THROW(decode_spill_record(ok + "zz"), hps::Error);
  EXPECT_THROW(decode_spill_record(""), hps::Error);
  std::string bad_schema = ok;
  bad_schema[0] = static_cast<char>(kSpillRecordSchema + 1);
  EXPECT_THROW(decode_spill_record(bad_schema), hps::Error);
}

constexpr const char* kGoldenSpillHex =
    "48505343010000006500000029bc1111010000000b000000000000000000000000000000"
    "0000000c40001d0000006c6174656e63792d626f756e642c62616e6477696474682d626f"
    "756e64020000000e0000007b227472616365223a227331227d100000007b227472616365"
    "223a2273317331227d650000000a1ee06501000000160000000000000001030000000000"
    "000000000c40011d0000006c6174656e63792d626f756e642c62616e6477696474682d62"
    "6f756e64020000000e0000007b227472616365223a227332227d100000007b2274726163"
    "65223a2273327332227d";

TEST(SpillFile, GoldenBytesAreStableAndReadBack) {
  const std::string dir = fresh_cache_dir();
  const std::string path = spill_path(dir);
  write_spill_file(path, {{11, *durable_result("s1")}, {22, *durable_result("s2", true)}});
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  }
  EXPECT_EQ(hps::testing::to_hex(bytes), kGoldenSpillHex);

  // A file written by the pinned layout reads back record for record.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    const std::string golden = hps::testing::from_hex(kGoldenSpillHex);
    f.write(golden.data(), static_cast<std::streamsize>(golden.size()));
  }
  const SpillScan scan = scan_spill_file(path);
  EXPECT_TRUE(scan.header_ok);
  EXPECT_TRUE(scan.quarantine.empty());
  EXPECT_EQ(scan.torn_bytes, 0u);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].key, 11u);
  EXPECT_EQ(scan.records[0].result.records, durable_result("s1")->records);
  EXPECT_EQ(scan.records[1].key, 22u);
  EXPECT_TRUE(scan.records[1].result.mfact_fallback);
  EXPECT_EQ(scan.records[1].result.records, durable_result("s2")->records);
  std::filesystem::remove_all(dir);
}

TEST(SpillFile, WriterThenScanRoundTripsRecords) {
  const std::string dir = fresh_cache_dir();
  const std::string path = spill_path(dir);
  {
    SpillWriter w;
    w.open(path, /*fsync_each=*/false);
    w.append(1, *durable_result("a"));
    w.append(2, *durable_result("bb"));
    EXPECT_GT(w.file_bytes(), 8u);
    w.close();
  }
  const SpillScan scan = scan_spill_file(path);
  EXPECT_TRUE(scan.existed);
  EXPECT_TRUE(scan.header_ok);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].key, 1u);
  EXPECT_EQ(scan.records[1].key, 2u);
  EXPECT_EQ(scan.records[1].result.records, durable_result("bb")->records);
  EXPECT_TRUE(scan.quarantine.empty());
  EXPECT_EQ(scan.torn_bytes, 0u);

  // Reopening for append continues the same file, no second header.
  {
    SpillWriter w;
    w.open(path, false);
    w.append(3, *durable_result("c"));
  }
  EXPECT_EQ(scan_spill_file(path).records.size(), 3u);
  std::filesystem::remove_all(dir);
}

TEST(DurableCache, InsertSpillsAndRecoverIsByteIdentical) {
  const std::string dir = fresh_cache_dir();
  auto a = durable_result("first");
  auto b = durable_result("second");
  {
    ResultCache cache(1 << 20, {dir, false});
    EXPECT_EQ(cache.recover().recovered, 0u);  // fresh dir: nothing yet
    cache.insert(100, a);
    cache.insert(200, b);
    const auto c = cache.counters();
    EXPECT_EQ(c.spilled, 2u);
    EXPECT_EQ(c.spill_errors, 0u);
  }
  ResultCache warm(1 << 20, {dir, false});
  const ResultCache::RecoveryStats rs = warm.recover();
  EXPECT_EQ(rs.recovered, 2u);
  EXPECT_EQ(rs.quarantined, 0u);
  EXPECT_EQ(rs.torn_bytes, 0u);
  const auto ha = warm.lookup(100);
  const auto hb = warm.lookup(200);
  ASSERT_NE(ha, nullptr);
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(ha->records, a->records);  // byte-identical replay after restart
  EXPECT_EQ(hb->records, b->records);
  EXPECT_EQ(ha->app_classes, a->app_classes);
  EXPECT_DOUBLE_EQ(ha->wall_seconds, a->wall_seconds);
  EXPECT_EQ(warm.counters().recovered, 2u);
  std::filesystem::remove_all(dir);
}

TEST(DurableCache, MfactFallbackResultsAreNeverSpilled) {
  const std::string dir = fresh_cache_dir();
  {
    ResultCache cache(1 << 20, {dir, false});
    cache.recover();
    cache.insert(1, durable_result("real"));
    cache.insert(2, durable_result("degraded", /*fallback=*/true));
    EXPECT_EQ(cache.counters().spilled, 1u);
  }
  ResultCache warm(1 << 20, {dir, false});
  EXPECT_EQ(warm.recover().recovered, 1u);
  EXPECT_NE(warm.lookup(1), nullptr);
  EXPECT_EQ(warm.lookup(2), nullptr);  // the fallback stayed memory-only
  std::filesystem::remove_all(dir);
}

TEST(DurableCache, CorruptMidFileRecordIsQuarantinedNeighborsSurvive) {
  const std::string dir = fresh_cache_dir();
  const std::string p1 = encode_spill_record(1, *durable_result("keep1"));
  const std::string p2 = encode_spill_record(2, *durable_result("smash"));
  const std::string p3 = encode_spill_record(3, *durable_result("keep3"));
  write_spill_file(spill_path(dir), {{1, *durable_result("keep1")},
                                     {2, *durable_result("smash")},
                                     {3, *durable_result("keep3")}});
  // Flip one payload byte inside record 2: header(8) + frame1(8+p1) + frame
  // header(8) puts us at the start of p2; aim at its middle.
  const std::size_t at = 8 + (8 + p1.size()) + 8 + p2.size() / 2;
  {
    std::fstream f(spill_path(dir), std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(at));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x40);
    f.seekp(static_cast<std::streamoff>(at));
    f.write(&c, 1);
  }
  ResultCache warm(1 << 20, {dir, false});
  const auto rs = warm.recover();
  EXPECT_EQ(rs.recovered, 2u);
  EXPECT_EQ(rs.quarantined, 1u);
  EXPECT_NE(warm.lookup(1), nullptr);
  EXPECT_EQ(warm.lookup(2), nullptr);  // quarantined, never served corrupt
  EXPECT_NE(warm.lookup(3), nullptr);  // the scan resynchronized past the rot
  EXPECT_GT(std::filesystem::file_size(quarantine_path(dir)), 0u);
  // Recovery left a clean compacted file behind.
  const SpillScan rescan = scan_spill_file(spill_path(dir));
  EXPECT_EQ(rescan.records.size(), 2u);
  EXPECT_TRUE(rescan.quarantine.empty());
  std::filesystem::remove_all(dir);
}

TEST(DurableCache, TornTailIsTruncatedNotQuarantined) {
  const std::string dir = fresh_cache_dir();
  write_spill_file(spill_path(dir), {{1, *durable_result("whole")}});
  {
    // A crash mid-append leaves a partial frame: fake one.
    std::ofstream f(spill_path(dir), std::ios::app | std::ios::binary);
    f.write("\x40\x00\x00\x00\x99\x99", 6);
  }
  ResultCache warm(1 << 20, {dir, false});
  const auto rs = warm.recover();
  EXPECT_EQ(rs.recovered, 1u);
  EXPECT_EQ(rs.quarantined, 0u);  // a torn tail is expected, not forensic
  EXPECT_GT(rs.torn_bytes, 0u);
  EXPECT_FALSE(std::filesystem::exists(quarantine_path(dir)));
  EXPECT_NE(warm.lookup(1), nullptr);
  std::filesystem::remove_all(dir);
}

// The satellite contract: flip EVERY byte of a spill file, one at a time, and
// recovery must (a) never crash and (b) leave each original record either
// recovered byte-identical or absent-and-accounted (quarantined, or part of a
// torn/condemned region) — never silently served with wrong bytes.
TEST(DurableCache, ExhaustiveSingleByteCorruptionSweep) {
  const std::string dir = fresh_cache_dir();
  const auto r1 = durable_result("s1");
  const auto r2 = durable_result("s2");
  write_spill_file(spill_path(dir), {{11, *r1}, {22, *r2}});
  std::string pristine;
  {
    std::ifstream f(spill_path(dir), std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(pristine.size(), 16u);

  hps::testing::for_each_byte_flip(pristine, [&](const std::string& mutated, std::size_t i) {
    {
      std::ofstream f(spill_path(dir), std::ios::binary | std::ios::trunc);
      f.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    std::filesystem::remove(quarantine_path(dir));

    ResultCache warm(1 << 20, {dir, false});
    ResultCache::RecoveryStats rs{};
    ASSERT_NO_THROW(rs = warm.recover()) << "byte " << i;

    const auto h1 = warm.lookup(11);
    const auto h2 = warm.lookup(22);
    if (h1 != nullptr) {
      EXPECT_EQ(h1->records, r1->records) << "byte " << i;
      EXPECT_DOUBLE_EQ(h1->wall_seconds, r1->wall_seconds) << "byte " << i;
    }
    if (h2 != nullptr) {
      EXPECT_EQ(h2->records, r2->records) << "byte " << i;
      EXPECT_DOUBLE_EQ(h2->wall_seconds, r2->wall_seconds) << "byte " << i;
    }
    const std::uint64_t missing = (h1 == nullptr ? 1u : 0u) + (h2 == nullptr ? 1u : 0u);
    if (missing > 0) {
      // No third outcome: a lost record must be accounted for as damage.
      EXPECT_TRUE(rs.quarantined > 0 || rs.torn_bytes > 0)
          << "byte " << i << " lost " << missing << " record(s) without accounting";
    }
    EXPECT_EQ(rs.recovered, 2u - missing) << "byte " << i;
  });
  std::filesystem::remove_all(dir);
}

TEST(DurableCache, ScrubQuarantinesRotAndRewritesFromMemory) {
  const std::string dir = fresh_cache_dir();
  ResultCache cache(1 << 20, {dir, false});
  cache.recover();
  cache.insert(1, durable_result("rotme"));
  cache.insert(2, durable_result("fine"));

  // Rot one byte on disk behind the cache's back (bit flip, cosmic ray...).
  const std::uint64_t size = std::filesystem::file_size(spill_path(dir));
  {
    std::fstream f(spill_path(dir), std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff at = static_cast<std::streamoff>(size / 2);
    f.seekg(at);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x01);
    f.seekp(at);
    f.write(&c, 1);
  }

  EXPECT_GE(cache.scrub_once(), 1u);
  const auto c = cache.counters();
  EXPECT_EQ(c.scrub_passes, 1u);
  EXPECT_GE(c.scrub_corrupt, 1u);
  EXPECT_GE(c.quarantined, 1u);
  EXPECT_GT(std::filesystem::file_size(quarantine_path(dir)), 0u);

  // Memory was authoritative: the rewritten file holds both entries intact.
  const SpillScan rescan = scan_spill_file(spill_path(dir));
  EXPECT_TRUE(rescan.header_ok);
  EXPECT_EQ(rescan.records.size(), 2u);
  EXPECT_TRUE(rescan.quarantine.empty());
  // A second pass over the repaired file finds nothing.
  EXPECT_EQ(cache.scrub_once(), 0u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Durability fault sites

TEST(ServeFault, DurabilitySitesParseAndName) {
  const auto plan = robust::parse_fault_plan(
      "site=serve.cache-spill,kind=throw;site=serve.cache-recover;site=serve.scrub");
  ASSERT_EQ(plan.specs.size(), 3u);
  EXPECT_EQ(plan.specs[0].site, robust::FaultSite::kServeCacheSpill);
  EXPECT_EQ(plan.specs[1].site, robust::FaultSite::kServeCacheRecover);
  EXPECT_EQ(plan.specs[2].site, robust::FaultSite::kServeScrub);
  EXPECT_STREQ(robust::fault_site_name(robust::FaultSite::kServeCacheSpill),
               "serve.cache-spill");
  EXPECT_STREQ(robust::fault_site_name(robust::FaultSite::kServeCacheRecover),
               "serve.cache-recover");
  EXPECT_STREQ(robust::fault_site_name(robust::FaultSite::kServeScrub), "serve.scrub");
}

TEST(ServeFault, SpillFaultLosesDurabilityNotTheInMemoryEntry) {
  const std::string dir = fresh_cache_dir();
  {
    ResultCache cache(1 << 20, {dir, false});
    cache.recover();
    FaultPlanGuard fault("site=serve.cache-spill,kind=throw");
    cache.insert(1, durable_result("volatile"));
    EXPECT_NE(cache.lookup(1), nullptr);  // the in-memory insert held
    const auto c = cache.counters();
    EXPECT_EQ(c.spilled, 0u);
    EXPECT_EQ(c.spill_errors, 1u);
  }
  ResultCache warm(1 << 20, {dir, false});
  EXPECT_EQ(warm.recover().recovered, 0u);  // the append was the loss
  std::filesystem::remove_all(dir);
}

TEST(ServeFault, RecoverFaultQuarantinesTheRecordItHit) {
  const std::string dir = fresh_cache_dir();
  write_spill_file(spill_path(dir), {{1, *durable_result("a")}, {2, *durable_result("b")}});
  ResultCache warm(1 << 20, {dir, false});
  FaultPlanGuard fault("site=serve.cache-recover,kind=throw");
  const auto rs = warm.recover();
  EXPECT_EQ(rs.recovered, 0u);
  EXPECT_EQ(rs.quarantined, 2u);  // every record hit the injected validator fault
  EXPECT_GT(std::filesystem::file_size(quarantine_path(dir)), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ServeFault, ScrubFaultAbortsThePassAndCountsNothing) {
  const std::string dir = fresh_cache_dir();
  ResultCache cache(1 << 20, {dir, false});
  cache.recover();
  cache.insert(1, durable_result("x"));
  FaultPlanGuard fault("site=serve.scrub,kind=throw");
  // The cache propagates (the Server's scrubber thread catches and logs).
  EXPECT_THROW(cache.scrub_once(), hps::Error);
  EXPECT_EQ(cache.counters().scrub_passes, 0u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Warm restart at the daemon level

TEST(ServeDaemon, RestartOnSameCacheDirComesBackWarmByteIdentical) {
  const std::string dir = fresh_cache_dir();
  Client::StudyReply first;
  {
    ServerOptions o = DaemonFixture::small();
    o.cache_dir = dir;
    DaemonFixture d(std::move(o));
    Client c = Client::connect_unix(d.path);
    first = c.study(tiny_study(271));
    ASSERT_EQ(first.summary.status, Status::kOk);
    const Stats st = c.stats();
    EXPECT_GE(st.cache_spilled, 1u);
    EXPECT_EQ(st.cache_recovered, 0u);
  }  // daemon 1 gone

  ServerOptions o = DaemonFixture::small();
  o.cache_dir = dir;
  DaemonFixture d2(std::move(o));
  Client c = Client::connect_unix(d2.path);
  const Stats st = c.stats();
  EXPECT_GE(st.cache_recovered, 1u);
  EXPECT_EQ(st.cache_quarantined, 0u);

  const auto again = c.study(tiny_study(271));
  ASSERT_EQ(again.summary.status, Status::kOk);
  EXPECT_TRUE(again.summary.cache_hit);       // never recomputed
  EXPECT_EQ(again.records, first.records);    // byte-identical across restart
  EXPECT_EQ(c.stats().studies_run, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ServeDaemon, ScrubberThreadRunsAgainstALiveDaemon) {
  const std::string dir = fresh_cache_dir();
  ServerOptions o = DaemonFixture::small();
  o.cache_dir = dir;
  o.scrub_interval_ms = 20;
  DaemonFixture d(std::move(o));
  Client c = Client::connect_unix(d.path);
  ASSERT_EQ(c.study(tiny_study(281)).summary.status, Status::kOk);
  // A few scrub intervals: passes accumulate, nothing is corrupt.
  Stats st{};
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    st = c.stats();
    if (st.cache_scrub_passes >= 2) break;
  }
  EXPECT_GE(st.cache_scrub_passes, 2u);
  EXPECT_EQ(st.cache_scrub_corrupt, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ServeListener, LockFileOutlivesTheDaemonAndRestartSucceeds) {
  const std::string path = "/tmp/hps_serve_lock_" + std::to_string(::getpid()) + "_" +
                           std::to_string(DaemonFixture::counter()++) + ".sock";
  ::unlink(path.c_str());
  for (int round = 0; round < 2; ++round) {
    ServerOptions o = DaemonFixture::small();
    o.socket_path = path;
    o.install_signal_guard = false;
    Server server(std::move(o));
    std::thread runner([&] { server.run(); });
    Client c = Client::connect_unix(path);
    EXPECT_TRUE(c.ping());
    EXPECT_TRUE(std::filesystem::exists(path + ".lock"));
    server.shutdown();
    runner.join();
    // The lock file deliberately survives a shutdown (unlinking it would
    // reopen the very race it guards); the kernel released the flock when
    // the holder went away, so round 2 rebinds the same path cleanly.
    EXPECT_TRUE(std::filesystem::exists(path + ".lock"));
  }
  ::unlink((path + ".lock").c_str());
  robust::clear_interrupt();
}

// ---------------------------------------------------------------------------
// Protocol v4: durability counters stay backward compatible

TEST(ServeProtocol, StatsV4FieldsRoundTrip) {
  Stats st;
  st.requests = 3;
  st.cache_spilled = 11;
  st.cache_recovered = 22;
  st.cache_quarantined = 33;
  st.cache_recovery_ms = 44;
  st.cache_scrub_passes = 55;
  st.cache_scrub_corrupt = 66;
  const Stats gt = decode_stats(encode_stats(st));
  EXPECT_EQ(gt.cache_spilled, 11u);
  EXPECT_EQ(gt.cache_recovered, 22u);
  EXPECT_EQ(gt.cache_quarantined, 33u);
  EXPECT_EQ(gt.cache_recovery_ms, 44u);
  EXPECT_EQ(gt.cache_scrub_passes, 55u);
  EXPECT_EQ(gt.cache_scrub_corrupt, 66u);
  const std::string j = stats_to_json(st);
  EXPECT_NE(j.find("\"cache_recovered\":22"), std::string::npos);
  EXPECT_NE(j.find("\"cache_scrub_corrupt\":66"), std::string::npos);
}

TEST(ServeProtocol, V3StatsPayloadStillDecodesWithV4FieldsDefaulted) {
  Stats st;
  st.requests = 9;
  st.cache_spilled = 123;  // v4-only — must vanish from a v3 payload
  std::string v3 = encode_stats(st);
  ASSERT_GT(v3.size(), 6u * 8u);
  v3.resize(v3.size() - 6 * 8);  // drop the six appended v4 u64s
  v3[0] = 3;                     // little-endian u32 version: 4 -> 3
  const Stats gt = decode_stats(v3);
  EXPECT_EQ(gt.requests, 9u);
  EXPECT_EQ(gt.cache_spilled, 0u);
  EXPECT_EQ(gt.cache_recovery_ms, 0u);
  // A v3 payload that kept the v4 tail is garbage, not half-valid.
  std::string v3_trailing = encode_stats(st);
  v3_trailing[0] = 3;
  EXPECT_THROW(decode_stats(v3_trailing), hps::Error);
}

// ---------------------------------------------------------------------------
// Client failover across endpoints

TEST(ResilientClient, FailsOverToTheNextEndpointOnConnectFailure) {
  const std::string dead = "/tmp/hps_serve_dead_" + std::to_string(::getpid()) + ".sock";
  ::unlink(dead.c_str());
  DaemonFixture d(DaemonFixture::small());

  ClientPolicy policy;
  policy.max_retries = 3;
  policy.backoff_ms = 1;
  policy.backoff_max_ms = 2;
  policy.breaker_failures = 5;
  ResilientClient rc = ResilientClient::endpoints(
      {{false, dead, 0}, {false, d.path, 0}}, policy);
  EXPECT_EQ(rc.endpoint_count(), 2u);

  const auto reply = rc.study(tiny_study(291));
  EXPECT_EQ(reply.summary.status, Status::kOk);
  EXPECT_EQ(rc.failovers(), 1);

  // Success sticks: the next exchange goes straight to the live endpoint.
  const auto again = rc.study(tiny_study(291));
  EXPECT_EQ(again.summary.status, Status::kOk);
  EXPECT_TRUE(again.summary.cache_hit);
  EXPECT_EQ(rc.last_attempts(), 1);
  EXPECT_EQ(rc.failovers(), 1);
}

TEST(ResilientClient, CircuitOpenOnAllEndpointsFailsFast) {
  const std::string d1 = "/tmp/hps_serve_d1_" + std::to_string(::getpid()) + ".sock";
  const std::string d2 = "/tmp/hps_serve_d2_" + std::to_string(::getpid()) + ".sock";
  ::unlink(d1.c_str());
  ::unlink(d2.c_str());
  ClientPolicy policy;
  policy.max_retries = 3;
  policy.backoff_ms = 1;
  policy.backoff_max_ms = 2;
  policy.breaker_failures = 1;  // one failure opens each endpoint's breaker
  policy.breaker_cooldown_ms = 60000;
  ResilientClient rc = ResilientClient::endpoints({{false, d1, 0}, {false, d2, 0}}, policy);
  EXPECT_THROW(rc.study(tiny_study(301)), hps::Error);
  EXPECT_THROW(rc.study(tiny_study(301)), CircuitOpenError);
}

/// Minimal hand-rolled endpoint: accepts connections and answers every
/// request with a canned terminal frame — a kOk summary (a stand-in healthy
/// peer) or a kDraining reject (a daemon frozen mid-rolling-restart, which a
/// real Server only is for one racy poll tick).
struct FakeEndpoint {
  std::string path;
  int lfd = -1;
  std::thread t;
  std::atomic<int> served{0};

  explicit FakeEndpoint(Status reply_status = Status::kOk) {
    path = "/tmp/hps_serve_fake_" + std::to_string(::getpid()) + "_" +
           std::to_string(DaemonFixture::counter()++) + ".sock";
    ::unlink(path.c_str());
    lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(lfd, 8) != 0)
      throw hps::Error("fake endpoint setup failed");
    t = std::thread([this, reply_status] {
      for (;;) {
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) return;  // listener closed: test over
        ipc::Message m;
        if (ipc::read_message(fd, m) == ipc::ReadStatus::kMessage) {
          Summary s;
          s.status = reply_status;
          s.detail = reply_status == Status::kOk ? "served by the fake peer"
                                                 : "daemon is draining";
          const ipc::MsgType type = reply_status == Status::kOk
                                        ? ipc::MsgType::kSummary
                                        : ipc::MsgType::kReject;
          ipc::write_frame(fd, {type, encode_summary(s)});
          served.fetch_add(1);
        }
        ::close(fd);
      }
    });
  }
  ~FakeEndpoint() {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
    if (t.joinable()) t.join();
    ::unlink(path.c_str());
  }
};

TEST(ResilientClient, DrainingRejectFailsOverToAHealthyPeer) {
  FakeEndpoint draining(Status::kDraining);
  DaemonFixture d(DaemonFixture::small());

  ClientPolicy policy;
  policy.max_retries = 3;
  policy.backoff_ms = 1;
  policy.backoff_max_ms = 2;
  ResilientClient rc = ResilientClient::endpoints(
      {{false, draining.path, 0}, {false, d.path, 0}}, policy);

  // The preferred endpoint rejects with kDraining: never-admitted work, so
  // the client retries for free on the next endpoint — no backoff sleep, no
  // resend risk — and the real daemon answers.
  const auto reply = rc.study(tiny_study(311));
  EXPECT_EQ(reply.summary.status, Status::kOk);
  EXPECT_GT(reply.records.size(), 0u);
  EXPECT_EQ(rc.draining_retries(), 1);
  EXPECT_EQ(rc.failovers(), 1);
  EXPECT_EQ(draining.served.load(), 1);
}

// ---------------------------------------------------------------------------
// Serve-ledger re-probe after transient failure

TEST(ServeLedger, ReprobeReenablesAppendsAfterTransientFailure) {
  const std::string path = "/tmp/hps_serve_reprobe_" + std::to_string(::getpid()) + "_" +
                           std::to_string(DaemonFixture::counter()++) + ".jsonl";
  std::remove(path.c_str());
  obs::ServeLedgerWriter w(path);
  w.set_reprobe_policy(/*records=*/2, /*seconds=*/0);  // count-triggered only
  w.force_failure_for_testing();

  obs::ServeRecord rec;
  rec.trace_id = 7;
  w.append(rec);  // lost: latched, 1 since probe
  w.append(rec);  // lost: 2 since probe — next append is the re-probe
  EXPECT_EQ(w.write_errors(), 2u);
  EXPECT_EQ(w.records_written(), 0u);

  w.append(rec);  // re-probe: the file is healthy, so this line lands
  EXPECT_EQ(w.write_errors(), 2u);  // monotonic: nothing un-counted
  EXPECT_EQ(w.records_written(), 1u);
  w.append(rec);  // healed: normal appends resume
  EXPECT_EQ(w.records_written(), 2u);

  EXPECT_EQ(obs::load_serve_ledger(path).requests.size(), 2u);
  std::remove(path.c_str());
}

TEST(ServeLedger, ReprobeStaysLatchedWhileTheDiskIsStillFull) {
  if (!std::ofstream("/dev/full").is_open()) GTEST_SKIP() << "/dev/full unavailable";
  obs::ServeLedgerWriter w("/dev/full");
  w.set_reprobe_policy(/*records=*/1, /*seconds=*/0);  // re-probe every append
  obs::ServeRecord rec;
  rec.trace_id = 9;
  w.append(rec);  // first failure latches
  for (int i = 0; i < 3; ++i) w.append(rec);  // each re-probe reopens, still ENOSPC
  EXPECT_EQ(w.write_errors(), 4u);  // strictly monotonic, every line counted
  EXPECT_EQ(w.records_written(), 0u);
}

TEST(ServeLedger, ZeroZeroPolicyRestoresThePermanentLatch) {
  const std::string path = "/tmp/hps_serve_latch_" + std::to_string(::getpid()) + "_" +
                           std::to_string(DaemonFixture::counter()++) + ".jsonl";
  std::remove(path.c_str());
  obs::ServeLedgerWriter w(path);
  w.set_reprobe_policy(0, 0);
  w.force_failure_for_testing();
  obs::ServeRecord rec;
  for (int i = 0; i < 5; ++i) w.append(rec);
  EXPECT_EQ(w.write_errors(), 5u);  // never re-probes, even on a healthy file
  EXPECT_EQ(w.records_written(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hps::serve
