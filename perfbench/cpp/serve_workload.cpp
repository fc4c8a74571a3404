// serve-mixed: an in-process daemon on a private Unix socket under an
// open-loop mix of cache hits (a Zipf-popular hot set warmed during set-up)
// and misses (never-seen seeds, each a small study that is computed, cached
// and appended to the spill file).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "openloop.hpp"
#include "percentile.hpp"
#include "serve/client.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hps;
using Clock = std::chrono::steady_clock;

// The study behind every request: two 64-rank corpus traces through all
// four schemes, about 70 ms of simulation on a 4-core x86 host.
constexpr int kStudyLimit = 2;
constexpr double kStudyScale = 0.25;
constexpr std::size_t kRecordsPerStudy = kStudyLimit * 4;

// Load: misses arrive at about a third of what two dispatchers can compute
// (at half, queueing turned host slowdowns into a 13% spread of the miss
// median across runs); hits are most of the traffic. One connection carries
// hits and three carry misses, each open for the whole load, so a hit never
// queues behind a miss in the client and no request pays for a connect.
constexpr double kRatePerS = 110;
constexpr double kMissShare = 0.08;
constexpr int kHotSet = 16;
constexpr int kHitLanes = 1;
constexpr int kMissLanes = 3;
constexpr int kSetups = 3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t hot_seed(std::uint64_t seed, int k) {
  return (seed << 20) | static_cast<std::uint64_t>(k);
}
std::uint64_t miss_seed(std::uint64_t seed, std::uint64_t i) {
  return (seed << 20) | (std::uint64_t{1} << 19) | i;
}

serve::Request study_request(std::uint64_t seed) {
  serve::Request req;
  req.kind = serve::Request::Kind::kStudy;
  req.seed = seed;
  req.duration_scale = kStudyScale;
  req.limit = kStudyLimit;
  return req;
}

/// A computed study reply is right when it is complete and every record is
/// a success.
bool complete_study(const serve::Client::StudyReply& r) {
  return r.summary.status == serve::Status::kOk && r.summary.degraded == 0 &&
         r.records.size() == kRecordsPerStudy;
}

/// Sum of the MFACT rows' wall_seconds in a study's ledger lines.
double mfact_seconds(const std::vector<std::string>& records) {
  double s = 0;
  for (const std::string& line : records) {
    if (line.find("\"scheme\":\"mfact\"") == std::string::npos) continue;
    const std::size_t at = line.find("\"wall_seconds\":");
    if (at != std::string::npos) s += std::strtod(line.c_str() + at + 15, nullptr);
  }
  return s;
}

/// One daemon with its serving thread.
struct Daemon {
  std::string socket;
  std::unique_ptr<serve::Server> server;
  std::thread runner;

  Daemon(const std::string& dir) : socket(dir + "/d.sock") {
    std::filesystem::create_directories(dir);
    serve::ServerOptions so;
    so.socket_path = socket;
    so.dispatchers = 2;
    so.threads_per_study = 1;
    so.queue_capacity = 64;
    so.cache_dir = dir + "/cache";
    so.cache_fsync = false;
    so.install_signal_guard = false;
    server = std::make_unique<serve::Server>(std::move(so));
    runner = std::thread([this] { server->run(); });
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    server->shutdown();
    runner.join();
    // serve::Server's detached connection threads notify its condition
    // variable after releasing the lock run() waits on, so run() can return
    // while one is still inside notify_all(). Give them a moment before the
    // server (and that condition variable) is destroyed; this narrows the
    // race in serve::Server, it does not close it.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  bool wait_ready() const {
    for (int i = 0; i < 500; ++i) {
      try {
        if (serve::Client::connect_unix(socket).ping()) return true;
      } catch (const std::exception&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  serve::Client connect() const { return serve::Client::connect_unix(socket); }
};

/// Set-up: start a daemon and warm the hot set over two connections, one per
/// dispatcher. Fills `warm` with each hot seed's reply; returns failures.
std::uint64_t warm_up(const Daemon& d, std::uint64_t seed,
                      std::vector<serve::Client::StudyReply>& warm) {
  if (!d.wait_ready()) return kHotSet;
  warm.assign(kHotSet, {});
  std::atomic<int> next{0};
  std::atomic<std::uint64_t> failed{0};
  const auto worker = [&] {
    std::optional<serve::Client> c;
    for (int k = next++; k < kHotSet; k = next++) {
      try {
        if (!c) c = d.connect();
        warm[static_cast<std::size_t>(k)] = c->study(study_request(hot_seed(seed, k)));
        if (!complete_study(warm[static_cast<std::size_t>(k)])) ++failed;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: warm-up of hot seed %d: %s\n", k, e.what());
        c.reset();
        ++failed;
      }
    }
  };
  std::thread a(worker), b(worker);
  a.join();
  b.join();
  return failed;
}

/// Histogram of what happened between two snapshots of one daemon metric.
telemetry::HistogramData delta(const serve::MetricsReply& before,
                               const serve::MetricsReply& after, const std::string& name) {
  telemetry::HistogramData d;
  const serve::MetricsReply::Hist* a = after.find(name);
  if (a == nullptr) return d;
  d = a->data;
  if (const serve::MetricsReply::Hist* b = before.find(name)) {
    for (std::size_t i = 0; i < d.buckets.size() && i < b->data.buckets.size(); ++i)
      d.buckets[i] -= b->data.buckets[i];
    d.count -= b->data.count;
    d.sum -= b->data.sum;
  }
  return d;
}

/// What one request brought back, filled by its lane.
struct Reply {
  double study_s = 0;      ///< Summary.wall_seconds
  double mfact_s = 0;
  std::size_t bytes = 0;   ///< record payload bytes
};

}  // namespace

RunResult run_serve_mixed(const Options& opts) {
  RunResult r;
  const std::string root =
      opts.work_dir + "/serve-" + std::to_string(opts.seed) + "-" + std::to_string(::getpid());

  // Set-up, repeated: the median is the set-up time; the last daemon serves.
  std::vector<double> setup_times;
  std::unique_ptr<Daemon> daemon;
  std::vector<serve::Client::StudyReply> warm;
  for (int rep = 0; rep < kSetups; ++rep) {
    daemon.reset();
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(root + "/" + std::to_string(rep));
    const std::uint64_t failed = warm_up(*daemon, opts.seed, warm);
    setup_times.push_back(since(t0));
    r.attempted += kHotSet;
    r.failed += failed;
  }

  LoadPlan plan;
  plan.seed = opts.seed;
  plan.seconds = opts.seconds;
  plan.rate_per_s = kRatePerS;
  plan.miss_share = kMissShare;
  plan.hot_set = kHotSet;
  const std::vector<PlannedRequest> schedule = make_schedule(plan);
  std::vector<Reply> replies(schedule.size());

  // One connection per lane, opened before the load; a lane reconnects only
  // after a transport error.
  std::vector<std::optional<serve::Client>> lanes(kHitLanes + kMissLanes);
  for (std::optional<serve::Client>& c : lanes) c = daemon->connect();
  const serve::MetricsReply m0 = daemon->connect().metrics();
  telemetry::Registry reg;  // the run's own, for the request spans
  reg.set_tracing(opts.trace);
  // The loop's clock starts a few microseconds after this; request spans
  // may sit that much early on the registry's timeline.
  const std::int64_t load_start_ns = reg.now_ns();

  const std::vector<Sent> sent = run_open_loop(
      schedule, kHitLanes, kMissLanes, [&](int lane, const PlannedRequest& p) {
        const std::size_t i = static_cast<std::size_t>(&p - schedule.data());
        std::optional<serve::Client>& c = lanes[static_cast<std::size_t>(lane)];
        if (!c) c = daemon->connect();
        const serve::Request req = study_request(
            p.miss ? miss_seed(opts.seed, p.miss_index) : hot_seed(opts.seed, p.hot_index));
        serve::Client::StudyReply reply;
        try {
          reply = c->study(req);
        } catch (const std::exception&) {
          c.reset();
          throw;
        }
        Reply& out = replies[i];
        out.study_s = reply.summary.wall_seconds;
        out.mfact_s = mfact_seconds(reply.records);
        for (const std::string& rec : reply.records) out.bytes += rec.size();
        if (p.miss) return complete_study(reply) && !reply.summary.cache_hit;
        // A hit must be the warm-up reply for its seed, byte for byte.
        return reply.summary.status == serve::Status::kOk &&
               reply.records == warm[static_cast<std::size_t>(p.hot_index)].records;
      });

  const serve::MetricsReply m1 = daemon->connect().metrics();
  lanes.clear();
  daemon.reset();
  std::error_code ec;
  std::filesystem::remove_all(root, ec);

  std::vector<double> hit_ms, miss_ms, late_ms, overhead_ms, wall_s, mfact_s, reply_bytes;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const Sent& s = sent[i];
    ++r.attempted;
    if (!s.ok) {
      ++r.failed;
      continue;
    }
    late_ms.push_back(lateness_ms(s));
    if (s.miss) {
      miss_ms.push_back(latency_ms(s));
      overhead_ms.push_back((s.done_s - s.sent_s - replies[i].study_s) * 1e3);
      wall_s.push_back(replies[i].study_s);
      mfact_s.push_back(replies[i].mfact_s);
    } else {
      hit_ms.push_back(latency_ms(s));
      reply_bytes.push_back(static_cast<double>(replies[i].bytes));
    }
  }
  const Percentile hit50 = tail_percentile(hit_ms, 50);
  const Percentile hit99 = tail_percentile(hit_ms, 99);
  const Percentile miss50 = tail_percentile(miss_ms, 50);
  const Percentile miss90 = tail_percentile(miss_ms, 90);
  std::fprintf(stderr,
               "perfbench: serve-mixed seed %llu: %zu hits (p%.2f from %zu beyond), %zu misses "
               "(p%.2f from %zu beyond), %llu failed, median lateness %.3f ms\n",
               static_cast<unsigned long long>(opts.seed), hit_ms.size(), hit99.pct,
               hit99.beyond, miss_ms.size(), miss90.pct, miss90.beyond,
               static_cast<unsigned long long>(r.failed), median(late_ms));

  Metrics& m = opts.trace ? r.per_layer : r.end_to_end;
  m["setup_s"] = {median(setup_times), "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  // A study as the client gets it: a miss, from due time to the last record.
  m["study_s"] = {miss50.value / 1e3, "s"};
  m["mfact_s"] = {median(mfact_s), "s"};
  m["hit_p50_ms"] = {hit50.value, "ms"};
  m["hit_p99_ms"] = {hit99.value, "ms"};
  m["miss_p50_ms"] = {miss50.value, "ms"};
  m["miss_p90_ms"] = {miss90.value, "ms"};
  if (!opts.trace) return r;

  const auto phase_ms = [&](const char* phase) {
    return delta(m0, m1, std::string(serve::kPhaseMetricPrefix) + phase).quantile(0.5) * 1e3;
  };
  for (const char* phase :
       {"decode", "cache_lookup", "stream", "queue_wait", "execute", "cache_insert"})
    m[std::string("serve.") + phase + "_ms"] = {phase_ms(phase), "ms"};
  m["serve.reply_bytes"] = {median(reply_bytes), "bytes"};
  m["serve.overhead_ms"] = {median(overhead_ms), "ms"};
  m["serve.study_wall_ms"] = {median(wall_s) * 1e3, "ms"};
  const serve::Stats& a = m0.stats;
  const serve::Stats& b = m1.stats;
  const double hits = static_cast<double>(b.cache_hits - a.cache_hits);
  const double misses = static_cast<double>(b.cache_misses - a.cache_misses);
  m["serve.hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0, "share"};
  m["serve.spilled"] = {static_cast<double>(b.cache_spilled - a.cache_spilled), "count"};
  m["serve.coalesced"] = {static_cast<double>(b.coalesced - a.coalesced), "count"};
  m["serve.rejected"] = {
      static_cast<double>((b.rejected_queue_full + b.rejected_draining + b.rejected_bad +
                           b.rejected_conn_limit + b.rejected_expired + b.rejected_slow_read) -
                          (a.rejected_queue_full + a.rejected_draining + a.rejected_bad +
                           a.rejected_conn_limit + a.rejected_expired + a.rejected_slow_read)),
      "count"};
  m["loadgen.late_p99_ms"] = {tail_percentile(late_ms, 99).value, "ms"};
  m["loadgen.backlog_max"] = {static_cast<double>(max_backlog(sent)), "count"};
  m["loadgen.hits"] = {static_cast<double>(hit_ms.size()), "count"};
  m["loadgen.misses"] = {static_cast<double>(miss_ms.size()), "count"};
  m["loadgen.hit_tail_pct"] = {hit99.pct, "%"};
  m["loadgen.miss_tail_pct"] = {miss90.pct, "%"};

  {
    const auto span = [&](const char* name, double from_s, double to_s) {
      telemetry::SpanRecord rec;
      rec.name = name;
      rec.cat = "perfbench";
      rec.start_ns = load_start_ns + static_cast<std::int64_t>(from_s * 1e9);
      rec.dur_ns = static_cast<std::int64_t>((to_s - from_s) * 1e9);
      reg.record_span(std::move(rec));
    };
    reg.set_span_capacity(3 * sent.size() + 1);  // keep every request's spans
    for (const Sent& s : sent) {
      span(s.miss ? "request.miss" : "request.hit", s.due_s, s.done_s);
      span("loadgen.wait", s.due_s, s.sent_s);
      span("exchange", s.sent_s, s.done_s);
    }
    m["trace.spans"] = {static_cast<double>(reg.spans().size()), "count"};
    if (!opts.spans_path.empty() && !write_spans(reg, opts.spans_path))
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n", opts.spans_path.c_str());
  }
  return r;
}

}  // namespace perfbench
