#include "core/study.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/cpus.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "robust/fault.hpp"
#include "robust/interrupt.hpp"
#include "robust/journal.hpp"
#include "robust/supervisor.hpp"
#include "telemetry/export.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/telemetry.hpp"

namespace hps::core {

namespace {

// v6: SchemeOutcome gained `signal` (terminating signal of a crashed
// isolated worker); FailKind gained kCrash/kTimeout.
constexpr std::uint32_t kCacheVersion = 6;
constexpr char kCacheMagic[4] = {'H', 'P', 'S', 'C'};

template <typename T>
void put(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T get(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  HPS_REQUIRE(static_cast<bool>(is), "study cache truncated");
  return v;
}

void put_string(std::ostream& os, const std::string& s) {
  put<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string get_string(std::istream& is) {
  const auto n = get<std::uint32_t>(is);
  HPS_REQUIRE(n < (1u << 20), "study cache string too large");
  std::string s(n, '\0');
  is.read(s.data(), n);
  HPS_REQUIRE(static_cast<bool>(is), "study cache truncated");
  return s;
}

void put_outcome(std::ostream& os, const TraceOutcome& o) {
  put<std::int32_t>(os, o.spec_id);
  put_string(os, o.app);
  put_string(os, o.machine);
  put<Rank>(os, o.ranks);
  put<std::uint64_t>(os, o.events);
  put<SimTime>(os, o.measured_total);
  put<SimTime>(os, o.measured_comm);
  put(os, o.features);
  put<std::int32_t>(os, static_cast<std::int32_t>(o.app_class));
  put<std::int32_t>(os, static_cast<std::int32_t>(o.group));
  put<double>(os, o.bw_sensitivity);
  put<double>(os, o.lat_sensitivity);
  for (const auto& s : o.scheme) {
    put<std::uint8_t>(os, s.attempted ? 1 : 0);
    put<std::uint8_t>(os, s.ok ? 1 : 0);
    put_string(os, s.error);
    put<std::uint8_t>(os, static_cast<std::uint8_t>(s.fail_kind));
    put<std::int32_t>(os, s.signal);
    put<SimTime>(os, s.total_time);
    put<SimTime>(os, s.comm_time);
    put<double>(os, s.wall_seconds);
    put(os, s.components);
    put<std::uint64_t>(os, s.des_events);
    put(os, s.net);
  }
}

TraceOutcome get_outcome(std::istream& is) {
  TraceOutcome o;
  o.spec_id = get<std::int32_t>(is);
  o.app = get_string(is);
  o.machine = get_string(is);
  o.ranks = get<Rank>(is);
  o.events = get<std::uint64_t>(is);
  o.measured_total = get<SimTime>(is);
  o.measured_comm = get<SimTime>(is);
  o.features = get<trace::FeatureVector>(is);
  o.app_class = static_cast<mfact::AppClass>(get<std::int32_t>(is));
  o.group = static_cast<mfact::SensitivityGroup>(get<std::int32_t>(is));
  o.bw_sensitivity = get<double>(is);
  o.lat_sensitivity = get<double>(is);
  for (auto& s : o.scheme) {
    s.attempted = get<std::uint8_t>(is) != 0;
    s.ok = get<std::uint8_t>(is) != 0;
    s.error = get_string(is);
    s.fail_kind = static_cast<robust::FailKind>(get<std::uint8_t>(is));
    s.signal = get<std::int32_t>(is);
    s.total_time = get<SimTime>(is);
    s.comm_time = get<SimTime>(is);
    s.wall_seconds = get<double>(is);
    s.components = get<obs::ComponentTimes>(is);
    s.des_events = get<std::uint64_t>(is);
    s.net = get<simnet::NetStats>(is);
  }
  return o;
}

/// Outcome for a trace that never produced one in-process: an interrupted
/// study (kSkipped, not attempted) or a quarantined worker crash/timeout
/// (attempted — the worker died trying).
TraceOutcome synthesize_outcome(const workloads::TraceSpec& spec, robust::FailKind kind,
                                const std::string& error, int signal, bool attempted) {
  TraceOutcome o;
  o.spec_id = spec.id;
  o.app = spec.app;
  o.machine = spec.params.machine;
  o.ranks = spec.params.ranks;
  for (auto& s : o.scheme) {
    s.attempted = attempted;
    s.ok = false;
    s.error = error;
    s.fail_kind = kind;
    s.signal = signal;
  }
  return o;
}

}  // namespace

std::uint64_t study_cache_key(const StudyOptions& opts) {
  std::uint64_t h = kCacheVersion;
  h = mix_seed(h, obs::kObsSchemaVersion);
  h = mix_seed(h, opts.corpus.seed);
  h = mix_seed(h, static_cast<std::uint64_t>(opts.corpus.duration_scale * 1e6));
  h = mix_seed(h, static_cast<std::uint64_t>(opts.corpus.limit));
  h = mix_seed(h, opts.run.sst30_compat ? 1 : 0);
  h = mix_seed(h, static_cast<std::uint64_t>(opts.run.timing_repeats));
  h = mix_seed(h, opts.run.replay.eager_threshold);
  h = mix_seed(h, opts.run.replay.packet_size);
  h = mix_seed(h, opts.run.replay.packetflow_packet_size);
  // Budgets change outcomes (a tripped scheme degrades to a budget failure),
  // so budgeted and unbudgeted runs must never share cache entries.
  h = mix_seed(h, static_cast<std::uint64_t>(opts.run.budget.wall_deadline_seconds * 1e6));
  h = mix_seed(h, opts.run.budget.max_des_events);
  h = mix_seed(h, static_cast<std::uint64_t>(opts.run.budget.virtual_horizon));
  // Mixed only when set so every pre-existing key is unchanged: an
  // MFACT-only degraded run must never share an entry with the full study.
  if (opts.run.mfact_only) h = mix_seed(h, 0x6d666163746f6e6cULL);  // "mfactonl"
  return h;
}

std::string serialize_outcome(const TraceOutcome& o) {
  std::ostringstream os(std::ios::binary);
  put_outcome(os, o);
  return std::move(os).str();
}

TraceOutcome deserialize_outcome(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  TraceOutcome o = get_outcome(is);
  HPS_REQUIRE(is.peek() == std::char_traits<char>::eof(),
              "outcome record has trailing bytes");
  return o;
}

void save_outcomes(const std::vector<TraceOutcome>& outcomes, const std::string& path,
                   std::uint64_t key) {
  // Write-temp-then-rename: a crash mid-save leaves the previous cache (or
  // no cache) in place, never a truncated file under the real name.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    HPS_REQUIRE(os.is_open(), "cannot write study cache: " + tmp);
    os.write(kCacheMagic, 4);
    put<std::uint64_t>(os, key);
    put<std::uint32_t>(os, static_cast<std::uint32_t>(outcomes.size()));
    for (const auto& o : outcomes) put_outcome(os, o);
    os.flush();
    HPS_REQUIRE(static_cast<bool>(os), "study cache write failed");
  }
  // Rename alone only survives a process crash. For power loss the data must
  // be on disk before the rename points at it, and the rename itself lives
  // in the directory, so: fsync(tmp), rename, fsync(dir). Best effort — a
  // filesystem that rejects fsync still gets the process-crash guarantee.
  robust::sync_file(tmp);
  HPS_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
              "cannot move study cache into place: " + path);
  robust::sync_parent_dir(path);
}

std::optional<std::vector<TraceOutcome>> load_outcomes(const std::string& path,
                                                       std::uint64_t key) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) return std::nullopt;
  try {
    char magic[4];
    is.read(magic, 4);
    if (!is || std::memcmp(magic, kCacheMagic, 4) != 0) return std::nullopt;
    if (get<std::uint64_t>(is) != key) return std::nullopt;
    const auto n = get<std::uint32_t>(is);
    if (n > 100000) return std::nullopt;
    std::vector<TraceOutcome> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(get_outcome(is));
    return out;
  } catch (const std::exception&) {
    // Treat any read failure as a cache miss, not just hps::Error: a
    // truncated or bit-flipped file can also surface as std::bad_alloc or
    // std::length_error from a corrupt length prefix.
    return std::nullopt;
  }
}

std::vector<obs::LedgerRecord> ledger_records(const std::vector<TraceOutcome>& outcomes,
                                              std::uint64_t study_key) {
  char keyhex[24];
  std::snprintf(keyhex, sizeof keyhex, "%016llx",
                static_cast<unsigned long long>(study_key));
  std::vector<obs::LedgerRecord> records;
  records.reserve(outcomes.size() * static_cast<std::size_t>(Scheme::kNumSchemes));
  for (const TraceOutcome& o : outcomes) {
    for (int si = 0; si < static_cast<int>(Scheme::kNumSchemes); ++si) {
      const auto scheme = static_cast<Scheme>(si);
      const SchemeOutcome& so = o.of(scheme);
      obs::LedgerRecord rec;
      rec.study_key = keyhex;
      rec.spec_id = o.spec_id;
      rec.app = o.app;
      rec.machine = o.machine;
      rec.ranks = o.ranks;
      rec.events = o.events;
      rec.scheme = scheme_name(scheme);
      rec.ok = so.ok;
      rec.error = so.error;
      rec.fail_kind = robust::fail_kind_name(so.fail_kind);
      rec.signal = so.signal;
      rec.predicted_total_ns = so.total_time;
      rec.predicted_comm_ns = so.comm_time;
      rec.measured_total_ns = o.measured_total;
      if (scheme != Scheme::kMfact) {
        if (const auto d = o.diff_total(scheme)) rec.diff_total = *d;
        if (const auto d = o.diff_comm(scheme)) rec.diff_comm = *d;
      }
      rec.components = so.components;
      rec.des_events = so.des_events;
      rec.net_messages = so.net.messages;
      rec.net_bytes = so.net.bytes;
      rec.net_packets = so.net.packets;
      rec.net_rate_updates = so.net.rate_updates;
      rec.net_ripple_iterations = so.net.ripple_iterations;
      rec.net_stalls = so.net.queue_events;
      rec.net_max_active = so.net.max_active;
      rec.wall_seconds = so.wall_seconds;
      records.push_back(std::move(rec));
    }
  }
  return records;
}

std::string default_cache_path(const std::string& tag) {
  const char* dir = std::getenv("HPS_CACHE_DIR");
  std::string base = dir != nullptr ? dir : "/tmp";
  return base + "/hpcsweep_" + tag + ".cache";
}

StudyResult run_study(const StudyOptions& opts) {
  telemetry::init_from_env();
  robust::init_faults_from_env();
  auto& reg = telemetry::Registry::global();
  // Serving-path request attribution: every span below (including the study
  // span itself) carries the request's trace id. Nonzero ambient ids (a
  // caller that already scoped this thread) are preserved.
  const telemetry::TraceIdScope trace_scope(
      opts.trace_id != 0 ? opts.trace_id : telemetry::current_trace_id());
  telemetry::Span study_span(reg, "run_study", "study");

  StudyResult result;
  const std::uint64_t key = study_cache_key(opts);
  if (!opts.cache_path.empty() && !opts.force_recompute) {
    if (auto cached = load_outcomes(opts.cache_path, key)) {
      reg.counter("study.cache_hits").add(1);
      result.outcomes = std::move(*cached);
      result.from_cache = true;
      return result;
    }
  }
  reg.counter("study.cache_misses").add(1);

  const auto start = std::chrono::steady_clock::now();
  const auto specs = workloads::build_corpus_specs(opts.corpus);
  result.outcomes.resize(specs.size());

  // Crash-safe journal: restore every intact outcome a previous (killed) run
  // of the same study already computed, then append new ones as they finish.
  std::vector<char> have(specs.size(), 0);
  robust::JournalWriter journal;
  std::mutex journal_mu;
  if (!opts.journal_path.empty()) {
    char keyhex[24];
    std::snprintf(keyhex, sizeof keyhex, "%016llx", static_cast<unsigned long long>(key));
    const std::string jkey = keyhex;
    const robust::JournalContents prior = robust::read_journal(opts.journal_path, jkey);
    std::size_t restored = 0;
    if (prior.existed && prior.key_matched) {
      for (const std::string& rec : prior.records) {
        TraceOutcome o;
        try {
          o = deserialize_outcome(rec);
        } catch (const std::exception&) {
          break;  // framing was intact but the payload is not: stop trusting
        }
        const auto idx = static_cast<std::size_t>(o.spec_id);
        if (o.spec_id >= 0 && idx < specs.size() && specs[idx].id == o.spec_id &&
            have[idx] == 0) {
          result.outcomes[idx] = std::move(o);
          have[idx] = 1;
          ++restored;
        }
      }
    }
    if (restored > 0) {
      journal.open_resume(opts.journal_path, prior.valid_bytes);
      result.resumed_from_journal = static_cast<int>(restored);
      reg.counter("robust.resumed").add(restored);
    } else {
      journal.open_fresh(opts.journal_path, jkey);
    }
  }

  int nthreads = opts.threads;
  if (nthreads <= 0)
    nthreads = std::min(16, usable_cpus());
  // `threads` budgets the whole study: each worker holds a seat in it, and
  // a trace starts scheme helpers only with what the workers leave free —
  // with fewer traces than threads, or once workers run out of traces.
  SchemeThreads scheme_threads(nthreads);
  RunOptions run_opts = opts.run;
  run_opts.scheme_threads = &scheme_threads;
  nthreads = std::min<int>(nthreads, static_cast<int>(specs.size()));
  reg.gauge("study.threads").record(static_cast<std::uint64_t>(nthreads));

  // Cooperative SIGINT/SIGTERM: a signal trips a flag; workers stop claiming
  // traces, in-flight schemes unwind as FailKind::kSkipped, the ledger is
  // still flushed, and the journal stays in place so the next invocation
  // resumes. A second signal kills the process the traditional way.
  robust::StudySignalGuard signal_guard;

  telemetry::ProgressReporter progress(specs.size(), opts.progress);
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (have[i] != 0) progress.completed("(restored from journal)");

  if (opts.isolate == IsolateMode::kProcess) {
    // Supervised task index -> spec index (restored specs are not re-run).
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < specs.size(); ++i)
      if (have[i] == 0) todo.push_back(i);

    if (!todo.empty()) {
      robust::SupervisorOptions sup;
      sup.workers = nthreads;
      sup.max_retries = std::max(0, opts.retries);
      sup.rss_limit_mb = opts.rss_limit_mb;
      sup.watchdog_timeout_s = opts.watchdog_timeout_seconds;
      sup.trace_id = telemetry::current_trace_id();

      // The task payload is empty: a worker is a fork of this process and
      // inherits `specs`/`opts`, so env.task_index is all it needs. The
      // result payload is the cache codec — exactly the journal's record
      // format, so the hook can append it verbatim.
      const std::vector<std::string> tasks(todo.size());
      auto fn = [&](const std::string&, const robust::WorkerEnv& env) {
        return serialize_outcome(run_all_schemes(specs[todo[env.task_index]], run_opts));
      };
      auto on_result = [&](std::size_t k, const robust::TaskResult& r) {
        const workloads::TraceSpec& spec = specs[todo[k]];
        if (r.status == robust::TaskResult::Status::kOk && journal.is_open() &&
            !robust::interrupt_requested())
          journal.append(r.payload);
        char label[80];
        std::snprintf(label, sizeof label, "%-12s %5d ranks  [%s]", spec.app.c_str(),
                      spec.params.ranks, robust::task_status_name(r.status));
        progress.completed(label);
      };
      const auto task_results = robust::run_supervised(tasks, fn, sup, on_result);

      for (std::size_t k = 0; k < task_results.size(); ++k) {
        const std::size_t i = todo[k];
        const robust::TaskResult& r = task_results[k];
        switch (r.status) {
          case robust::TaskResult::Status::kOk:
            try {
              result.outcomes[i] = deserialize_outcome(r.payload);
            } catch (const std::exception& e) {
              result.outcomes[i] = synthesize_outcome(
                  specs[i], robust::FailKind::kCrash,
                  std::string("worker result undecodable: ") + e.what(), 0, true);
            }
            break;
          case robust::TaskResult::Status::kFailed:
            // The WorkerFn threw outside the scheme guards (e.g. the trace
            // generation phase hit the RLIMIT_AS ceiling).
            result.outcomes[i] = synthesize_outcome(
                specs[i],
                r.detail.find("bad_alloc") != std::string::npos ? robust::FailKind::kOom
                                                                : robust::FailKind::kError,
                r.detail, 0, true);
            break;
          case robust::TaskResult::Status::kCrash:
            result.outcomes[i] = synthesize_outcome(specs[i], robust::FailKind::kCrash,
                                                    r.detail, r.signal, true);
            break;
          case robust::TaskResult::Status::kTimeout:
            result.outcomes[i] = synthesize_outcome(specs[i], robust::FailKind::kTimeout,
                                                    r.detail, 0, true);
            break;
          case robust::TaskResult::Status::kSkipped:
            result.outcomes[i] = synthesize_outcome(
                specs[i], robust::FailKind::kSkipped,
                "study interrupted before this trace ran", 0, false);
            break;
        }
      }
    }
  } else {
    std::vector<char> computed(specs.size(), 0);
    std::atomic<std::size_t> next{0};
    auto worker = [&, trace_id = telemetry::current_trace_id()] {
      const telemetry::TraceIdScope worker_trace(trace_id);
      const SchemeThreads::Seat seat(scheme_threads);
      const telemetry::ScopedTimer busy(
          reg.histogram("study.worker_busy_seconds", telemetry::duration_bounds()));
      while (true) {
        if (robust::interrupt_requested()) return;  // stop claiming traces
        const std::size_t i = next.fetch_add(1);
        if (i >= specs.size()) return;
        if (have[i] != 0) continue;
        result.outcomes[i] = run_all_schemes(specs[i], run_opts);
        computed[i] = 1;
        // An interrupted trace carries kSkipped schemes: journaling it would
        // make the resumed run restore the hole instead of recomputing it.
        if (journal.is_open() && !robust::interrupt_requested()) {
          const std::string rec = serialize_outcome(result.outcomes[i]);
          const std::lock_guard<std::mutex> lk(journal_mu);
          journal.append(rec);
        }
        char label[80];
        std::snprintf(label, sizeof label, "%-12s %5d ranks  %8llu events",
                      specs[i].app.c_str(), specs[i].params.ranks,
                      static_cast<unsigned long long>(result.outcomes[i].events));
        progress.completed(label);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(nthreads));
    for (int i = 0; i < nthreads; ++i) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
    for (std::size_t i = 0; i < specs.size(); ++i)
      if (have[i] == 0 && computed[i] == 0)
        result.outcomes[i] =
            synthesize_outcome(specs[i], robust::FailKind::kSkipped,
                               "study interrupted before this trace ran", 0, false);
  }
  progress.finish();

  result.interrupted = robust::interrupt_requested();
  result.interrupt_signal = robust::interrupt_signal();

  const auto end = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(end - start).count();

  // An interrupted study's outcomes are full of holes: never cache them, and
  // keep the journal so the next invocation resumes instead of restarting.
  if (!opts.cache_path.empty() && !result.interrupted)
    save_outcomes(result.outcomes, opts.cache_path, key);
  if (journal.is_open()) {
    // On a completed study the cache (if configured) now holds everything
    // the journal protected; a leftover journal would only shadow it.
    journal.close();
    if (!result.interrupted) std::remove(opts.journal_path.c_str());
  }
  if (!opts.ledger_path.empty()) {
    obs::append_ledger(opts.ledger_path, ledger_records(result.outcomes, key));
    reg.counter("study.ledger_records")
        .add(result.outcomes.size() * static_cast<std::size_t>(Scheme::kNumSchemes));
  }
  return result;
}

}  // namespace hps::core
