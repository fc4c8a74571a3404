#include "serve/cache.hpp"

#include <cstdio>
#include <filesystem>

#include "robust/fault.hpp"
#include "serve/spill.hpp"

namespace hps::serve {

ResultCache::ResultCache(std::size_t byte_budget, SpillOptions spill)
    : budget_(byte_budget), spill_opts_(std::move(spill)) {}

ResultCache::~ResultCache() = default;

std::shared_ptr<const CachedResult> ResultCache::lookup(std::uint64_t key) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
  ++hits_;
  return it->second->value;
}

void ResultCache::insert(std::uint64_t key, std::shared_ptr<const CachedResult> value) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::shared_ptr<const CachedResult> keep = value;  // outlives the move below
  if (!insert_locked(key, std::move(value))) return;
  spill_append_locked(key, *keep);
}

bool ResultCache::insert_locked(std::uint64_t key, std::shared_ptr<const CachedResult> value) {
  if (budget_ == 0 || value == nullptr) return false;
  const std::size_t bytes = value->byte_size();
  if (const auto it = index_.find(key); it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (bytes > budget_) return false;  // would evict everything and still not fit
  lru_.push_front(Entry{key, std::move(value), bytes});
  index_[key] = lru_.begin();
  bytes_ += bytes;
  evict_to_budget_locked();
  return true;
}

void ResultCache::spill_append_locked(std::uint64_t key, const CachedResult& r) {
  if (writer_ == nullptr || !writer_->is_open()) return;
  if (r.mfact_fallback) return;  // degraded answers are never durable
  try {
    robust::fault_point(robust::FaultSite::kServeCacheSpill);
    writer_->append(key, r);
    ++spilled_;
    // The append-only file accumulates replaced/evicted entries; compact it
    // once it clearly outgrows what the live set could occupy.
    if (writer_->file_bytes() > 2 * static_cast<std::uint64_t>(budget_) + 64)
      rewrite_spill_locked();
  } catch (const std::exception& e) {
    ++spill_errors_;
    std::fprintf(stderr, "hpcsweepd: cache spill append failed (entry stays in memory): %s\n",
                 e.what());
  }
}

void ResultCache::rewrite_spill_locked() {
  std::vector<SpillRecord> live;
  live.reserve(lru_.size());
  // Oldest first: recovery re-inserts in file order, so append order must be
  // LRU→MRU for the restored recency order to match.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it)
    live.push_back(SpillRecord{it->key, *it->value});
  const std::string path = spill_path(spill_opts_.dir);
  write_spill_file(path, live);
  // The rename replaced the inode; reopen so appends land in the new file.
  if (writer_ == nullptr) writer_ = std::make_unique<SpillWriter>();
  writer_->close();
  writer_->open(path, spill_opts_.fsync);
}

ResultCache::RecoveryStats ResultCache::recover() {
  RecoveryStats rs;
  if (spill_opts_.dir.empty()) return rs;
  std::lock_guard<std::mutex> lk(mu_);
  std::error_code ec;
  std::filesystem::create_directories(spill_opts_.dir, ec);
  SpillScan sc = scan_spill_file(spill_path(spill_opts_.dir));
  std::vector<std::string> quarantine = std::move(sc.quarantine);
  for (SpillRecord& rec : sc.records) {
    try {
      robust::fault_point(robust::FaultSite::kServeCacheRecover);
    } catch (const std::exception&) {
      // Injected recovery failure: the record is treated exactly like rot.
      quarantine.push_back(encode_spill_record(rec.key, rec.result));
      continue;
    }
    if (rec.result.mfact_fallback) continue;  // excluded by cache policy
    if (insert_locked(rec.key, std::make_shared<CachedResult>(std::move(rec.result)))) {
      ++rs.recovered;
    }
  }
  recovered_ += rs.recovered;
  rs.quarantined = quarantine.size();
  quarantined_ += quarantine.size();
  rs.torn_bytes = sc.torn_bytes;
  try {
    append_quarantine(quarantine_path(spill_opts_.dir), quarantine);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpcsweepd: quarantine sidecar write failed: %s\n", e.what());
  }
  // Leave a clean, compacted file behind no matter what we found, and open
  // it for live appends. I/O failure here is a misconfigured --cache-dir and
  // does throw: better to refuse to start than to serve without durability.
  rewrite_spill_locked();
  return rs;
}

std::uint64_t ResultCache::scrub_once() {
  if (spill_opts_.dir.empty()) return 0;
  robust::fault_point(robust::FaultSite::kServeScrub);
  std::lock_guard<std::mutex> lk(mu_);
  SpillScan sc = scan_spill_file(spill_path(spill_opts_.dir));
  const std::uint64_t rot = sc.quarantine.size();
  const bool damaged = rot > 0 || sc.torn_bytes > 0 || (sc.existed && !sc.header_ok);
  if (damaged) {
    try {
      append_quarantine(quarantine_path(spill_opts_.dir), sc.quarantine);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hpcsweepd: quarantine sidecar write failed: %s\n", e.what());
    }
    // The in-memory cache is the authoritative copy; rebuild the file from it.
    rewrite_spill_locked();
  }
  ++scrub_passes_;
  scrub_corrupt_ += rot;
  quarantined_ += rot;
  return rot;
}

void ResultCache::evict_to_budget_locked() {
  while (bytes_ > budget_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

ResultCache::Counters ResultCache::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  Counters c;
  c.hits = hits_;
  c.misses = misses_;
  c.evictions = evictions_;
  c.bytes = bytes_;
  c.entries = lru_.size();
  c.spilled = spilled_;
  c.spill_errors = spill_errors_;
  c.recovered = recovered_;
  c.quarantined = quarantined_;
  c.scrub_passes = scrub_passes_;
  c.scrub_corrupt = scrub_corrupt_;
  return c;
}

}  // namespace hps::serve
