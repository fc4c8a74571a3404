#include "serve/spill.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "robust/framed_log.hpp"
#include "robust/ipc.hpp"
#include "robust/journal.hpp"

namespace hps::serve {

namespace {

constexpr char kMagic[4] = {'H', 'P', 'S', 'C'};
constexpr std::size_t kHeaderBytes = 8;  // magic + u32 format version

/// Sanity cap on one spill record: anything larger is a corrupt length
/// field, not a real cached result. Aliases the transport-wide frame limit,
/// the same cap the journal uses.
constexpr std::uint32_t kMaxSpillRecordBytes = robust::ipc::kMaxFrameBytes;

std::string header_bytes() {
  std::string h(kMagic, sizeof(kMagic));
  put_u32(h, kSpillFormatVersion);
  return h;
}

}  // namespace

std::string spill_path(const std::string& dir) { return dir + "/cache.hpsc"; }

std::string quarantine_path(const std::string& dir) { return dir + "/cache.quarantine"; }

std::string encode_spill_record(std::uint64_t key, const CachedResult& r) {
  std::string out;
  std::size_t n = 64 + r.app_classes.size();
  for (const std::string& rec : r.records) n += rec.size() + 4;
  out.reserve(n);
  put_u32(out, kSpillRecordSchema);
  put_u64(out, key);
  put_u8(out, static_cast<std::uint8_t>(r.status));
  put_u32(out, r.degraded);
  put_f64(out, r.wall_seconds);
  put_u8(out, r.mfact_fallback ? 1 : 0);
  put_str(out, r.app_classes);
  put_u32(out, static_cast<std::uint32_t>(r.records.size()));
  for (const std::string& rec : r.records) put_str(out, rec);
  return out;
}

SpillRecord decode_spill_record(const std::string& payload) {
  ByteReader rd(payload, "spill record");
  const std::uint32_t schema = rd.u32();
  HPS_REQUIRE(schema == kSpillRecordSchema,
              "spill record schema " + std::to_string(schema) + " unsupported");
  SpillRecord rec;
  rec.key = rd.u64();
  const std::uint8_t st = rd.u8();
  // Only terminal, non-transient verdicts are cacheable.
  HPS_REQUIRE(st <= static_cast<std::uint8_t>(Status::kDegraded),
              "spill record status out of range");
  rec.result.status = static_cast<Status>(st);
  rec.result.degraded = rd.u32();
  rec.result.wall_seconds = rd.f64();
  const std::uint8_t fb = rd.u8();
  HPS_REQUIRE(fb <= 1, "spill record fallback flag out of range");
  rec.result.mfact_fallback = fb != 0;
  rec.result.app_classes = rd.str();
  const std::uint32_t n = rd.u32();
  // Each record line costs at least its 4-byte length prefix; a count the
  // remaining bytes cannot hold is a corrupt field, not a big study.
  HPS_REQUIRE(static_cast<std::uint64_t>(n) * 4 <= rd.remaining(),
              "spill record count out of range");
  rec.result.records.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) rec.result.records.push_back(rd.str());
  rd.done();
  return rec;
}

SpillScan scan_spill_file(const std::string& path) {
  SpillScan sc;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return sc;
  sc.existed = true;
  std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  HPS_REQUIRE(!in.bad(), "spill: I/O error reading " + path);
  in.close();

  if (data.size() < kHeaderBytes || std::memcmp(data.data(), kMagic, 4) != 0 ||
      get_u32(data.data() + 4) != kSpillFormatVersion) {
    // Unrecognizable header: nothing in the file can be trusted.
    if (!data.empty()) sc.quarantine.push_back(std::move(data));
    return sc;
  }
  sc.header_ok = true;

  std::string_view rest = std::string_view(data).substr(kHeaderBytes);
  while (!rest.empty()) {
    const robust::FrameCheck fc = robust::check_frame(rest, 1, kMaxSpillRecordBytes);
    if (fc.status == robust::FrameCheck::Status::kIncomplete) {
      // Cut short: the expected shape of a crash mid-append.
      sc.torn_bytes = rest.size();
      break;
    }
    if (fc.status == robust::FrameCheck::Status::kBadLength) {
      // Implausible length: we cannot trust it to skip over the frame, so
      // there is no resync point — condemn the remainder as one region.
      sc.quarantine.emplace_back(rest);
      break;
    }
    bool ok = fc.status == robust::FrameCheck::Status::kFrame;
    if (ok) {
      try {
        sc.records.push_back(decode_spill_record(std::string(fc.payload)));
      } catch (const Error&) {
        ok = false;  // framed fine but violates the record schema
      }
    }
    if (!ok) sc.quarantine.emplace_back(rest.substr(0, fc.size()));
    rest.remove_prefix(fc.size());
  }
  return sc;
}

void write_spill_file(const std::string& path, const std::vector<SpillRecord>& records) {
  const std::string tmp = path + ".tmp";
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) HPS_THROW("spill: cannot open " + tmp + " for writing");
    std::string out = header_bytes();
    for (const SpillRecord& r : records) robust::append_frame(out, encode_spill_record(r.key, r.result));
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size() &&
                    std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
    std::fclose(f);
    if (!ok) {
      std::remove(tmp.c_str());
      HPS_THROW("spill: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    HPS_THROW("spill: cannot rename " + tmp + " over " + path);
  }
  robust::sync_parent_dir(path);
}

void append_quarantine(const std::string& path, const std::vector<std::string>& regions) {
  if (regions.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) HPS_THROW("spill: cannot open quarantine sidecar " + path);
  bool ok = true;
  for (const std::string& r : regions)
    ok = ok && std::fwrite(r.data(), 1, r.size(), f) == r.size();
  ok = std::fflush(f) == 0 && ok;
  ::fsync(fileno(f));
  std::fclose(f);
  if (!ok) HPS_THROW("spill: quarantine append failed for " + path);
}

SpillWriter::~SpillWriter() { close(); }

void SpillWriter::open(const std::string& path, bool fsync_each) {
  close();
  std::error_code ec;
  const bool fresh = !std::filesystem::exists(path, ec);
  f_ = std::fopen(path.c_str(), "ab");
  if (f_ == nullptr) HPS_THROW("spill: cannot open " + path + " for append");
  path_ = path;
  fsync_each_ = fsync_each;
  if (fresh) {
    const std::string h = header_bytes();
    if (std::fwrite(h.data(), 1, h.size(), f_) != h.size())
      HPS_THROW("spill: header write failed for " + path);
    std::fflush(f_);
    ::fsync(fileno(f_));
    robust::sync_parent_dir(path);
  }
  if (std::fseek(f_, 0, SEEK_END) == 0) {
    const long sz = std::ftell(f_);
    bytes_ = sz > 0 ? static_cast<std::uint64_t>(sz) : 0;
  }
}

void SpillWriter::close() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
}

void SpillWriter::append(std::uint64_t key, const CachedResult& r) {
  HPS_CHECK(f_ != nullptr);
  std::string frame;
  robust::append_frame(frame, encode_spill_record(key, r));
  if (std::fwrite(frame.data(), 1, frame.size(), f_) != frame.size())
    HPS_THROW("spill: append failed for " + path_);
  if (std::fflush(f_) != 0) HPS_THROW("spill: flush failed for " + path_);
  // fflush survives our death (kill -9); the optional fsync survives the
  // machine's. Default off: a result lost to power loss is merely recomputed.
  if (fsync_each_) ::fsync(fileno(f_));
  bytes_ += frame.size();
}

}  // namespace hps::serve
