// On-disk spill format for the serve result cache (crash durability).
//
// A spill file is a small versioned header ("HPSC" | u32 format_version)
// followed by an append-only sequence of CRC frames (robust/framed_log.hpp).
// Each frame's payload is one (cache key, CachedResult) pair in the wire
// codec (common/bytes.hpp) — little-endian fixed-width fields,
// length-prefixed strings — so a recovered entry reproduces the original
// reply byte for byte.
//
// Recovery never trusts the file: scan_spill_file() validates every frame
// and classifies damage instead of throwing — a bad frame is quarantined and
// the scan resyncs, an implausible length condemns the remainder, a torn
// tail is truncated. The full policy, beside the journal's and the IPC
// stream's, is in docs/robustness.md ("CRC framing"). The caller appends
// quarantined regions to a `.quarantine` sidecar for forensics and rewrites
// the spill file from the surviving records, so the file is clean again
// after every recovery.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "serve/cache.hpp"

namespace hps::serve {

inline constexpr std::uint32_t kSpillFormatVersion = 1;
/// Bump when the record payload layout changes; a record claiming an unknown
/// schema is quarantined, never guessed at.
inline constexpr std::uint32_t kSpillRecordSchema = 1;

/// File names inside a --cache-dir.
std::string spill_path(const std::string& dir);
std::string quarantine_path(const std::string& dir);

struct SpillRecord {
  std::uint64_t key = 0;
  CachedResult result;
};

std::string encode_spill_record(std::uint64_t key, const CachedResult& r);
/// Throws hps::Error on truncation, trailing bytes, or any schema violation
/// (unknown record schema, out-of-range status). Callers treat a throw as
/// corruption and quarantine the payload.
SpillRecord decode_spill_record(const std::string& payload);

/// Result of scanning a spill file. Never reflects a crash: every way the
/// bytes can be wrong maps onto quarantined regions or a torn tail.
struct SpillScan {
  bool existed = false;    ///< file was present (even if empty/corrupt)
  bool header_ok = false;  ///< magic + format version validated
  std::vector<SpillRecord> records;  ///< frames that passed CRC + decode
  /// Raw bytes of each damaged region, in file order (for the sidecar).
  std::vector<std::string> quarantine;
  std::uint64_t torn_bytes = 0;  ///< incomplete trailing frame, truncated
};

/// Scan `path`, validating every frame. Returns rather than throws on every
/// form of damage; throws hps::Error only on I/O errors reading the file.
SpillScan scan_spill_file(const std::string& path);

/// Atomically replace `path` with a clean spill file holding `records` in
/// order (tmp file + fsync + rename + parent-dir sync). Throws on I/O error.
void write_spill_file(const std::string& path, const std::vector<SpillRecord>& records);

/// Append `regions` to the quarantine sidecar (plain concatenation — the
/// sidecar is forensic evidence, not a parseable format). Throws on I/O
/// error.
void append_quarantine(const std::string& path, const std::vector<std::string>& regions);

/// Appender for live inserts. Mirrors robust::JournalWriter: buffered FILE*
/// flushed per append, optionally fsynced when durability beats throughput.
class SpillWriter {
 public:
  SpillWriter() = default;
  ~SpillWriter();
  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// Open `path` for appending, writing a fresh header when the file does
  /// not exist. The file is assumed clean (recovery rewrites it first).
  void open(const std::string& path, bool fsync_each);
  bool is_open() const { return f_ != nullptr; }
  void close();

  /// Frame and append one record. Throws on I/O failure (the caller counts
  /// the loss; the in-memory cache is unaffected).
  void append(std::uint64_t key, const CachedResult& r);

  /// Bytes in the file as of the last append (header included) — drives the
  /// caller's compaction threshold.
  std::uint64_t file_bytes() const { return bytes_; }

 private:
  std::FILE* f_ = nullptr;
  std::string path_;
  bool fsync_each_ = false;
  std::uint64_t bytes_ = 0;
};

}  // namespace hps::serve
