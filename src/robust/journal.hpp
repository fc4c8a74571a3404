// Crash-safe append-only journal.
//
// run_study appends each completed trace outcome to the journal as workers
// finish; if the process dies mid-study (crash, OOM kill, injected exit), the
// restart reads the journal back, keeps every intact record, and re-runs only
// the missing specs.
//
// A journal is a fixed header — "HPSJ", format version, and the caller's
// study key, so a journal is never resumed against a different
// corpus/config — followed by CRC frames (framed_log.hpp). Its damage policy
// keeps the valid prefix: the first frame that is cut short or fails its
// length or CRC check ends the prefix, and everything after it is a torn tail
// that open_resume() truncates. Empty records are legal. The byte layout and
// how it compares with the other framed formats is in docs/robustness.md
// ("CRC framing").
//
// The journal is payload-agnostic (records are opaque byte strings); the
// study layer serializes TraceOutcome with the same codec as the result
// cache, so a resumed study reproduces the uninterrupted one byte-for-byte.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "robust/framed_log.hpp"

namespace hps::robust {

/// fsync `path`'s data+metadata to stable storage. Atomic tmp+rename only
/// survives a *process* crash by itself; surviving power loss additionally
/// needs the data fsynced before the rename and the directory fsynced after
/// it, or the rename can reach disk pointing at unwritten blocks. Best
/// effort: returns false when the file cannot be opened or fsync fails
/// (e.g. a filesystem that does not support it), which callers treat as
/// non-fatal — the atomicity guarantee still holds.
bool sync_file(const std::string& path);

/// fsync the directory containing `path` (making a rename/creat durable).
bool sync_parent_dir(const std::string& path);

struct JournalContents {
  bool existed = false;       ///< a journal file was present
  bool key_matched = false;   ///< header key matched the caller's key
  std::vector<std::string> records;  ///< intact records, in append order
  std::uint64_t valid_bytes = 0;     ///< prefix length covering the records
  std::uint64_t torn_bytes = 0;      ///< trailing bytes discarded (torn tail)
};

/// Key-less walk of a journal, for tools that do not know the study key
/// (hpcsweep_inspect fsck). The header is checked only against its own
/// stored key CRC; the version is reported, not judged.
struct JournalScan {
  bool existed = false;    ///< a journal file was present
  bool header_ok = false;  ///< magic intact and the stored key matches its CRC
  std::uint32_t version = 0;
  std::string key;                   ///< the stored study key
  std::vector<std::string> records;  ///< intact records, in append order
  std::uint64_t valid_bytes = 0;     ///< header plus the intact records
  std::uint64_t torn_bytes = 0;      ///< every byte after the valid prefix
};

JournalScan scan_journal(const std::string& path);

/// Read every intact record of `path`: scan_journal() plus the study-key
/// check. Missing file → existed=false. A header mismatch (foreign
/// magic/version/key) yields key_matched=false and no records, with the whole
/// file counted as torn — the caller should start fresh rather than resume.
JournalContents read_journal(const std::string& path, const std::string& key);

/// Appender. Every append() is framed, written, flushed, and fsynced before
/// returning, so a record either fully survives a crash — including power
/// loss, not just process death — or is discarded as a torn tail.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Truncate/create `path` and write a fresh header for `key`.
  void open_fresh(const std::string& path, const std::string& key);

  /// Reopen an existing journal for appending after read_journal() validated
  /// a prefix: the file is truncated to `valid_bytes` (dropping any torn
  /// tail) and subsequent appends extend the intact prefix.
  void open_resume(const std::string& path, std::uint64_t valid_bytes);

  void append(const std::string& record);
  bool is_open() const { return f_ != nullptr; }
  void close();

 private:
  std::FILE* f_ = nullptr;
  std::string path_;
};

}  // namespace hps::robust
