#include "robust/journal.hpp"

#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <unistd.h>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "robust/ipc.hpp"

namespace hps::robust {

namespace {

constexpr char kMagic[4] = {'H', 'P', 'S', 'J'};
constexpr std::uint32_t kJournalVersion = 1;
constexpr std::size_t kHeaderFixedBytes = 16;  // magic + version + key length + key CRC

std::string header_bytes(const std::string& key) {
  std::string h(kMagic, sizeof(kMagic));
  put_u32(h, kJournalVersion);
  put_u32(h, static_cast<std::uint32_t>(key.size()));
  put_u32(h, crc32(key.data(), key.size()));
  h += key;
  return h;
}

/// Sanity cap on a single record — anything larger is a torn/corrupt length
/// field, not a real outcome (serialized outcomes are a few KB). The cap is
/// the transport-wide frame limit, not a second magic number.
constexpr std::uint32_t kMaxRecordBytes = ipc::kMaxFrameBytes;

}  // namespace

bool sync_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

bool sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

JournalScan scan_journal(const std::string& path) {
  JournalScan out;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return out;
  out.existed = true;
  const std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  if (data.size() >= kHeaderFixedBytes && std::memcmp(data.data(), kMagic, 4) == 0) {
    out.version = get_u32(data.data() + 4);
    const std::uint32_t key_len = get_u32(data.data() + 8);
    if (key_len <= data.size() - kHeaderFixedBytes) {
      out.key = data.substr(kHeaderFixedBytes, key_len);
      out.header_ok = crc32(out.key.data(), out.key.size()) == get_u32(data.data() + 12);
    }
  }
  if (out.header_ok) {
    out.valid_bytes = kHeaderFixedBytes + out.key.size();
    // Keep the valid prefix: stop at the first frame that is not intact.
    for (;;) {
      const FrameCheck fc =
          check_frame(std::string_view(data).substr(out.valid_bytes), 0, kMaxRecordBytes);
      if (fc.status != FrameCheck::Status::kFrame) break;
      out.records.emplace_back(fc.payload);
      out.valid_bytes += fc.size();
    }
  }
  out.torn_bytes = data.size() - out.valid_bytes;
  return out;
}

JournalContents read_journal(const std::string& path, const std::string& key) {
  JournalScan sc = scan_journal(path);
  JournalContents out;
  out.existed = sc.existed;
  out.key_matched = sc.header_ok && sc.version == kJournalVersion && sc.key == key;
  if (!out.key_matched) {
    out.torn_bytes = sc.valid_bytes + sc.torn_bytes;
    return out;
  }
  out.records = std::move(sc.records);
  out.valid_bytes = sc.valid_bytes;
  out.torn_bytes = sc.torn_bytes;
  return out;
}

JournalWriter::~JournalWriter() { close(); }

void JournalWriter::open_fresh(const std::string& path, const std::string& key) {
  close();
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) HPS_THROW("journal: cannot open " + path + " for writing");
  path_ = path;
  const std::string h = header_bytes(key);
  if (std::fwrite(h.data(), 1, h.size(), f_) != h.size())
    HPS_THROW("journal: header write failed for " + path);
  std::fflush(f_);
  ::fsync(fileno(f_));
  sync_parent_dir(path);  // the creat() itself must survive power loss too
}

void JournalWriter::open_resume(const std::string& path, std::uint64_t valid_bytes) {
  close();
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec) HPS_THROW("journal: cannot truncate " + path + " to valid prefix: " + ec.message());
  f_ = std::fopen(path.c_str(), "ab");
  if (f_ == nullptr) HPS_THROW("journal: cannot reopen " + path + " for append");
  path_ = path;
}

void JournalWriter::append(const std::string& record) {
  HPS_CHECK(f_ != nullptr);
  std::string frame;
  append_frame(frame, record);
  if (std::fwrite(frame.data(), 1, frame.size(), f_) != frame.size())
    HPS_THROW("journal: append failed for " + path_);
  std::fflush(f_);
  // fflush hands the record to the kernel (survives our death); fsync hands
  // it to the disk (survives the machine's). Appends are per completed
  // trace, so the sync is far off any hot path.
  ::fsync(fileno(f_));
}

void JournalWriter::close() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
}

}  // namespace hps::robust
