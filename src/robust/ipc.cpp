#include "robust/ipc.hpp"

#include <cerrno>
#include <cstring>
#include <unistd.h>

#include "robust/framed_log.hpp"

namespace hps::robust::ipc {

namespace {

int g_worker_result_fd = -1;

}  // namespace

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kTask: return "task";
    case MsgType::kResult: return "result";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kError: return "error";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kRequest: return "request";
    case MsgType::kRecord: return "record";
    case MsgType::kSummary: return "summary";
    case MsgType::kReject: return "reject";
    case MsgType::kPong: return "pong";
    case MsgType::kStatsReply: return "stats-reply";
    case MsgType::kMetricsReply: return "metrics-reply";
  }
  return "?";
}

const char* read_status_name(ReadStatus s) {
  switch (s) {
    case ReadStatus::kMessage: return "message";
    case ReadStatus::kEof: return "eof";
    case ReadStatus::kCorrupt: return "corrupt";
    case ReadStatus::kError: return "error";
  }
  return "?";
}

std::string encode_frame(const Message& m) {
  std::string payload;
  payload.reserve(1 + m.payload.size());
  payload.push_back(static_cast<char>(m.type));
  payload += m.payload;
  std::string frame;
  append_frame(frame, payload);
  return frame;
}

bool write_frame(int fd, const Message& m) {
  const std::string frame = encode_frame(m);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void FrameDecoder::feed(const char* data, std::size_t n) {
  if (corrupt_) return;
  // Compact lazily: drop the consumed prefix once it dominates the buffer.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

namespace {

/// Unpack a checked frame's payload: the type byte, then the message body.
void unpack(std::string_view payload, Message& out) {
  out.type = static_cast<MsgType>(static_cast<unsigned char>(payload[0]));
  out.payload.assign(payload.substr(1));
}

}  // namespace

FrameDecoder::Status FrameDecoder::next(Message& out) {
  if (corrupt_) return Status::kCorrupt;
  // A zero-length payload can't even carry the type byte; an oversized one
  // means the length field itself is garbage (or the peer is abusive).
  const FrameCheck fc = check_frame(std::string_view(buf_).substr(pos_), 1, max_frame_);
  switch (fc.status) {
    case FrameCheck::Status::kIncomplete:
      return Status::kNeedMore;
    case FrameCheck::Status::kBadLength:
      corrupt_ = true;
      reason_ = fc.len == 0 ? "zero-length frame" : "oversized frame";
      return Status::kCorrupt;
    case FrameCheck::Status::kBadCrc:
      corrupt_ = true;
      reason_ = "crc mismatch";
      return Status::kCorrupt;
    case FrameCheck::Status::kFrame:
      break;
  }
  unpack(fc.payload, out);
  pos_ += fc.size();
  return Status::kMessage;
}

namespace {

/// Read exactly `n` bytes. Returns kMessage when filled, kEof on a clean EOF
/// before the first byte, kCorrupt on EOF mid-read, kError on a hard error.
ReadStatus read_exact(int fd, char* p, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd, p + off, n - off);
    if (r == 0) return off == 0 ? ReadStatus::kEof : ReadStatus::kCorrupt;
    if (r < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kError;
    }
    off += static_cast<std::size_t>(r);
  }
  return ReadStatus::kMessage;
}

}  // namespace

ReadStatus read_message(int fd, Message& out, std::uint32_t max_frame) {
  // Exact-size reads: never consume bytes beyond this frame, so successive
  // calls on the same blocking fd each see a whole frame.
  std::string frame(kFrameHeaderBytes, '\0');
  ReadStatus st = read_exact(fd, frame.data(), frame.size());
  if (st != ReadStatus::kMessage) return st;
  const FrameCheck head = check_frame(frame, 1, max_frame);
  if (head.status == FrameCheck::Status::kBadLength) return ReadStatus::kCorrupt;
  frame.resize(head.size());
  st = read_exact(fd, frame.data() + kFrameHeaderBytes, head.len);
  if (st != ReadStatus::kMessage) return st == ReadStatus::kError ? st : ReadStatus::kCorrupt;
  const FrameCheck fc = check_frame(frame, 1, max_frame);
  if (fc.status != FrameCheck::Status::kFrame) return ReadStatus::kCorrupt;
  unpack(fc.payload, out);
  return ReadStatus::kMessage;
}

int worker_result_fd() { return g_worker_result_fd; }

void set_worker_result_fd(int fd) { g_worker_result_fd = fd; }

}  // namespace hps::robust::ipc
