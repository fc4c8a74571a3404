// CRC-framed message transport, shared by the supervisor ↔ worker pipes
// (supervisor.hpp) and the hpcsweepd request socket (src/serve/).
//
// Messages are CRC frames (framed_log.hpp) whose payload's first byte is the
// message type; the rest is opaque to this layer. The CRC is not paranoia: a
// worker that is dying (heap corruption, a signal landing mid-write) can emit
// a torn or garbled frame — and an arbitrary network client can send literal
// garbage. The stream's damage policy is to poison it: framing has no resync
// point, so the first bad frame makes the rest of the stream untrustworthy.
// The frame format and how this policy compares with the journal's and the
// spill's is in docs/robustness.md ("CRC framing").
//
// Two read paths share one frame check (check_frame):
//  - workers (and the serve client) block on their fd (read_message), and
//  - the supervisor and server poll many fds, feeding whatever bytes arrive
//    into a per-peer FrameDecoder that yields complete messages as they
//    close (kNeedMore in between, kCorrupt permanently once the stream is
//    unframeable).
//
// Both paths take the same per-stream frame-size cap, defaulting to
// kMaxFrameBytes — the one constant the journal and spill record caps alias —
// so "how big may a frame be" has exactly one answer per transport, chosen
// where the stream is opened (the server caps client *requests* far lower).
#pragma once

#include <cstdint>
#include <string>

namespace hps::robust::ipc {

/// First payload byte of every frame.
enum class MsgType : std::uint8_t {
  kTask = 1,       ///< supervisor → worker: one unit of work
  kResult = 2,     ///< worker → supervisor: completed task payload
  kHeartbeat = 3,  ///< worker → supervisor: liveness (watchdog food)
  kError = 4,      ///< worker → supervisor: task failed with an exception
  kShutdown = 5,   ///< supervisor → worker: drain and exit

  // hpcsweepd socket transport (src/serve/protocol.hpp) — same framing, a
  // disjoint type range so a frame can never be mistaken across transports.
  kRequest = 16,     ///< client → server: one serve::Request
  kRecord = 17,      ///< server → client: one ledger record (JSON line)
  kSummary = 18,     ///< server → client: terminal reply for a request
  kReject = 19,      ///< server → client: admission rejection (terminal)
  kPong = 20,        ///< server → client: liveness reply
  kStatsReply = 21,  ///< server → client: serve::Stats snapshot
  kMetricsReply = 22,  ///< server → client: serve::MetricsReply snapshot
};

const char* msg_type_name(MsgType t);

struct Message {
  MsgType type = MsgType::kHeartbeat;
  std::string payload;
};

/// Default per-stream frame cap: frames larger than this are rejected as
/// corrupt length fields. The journal's and the spill's record caps are this
/// same constant, not a second magic number.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Frame a message: length/CRC header plus type byte plus payload.
std::string encode_frame(const Message& m);

/// Write the whole frame to `fd`, retrying short writes and EINTR. Returns
/// false on any hard write error (EPIPE after the peer died, EBADF, ...).
/// The caller must have SIGPIPE ignored or blocked.
bool write_frame(int fd, const Message& m);

/// Incremental frame decoder for a nonblocking stream.
class FrameDecoder {
 public:
  enum class Status {
    kNeedMore,  ///< no complete frame buffered yet
    kMessage,   ///< one message produced; call next() again for more
    kCorrupt,   ///< stream is unframeable (bad CRC / oversized length)
  };

  /// `max_frame` caps the length field this stream will accept; anything
  /// larger poisons the stream as corrupt (it is never allocated).
  explicit FrameDecoder(std::uint32_t max_frame = kMaxFrameBytes)
      : max_frame_(max_frame) {}

  /// Buffer `n` raw bytes read off the pipe.
  void feed(const char* data, std::size_t n);

  /// Try to decode the next buffered frame into `out`. Once kCorrupt is
  /// returned the decoder stays corrupt: framing has no resync point, so the
  /// rest of the stream is untrustworthy by construction.
  Status next(Message& out);

  bool corrupt() const { return corrupt_; }
  /// Why the stream went corrupt ("" while healthy): "zero-length frame",
  /// "oversized frame", or "crc mismatch". One vocabulary for supervisor
  /// verdicts, server rejections, and test assertions.
  const char* corrupt_reason() const { return reason_; }
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  std::uint32_t max_frame_ = kMaxFrameBytes;
  bool corrupt_ = false;
  const char* reason_ = "";
};

enum class ReadStatus {
  kMessage,  ///< one complete message decoded
  kEof,      ///< orderly end of stream (writer closed the pipe)
  kCorrupt,  ///< framing violation
  kError,    ///< read(2) failed hard
};

const char* read_status_name(ReadStatus s);

/// Blocking convenience for the worker / serve-client side: read exactly one
/// message off a blocking fd. `max_frame` mirrors FrameDecoder's cap.
ReadStatus read_message(int fd, Message& out,
                        std::uint32_t max_frame = kMaxFrameBytes);

/// The worker's result-pipe fd, valid only inside a worker process spawned
/// by run_supervised (-1 elsewhere). Exposed so tests can inject protocol
/// garbage into the stream exactly as a corrupted worker would.
int worker_result_fd();

/// Internal: set by the supervisor's child bootstrap.
void set_worker_result_fd(int fd);

}  // namespace hps::robust::ipc
