// Supervisor ↔ worker pipe protocol: framing round-trips, torn and short
// reads, CRC corruption, oversized-frame rejection, and the permanence of a
// corrupt stream — the properties the supervisor's crash classification
// depends on.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "robust/ipc.hpp"
#include "robust/journal.hpp"

#include "codec_testing.hpp"

namespace hps::robust::ipc {
namespace {

/// A pipe whose both ends close with the fixture.
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  int rd() const { return fds[0]; }
  int wr() const { return fds[1]; }
  void close_wr() {
    ::close(fds[1]);
    fds[1] = -1;
  }
};

TEST(Ipc, FrameRoundTripThroughPipe) {
  Pipe p;
  const Message sent{MsgType::kTask, std::string("payload \x00\xff bytes", 16)};
  ASSERT_TRUE(write_frame(p.wr(), sent));
  ASSERT_TRUE(write_frame(p.wr(), {MsgType::kHeartbeat, ""}));

  Message got;
  ASSERT_EQ(read_message(p.rd(), got), ReadStatus::kMessage);
  EXPECT_EQ(got.type, MsgType::kTask);
  EXPECT_EQ(got.payload, sent.payload);
  // The second frame must still be intact: read_message never over-reads.
  ASSERT_EQ(read_message(p.rd(), got), ReadStatus::kMessage);
  EXPECT_EQ(got.type, MsgType::kHeartbeat);
  EXPECT_EQ(got.payload, "");

  p.close_wr();
  EXPECT_EQ(read_message(p.rd(), got), ReadStatus::kEof);
}

TEST(Ipc, DecoderYieldsMessagesAcrossArbitrarySplits) {
  std::string stream;
  const std::vector<Message> sent = {
      {MsgType::kResult, "alpha"}, {MsgType::kError, ""}, {MsgType::kTask, "omega"}};
  for (const Message& m : sent) stream += encode_frame(m);

  // Feed one byte at a time: every split point must be handled.
  FrameDecoder dec;
  std::vector<Message> got;
  for (const char c : stream) {
    dec.feed(&c, 1);
    Message m;
    while (dec.next(m) == FrameDecoder::Status::kMessage) got.push_back(m);
  }
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].type, sent[i].type);
    EXPECT_EQ(got[i].payload, sent[i].payload);
  }
  EXPECT_EQ(dec.buffered(), 0u);
  EXPECT_FALSE(dec.corrupt());
}

TEST(Ipc, TornFrameIsNeedMoreThenEofIsCorrupt) {
  const std::string frame = encode_frame({MsgType::kResult, "truncated-payload"});

  // Decoder view: a torn prefix is kNeedMore (more bytes may arrive)...
  FrameDecoder dec;
  dec.feed(frame.data(), frame.size() - 5);
  Message m;
  EXPECT_EQ(dec.next(m), FrameDecoder::Status::kNeedMore);
  EXPECT_FALSE(dec.corrupt());
  // ...until the remainder arrives and the frame closes.
  dec.feed(frame.data() + frame.size() - 5, 5);
  EXPECT_EQ(dec.next(m), FrameDecoder::Status::kMessage);
  EXPECT_EQ(m.payload, "truncated-payload");

  // Blocking-read view: EOF mid-frame is a torn stream, not a clean end.
  Pipe p;
  ASSERT_EQ(::write(p.wr(), frame.data(), frame.size() - 5),
            static_cast<ssize_t>(frame.size() - 5));
  p.close_wr();
  EXPECT_EQ(read_message(p.rd(), m), ReadStatus::kCorrupt);
}

TEST(Ipc, CrcCorruptionPoisonsTheStreamPermanently) {
  std::string stream = encode_frame({MsgType::kResult, "first"});
  stream.back() ^= 0x01;  // flip one payload bit: CRC mismatch
  stream += encode_frame({MsgType::kResult, "second"});

  FrameDecoder dec;
  dec.feed(stream.data(), stream.size());
  Message m;
  EXPECT_EQ(dec.next(m), FrameDecoder::Status::kCorrupt);
  EXPECT_TRUE(dec.corrupt());
  // Framing has no resync point: the intact-looking second frame must NOT be
  // decodable — the whole stream is untrustworthy.
  EXPECT_EQ(dec.next(m), FrameDecoder::Status::kCorrupt);
  dec.feed(stream.data(), stream.size());  // feeding more changes nothing
  EXPECT_EQ(dec.next(m), FrameDecoder::Status::kCorrupt);

  Pipe p;
  const std::string bad = encode_frame({MsgType::kResult, "x"});
  std::string flipped = bad;
  flipped.back() ^= 0x01;
  ASSERT_EQ(::write(p.wr(), flipped.data(), flipped.size()),
            static_cast<ssize_t>(flipped.size()));
  Message got;
  EXPECT_EQ(read_message(p.rd(), got), ReadStatus::kCorrupt);
}

TEST(Ipc, OversizedAndZeroLengthFramesAreRejected) {
  // A length field beyond kMaxFrameBytes is a corrupt header, not a request
  // to allocate 4 GB.
  std::string huge(8, '\0');
  huge[0] = '\xff';
  huge[1] = '\xff';
  huge[2] = '\xff';
  huge[3] = '\x7f';  // len = 0x7fffffff
  FrameDecoder dec;
  dec.feed(huge.data(), huge.size());
  Message m;
  EXPECT_EQ(dec.next(m), FrameDecoder::Status::kCorrupt);

  Pipe p;
  ASSERT_EQ(::write(p.wr(), huge.data(), huge.size()), 8);
  EXPECT_EQ(read_message(p.rd(), m), ReadStatus::kCorrupt);

  // Zero-length payload cannot even carry the type byte.
  FrameDecoder dec0;
  const std::string zero(8, '\0');
  dec0.feed(zero.data(), zero.size());
  EXPECT_EQ(dec0.next(m), FrameDecoder::Status::kCorrupt);
}

TEST(Ipc, EncodeFrameMatchesJournalFraming) {
  // The protocol documents itself as HPSJ framing with a leading type byte;
  // verify the layout explicitly so neither side can drift.
  const Message m{MsgType::kShutdown, "zz"};
  const std::string f = encode_frame(m);
  ASSERT_EQ(f.size(), 8u + 3u);
  const auto u32at = [&](std::size_t off) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(f[off])) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(f[off + 1])) << 8) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(f[off + 2])) << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(f[off + 3])) << 24);
  };
  EXPECT_EQ(u32at(0), 3u);  // payload = type byte + "zz"
  EXPECT_EQ(u32at(4), crc32(f.data() + 8, 3));
  EXPECT_EQ(static_cast<MsgType>(f[8]), MsgType::kShutdown);
  EXPECT_EQ(f.substr(9), "zz");
}

TEST(Ipc, ConfigurableFrameCapRejectsBeforeTheTransportWideLimit) {
  // A decoder built with a tighter cap (the serve request path) refuses a
  // frame the default transport limit would have accepted.
  const std::string frame = encode_frame({MsgType::kRequest, std::string(256, 'x')});
  FrameDecoder tight(128);
  tight.feed(frame.data(), frame.size());
  Message m;
  EXPECT_EQ(tight.next(m), FrameDecoder::Status::kCorrupt);
  EXPECT_STREQ(tight.corrupt_reason(), "oversized frame");

  FrameDecoder roomy;  // default kMaxFrameBytes
  roomy.feed(frame.data(), frame.size());
  EXPECT_EQ(roomy.next(m), FrameDecoder::Status::kMessage);
  EXPECT_EQ(m.payload.size(), 256u);

  // The blocking reader honors the same knob.
  Pipe p;
  ASSERT_TRUE(write_frame(p.wr(), {MsgType::kRequest, std::string(256, 'x')}));
  EXPECT_EQ(read_message(p.rd(), m, /*max_frame=*/128), ReadStatus::kCorrupt);
}

TEST(Ipc, CorruptReasonDistinguishesFailureModes) {
  Message m;

  std::string zero(8, '\0');
  FrameDecoder dz;
  dz.feed(zero.data(), zero.size());
  EXPECT_EQ(dz.next(m), FrameDecoder::Status::kCorrupt);
  EXPECT_STREQ(dz.corrupt_reason(), "zero-length frame");

  std::string flipped = encode_frame({MsgType::kResult, "x"});
  flipped.back() ^= 0x01;
  FrameDecoder dc;
  dc.feed(flipped.data(), flipped.size());
  EXPECT_EQ(dc.next(m), FrameDecoder::Status::kCorrupt);
  EXPECT_STREQ(dc.corrupt_reason(), "crc mismatch");

  FrameDecoder ok;
  EXPECT_STREQ(ok.corrupt_reason(), "");  // clean decoder: no reason
}

// Seeded mutation sweep over a two-frame stream, through both read paths.
// Every mutation ends in kNeedMore/kCorrupt (FrameDecoder) or kEof/kCorrupt
// (read_message) after yielding only messages that were actually sent.
const std::vector<Message>& sweep_messages() {
  static const std::vector<Message> msgs = {{MsgType::kRequest, "abc"},
                                            {MsgType::kRecord, std::string(40, 'r')}};
  return msgs;
}

std::string sweep_stream() {
  std::string s;
  for (const Message& m : sweep_messages()) s += encode_frame(m);
  return s;
}

void expect_sent(const Message& got, std::size_t i, std::size_t case_no) {
  ASSERT_LT(i, sweep_messages().size()) << "mutation " << case_no;
  EXPECT_EQ(got.type, sweep_messages()[i].type) << "mutation " << case_no;
  EXPECT_EQ(got.payload, sweep_messages()[i].payload) << "mutation " << case_no;
}

TEST(Ipc, MutatedStreamsDecodeOrPoisonTheFrameDecoder) {
  hps::testing::for_each_mutation(sweep_stream(), [](const std::string& m, std::size_t c) {
    FrameDecoder dec;
    dec.feed(m.data(), m.size());
    Message got;
    std::size_t n = 0;
    FrameDecoder::Status st;
    while ((st = dec.next(got)) == FrameDecoder::Status::kMessage) expect_sent(got, n++, c);
    EXPECT_EQ(st == FrameDecoder::Status::kCorrupt, dec.corrupt()) << "mutation " << c;
  });
}

TEST(Ipc, MutatedStreamsDecodeOrPoisonReadMessageOverASocketpair) {
  hps::testing::for_each_mutation(sweep_stream(), [](const std::string& m, std::size_t c) {
    int sv[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_EQ(::write(sv[1], m.data(), m.size()), static_cast<ssize_t>(m.size()));
    ::shutdown(sv[1], SHUT_WR);
    Message got;
    std::size_t n = 0;
    ReadStatus st;
    while ((st = read_message(sv[0], got)) == ReadStatus::kMessage) expect_sent(got, n++, c);
    EXPECT_TRUE(st == ReadStatus::kEof || st == ReadStatus::kCorrupt)
        << "mutation " << c << ": " << read_status_name(st);
    ::close(sv[0]);
    ::close(sv[1]);
  });
}

TEST(Ipc, MsgTypeNames) {
  EXPECT_STREQ(msg_type_name(MsgType::kTask), "task");
  EXPECT_STREQ(msg_type_name(MsgType::kResult), "result");
  EXPECT_STREQ(msg_type_name(MsgType::kHeartbeat), "heartbeat");
  EXPECT_STREQ(msg_type_name(MsgType::kError), "error");
  EXPECT_STREQ(msg_type_name(MsgType::kShutdown), "shutdown");
  // Serve-transport types share the enum but a disjoint range.
  EXPECT_STREQ(msg_type_name(MsgType::kRequest), "request");
  EXPECT_STREQ(msg_type_name(MsgType::kRecord), "record");
  EXPECT_STREQ(msg_type_name(MsgType::kSummary), "summary");
  EXPECT_STREQ(msg_type_name(MsgType::kReject), "reject");
  EXPECT_STREQ(msg_type_name(MsgType::kPong), "pong");
  EXPECT_STREQ(msg_type_name(MsgType::kStatsReply), "stats-reply");
  EXPECT_STREQ(read_status_name(ReadStatus::kMessage), "message");
  EXPECT_STREQ(read_status_name(ReadStatus::kEof), "eof");
  EXPECT_STREQ(read_status_name(ReadStatus::kCorrupt), "corrupt");
}

}  // namespace
}  // namespace hps::robust::ipc
