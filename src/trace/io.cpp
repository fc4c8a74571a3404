#include "trace/io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "common/error.hpp"

namespace hps::trace {

namespace {

constexpr char kMagic[4] = {'H', 'P', 'S', 'T'};
// Sanity bounds: a hostile or corrupt header must not drive allocations.
constexpr std::uint64_t kMaxEventsPerRank = 1ULL << 32;
constexpr std::uint64_t kMaxString = 1 << 16;

template <typename T>
void put(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_string(std::ostream& os, const std::string& s) {
  put<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Bytes from the read position to the end of the stream; the largest count
/// when the stream cannot seek (then only the stream itself can say it ran
/// out).
std::uint64_t bytes_left(std::istream& is) {
  constexpr std::uint64_t kUnknown = ~std::uint64_t{0};
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return kUnknown;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  if (end == std::istream::pos_type(-1) || end < here) return kUnknown;
  return static_cast<std::uint64_t>(end - here);
}

/// Reads the binary layout without trusting any count beyond the bytes the
/// stream has left: a corrupt or hostile count fails as truncated before
/// anything is sized by it.
class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is), left_(bytes_left(is)) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    read(&v, sizeof v, "trace stream truncated");
    return v;
  }

  std::string str() {
    const auto n = get<std::uint32_t>();
    HPS_REQUIRE(n <= kMaxString, "trace string field too large");
    room(n, 1, "trace stream truncated in string");
    std::string s(n, '\0');
    read(s.data(), n, "trace stream truncated in string");
    return s;
  }

  /// n values into v: one resize, one read.
  template <typename T>
  void array(std::vector<T>& v, std::uint64_t n, const char* truncated) {
    static_assert(std::is_trivially_copyable_v<T>);
    room(n, sizeof(T), truncated);
    v.resize(n);
    read(v.data(), n * sizeof(T), truncated);
  }

  /// Fails as truncated unless n records of at least `bytes` each still fit.
  void room(std::uint64_t n, std::uint64_t bytes, const char* truncated) const {
    HPS_REQUIRE(n <= left_ / bytes, truncated);
  }

 private:
  void read(void* dst, std::uint64_t n, const char* truncated) {
    room(n, 1, truncated);
    is_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    HPS_REQUIRE(static_cast<bool>(is_), truncated);
    left_ -= n;
  }

  std::istream& is_;
  std::uint64_t left_;
};

}  // namespace

void write_binary(const Trace& t, std::ostream& os) {
  os.write(kMagic, 4);
  put<std::uint32_t>(os, kTraceFormatVersion);
  const auto& m = t.meta();
  put_string(os, m.app);
  put_string(os, m.variant);
  put_string(os, m.machine);
  put<std::int32_t>(os, m.nranks);
  put<std::int32_t>(os, m.ranks_per_node);
  put<std::uint64_t>(os, m.seed);

  // Communicators (world at index 0 is implicit — written for simplicity).
  put<std::uint32_t>(os, static_cast<std::uint32_t>(t.num_comms()));
  for (CommId c = 0; c < static_cast<CommId>(t.num_comms()); ++c) {
    const auto& members = t.comm(c);
    put<std::uint32_t>(os, static_cast<std::uint32_t>(members.size()));
    os.write(reinterpret_cast<const char*>(members.data()),
             static_cast<std::streamsize>(members.size() * sizeof(Rank)));
  }

  for (Rank r = 0; r < t.nranks(); ++r) {
    const auto& rt = t.rank(r);
    put<std::uint64_t>(os, rt.events.size());
    os.write(reinterpret_cast<const char*>(rt.events.data()),
             static_cast<std::streamsize>(rt.events.size() * sizeof(Event)));
    put<std::uint32_t>(os, static_cast<std::uint32_t>(rt.vlists.size()));
    for (const auto& vl : rt.vlists) {
      put<std::uint32_t>(os, static_cast<std::uint32_t>(vl.size()));
      os.write(reinterpret_cast<const char*>(vl.data()),
               static_cast<std::streamsize>(vl.size() * sizeof(std::uint64_t)));
    }
  }
  HPS_REQUIRE(static_cast<bool>(os), "trace write failed");
}

Trace read_binary(std::istream& is) {
  char magic[4];
  is.read(magic, 4);
  HPS_REQUIRE(static_cast<bool>(is) && std::memcmp(magic, kMagic, 4) == 0,
              "not a HPST trace stream");
  Reader rd(is);
  const auto version = rd.get<std::uint32_t>();
  HPS_REQUIRE(version == kTraceFormatVersion, "unsupported trace format version");

  TraceMeta m;
  m.app = rd.str();
  m.variant = rd.str();
  m.machine = rd.str();
  m.nranks = rd.get<std::int32_t>();
  m.ranks_per_node = rd.get<std::int32_t>();
  m.seed = rd.get<std::uint64_t>();
  HPS_REQUIRE(m.nranks > 0 && m.nranks <= kMaxRanks,
              "trace rank count out of range");
  HPS_REQUIRE(m.ranks_per_node > 0, "trace ranks_per_node out of range");
  // Every rank carries at least its event and vlist counts.
  rd.room(static_cast<std::uint64_t>(m.nranks), sizeof(std::uint64_t) + sizeof(std::uint32_t),
          "trace stream truncated");

  Trace t(std::move(m));

  const auto ncomms = rd.get<std::uint32_t>();
  HPS_REQUIRE(ncomms >= 1 && ncomms <= static_cast<std::uint32_t>(kMaxRanks),
              "trace comm count out of range");
  std::vector<Rank> members;
  for (std::uint32_t c = 0; c < ncomms; ++c) {
    const auto sz = rd.get<std::uint32_t>();
    HPS_REQUIRE(sz >= 1 && sz <= static_cast<std::uint32_t>(t.nranks()),
                "trace comm size out of range");
    rd.array(members, sz, "trace stream truncated in comm");
    if (c == 0) continue;  // world was created by the Trace constructor
    for (const Rank r : members)
      HPS_REQUIRE(r >= 0 && r < t.nranks(), "trace comm member out of range");
    HPS_REQUIRE(!has_duplicate_members(members), "trace comm has a duplicate member");
    t.add_comm(members);
  }

  for (Rank r = 0; r < t.nranks(); ++r) {
    auto& rt = t.rank(r);
    const auto nev = rd.get<std::uint64_t>();
    HPS_REQUIRE(nev <= kMaxEventsPerRank, "trace event count out of range");
    rd.array(rt.events, nev, "trace stream truncated in events");
    const auto nvl = rd.get<std::uint32_t>();
    HPS_REQUIRE(nvl <= kMaxEventsPerRank, "trace vlist count out of range");
    rd.room(nvl, sizeof(std::uint32_t), "trace stream truncated in vlist");
    rt.vlists.resize(nvl);
    for (auto& vl : rt.vlists) {
      const auto sz = rd.get<std::uint32_t>();
      HPS_REQUIRE(sz <= static_cast<std::uint32_t>(t.nranks()), "trace vlist size out of range");
      rd.array(vl, sz, "trace stream truncated in vlist");
    }
  }
  return t;
}

void save(const Trace& t, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  HPS_REQUIRE(os.is_open(), "cannot open trace file for writing: " + path);
  write_binary(t, os);
}

Trace load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  HPS_REQUIRE(is.is_open(), "cannot open trace file: " + path);
  return read_binary(is);
}

void write_text(const Trace& t, std::ostream& os, std::size_t max_events_per_rank) {
  const auto& m = t.meta();
  os << "# trace " << m.app << " variant=" << m.variant << " machine=" << m.machine
     << " ranks=" << m.nranks << " rpn=" << m.ranks_per_node << " seed=" << m.seed << "\n";
  for (Rank r = 0; r < t.nranks(); ++r) {
    const auto& rt = t.rank(r);
    os << "rank " << r << " events=" << rt.events.size() << "\n";
    std::size_t limit = rt.events.size();
    if (max_events_per_rank != 0 && max_events_per_rank < limit) limit = max_events_per_rank;
    for (std::size_t i = 0; i < limit; ++i) {
      const Event& e = rt.events[i];
      os << "  " << op_name(e.type);
      if (is_p2p(e.type)) os << " peer=" << e.peer << " tag=" << e.tag << " bytes=" << e.bytes;
      if (is_collective(e.type)) {
        os << " comm=" << e.comm << " bytes=" << e.bytes;
        if (is_rooted(e.type)) os << " root=" << e.peer;
      }
      if (e.request >= 0) os << " req=" << e.request;
      os << " dur=" << e.duration << "ns\n";
    }
    if (limit < rt.events.size()) os << "  ... (" << rt.events.size() - limit << " more)\n";
  }
}

}  // namespace hps::trace
