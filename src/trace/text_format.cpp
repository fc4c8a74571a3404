#include "trace/text_format.hpp"

#include <charconv>
#include <memory>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "trace/builder.hpp"

namespace hps::trace {

namespace {

const char* text_op_name(OpType t) {
  switch (t) {
    case OpType::kCompute: return "compute";
    case OpType::kSend: return "send";
    case OpType::kIsend: return "isend";
    case OpType::kRecv: return "recv";
    case OpType::kIrecv: return "irecv";
    case OpType::kWait: return "wait";
    case OpType::kWaitAll: return "waitall";
    case OpType::kBarrier: return "barrier";
    case OpType::kBcast: return "bcast";
    case OpType::kReduce: return "reduce";
    case OpType::kAllreduce: return "allreduce";
    case OpType::kAllgather: return "allgather";
    case OpType::kAlltoall: return "alltoall";
    case OpType::kAlltoallv: return "alltoallv";
    case OpType::kGather: return "gather";
    case OpType::kScatter: return "scatter";
    case OpType::kReduceScatter: return "reducescatter";
    case OpType::kScan: return "scan";
  }
  return "?";
}

/// key=value attribute bag parsed from one line.
class Attrs {
 public:
  Attrs(const std::vector<std::string>& tokens, std::size_t first, int line) : line_(line) {
    for (std::size_t i = first; i < tokens.size(); ++i) {
      const auto eq = tokens[i].find('=');
      HPS_REQUIRE(eq != std::string::npos && eq > 0,
                  "line " + std::to_string(line) + ": expected key=value, got '" +
                      tokens[i] + "'");
      kv_[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
    }
  }

  bool has(const std::string& key) const { return kv_.contains(key); }

  std::int64_t get_int(const std::string& key) const {
    const auto it = kv_.find(key);
    HPS_REQUIRE(it != kv_.end(),
                "line " + std::to_string(line_) + ": missing attribute '" + key + "'");
    std::int64_t v = 0;
    const auto [p, ec] =
        std::from_chars(it->second.data(), it->second.data() + it->second.size(), v);
    HPS_REQUIRE(ec == std::errc() && p == it->second.data() + it->second.size(),
                "line " + std::to_string(line_) + ": bad integer for '" + key + "'");
    return v;
  }

  std::int64_t get_int_or(const std::string& key, std::int64_t fallback) const {
    return has(key) ? get_int(key) : fallback;
  }

  std::string get_str(const std::string& key) const {
    const auto it = kv_.find(key);
    HPS_REQUIRE(it != kv_.end(),
                "line " + std::to_string(line_) + ": missing attribute '" + key + "'");
    return it->second;
  }

  std::vector<std::uint64_t> get_u64_list(const std::string& key) const {
    const std::string raw = get_str(key);
    std::vector<std::uint64_t> out;
    std::size_t pos = 0;
    while (pos < raw.size()) {
      const auto comma = raw.find(',', pos);
      const std::string part =
          raw.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
      std::uint64_t v = 0;
      const auto [p, ec] = std::from_chars(part.data(), part.data() + part.size(), v);
      HPS_REQUIRE(ec == std::errc() && p == part.data() + part.size(),
                  "line " + std::to_string(line_) + ": bad size list entry '" + part + "'");
      out.push_back(v);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    return out;
  }

 private:
  std::map<std::string, std::string> kv_;
  int line_;
};

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream ss(line);
  std::string tok;
  while (ss >> tok) {
    if (tok[0] == '#') break;  // trailing comment
    out.push_back(tok);
  }
  return out;
}

}  // namespace

void write_text_format(const Trace& t, std::ostream& os) {
  const auto& m = t.meta();
  os << "# hpst-text v1\n";
  os << "meta app=" << m.app << " variant=" << (m.variant.empty() ? "-" : m.variant)
     << " machine=" << m.machine << " ranks=" << m.nranks << " rpn=" << m.ranks_per_node
     << " seed=" << m.seed << "\n";
  for (CommId c = 1; c < static_cast<CommId>(t.num_comms()); ++c) {
    os << "comm " << c << " =";
    for (const Rank r : t.comm(c)) os << " " << r;
    os << "\n";
  }
  for (Rank r = 0; r < t.nranks(); ++r) {
    os << "rank " << r << "\n";
    const auto& rt = t.rank(r);
    for (const Event& e : rt.events) {
      os << "  " << text_op_name(e.type);
      switch (e.type) {
        case OpType::kCompute:
          break;
        case OpType::kSend:
        case OpType::kRecv:
          os << " peer=" << e.peer << " bytes=" << e.bytes << " tag=" << e.tag;
          break;
        case OpType::kIsend:
        case OpType::kIrecv:
          os << " peer=" << e.peer << " bytes=" << e.bytes << " tag=" << e.tag
             << " req=" << e.request;
          break;
        case OpType::kWait:
          os << " req=" << e.request;
          break;
        case OpType::kWaitAll:
          break;
        case OpType::kBarrier:
          os << " comm=" << e.comm;
          break;
        case OpType::kAlltoallv: {
          os << " comm=" << e.comm << " sizes=";
          const auto& vl = rt.vlists[static_cast<std::size_t>(e.aux)];
          for (std::size_t i = 0; i < vl.size(); ++i) os << (i ? "," : "") << vl[i];
          break;
        }
        default:
          os << " comm=" << e.comm << " bytes=" << e.bytes;
          if (is_rooted(e.type)) os << " root=" << e.peer;
          break;
      }
      os << " dur=" << e.duration << "\n";
    }
    os << "endrank\n";
  }
  HPS_REQUIRE(static_cast<bool>(os), "text trace write failed");
}

Trace read_text_format(std::istream& is) {
  std::string line;
  int lineno = 0;
  bool have_meta = false;
  Trace t;
  std::vector<std::unique_ptr<RankBuilder>> builders;
  RankBuilder* cur = nullptr;
  // Sub-communicators must be declared before use; remember declared ids.
  CommId declared_comms = 0;

  auto require_meta = [&] {
    HPS_REQUIRE(have_meta, "line " + std::to_string(lineno) + ": 'meta' must come first");
  };

  while (std::getline(is, line)) {
    ++lineno;
    const auto toks = tokenize(line);
    if (toks.empty()) continue;
    const std::string& kw = toks[0];

    if (kw == "meta") {
      HPS_REQUIRE(!have_meta, "line " + std::to_string(lineno) + ": duplicate 'meta'");
      const Attrs a(toks, 1, lineno);
      TraceMeta m;
      m.app = a.get_str("app");
      m.variant = a.get_str("variant") == "-" ? "" : a.get_str("variant");
      m.machine = a.get_str("machine");
      const std::int64_t ranks = a.get_int("ranks");
      const std::int64_t rpn = a.get_int_or("rpn", 16);
      m.seed = static_cast<std::uint64_t>(a.get_int_or("seed", 0));
      HPS_REQUIRE(ranks > 0, "line " + std::to_string(lineno) + ": ranks must be > 0");
      HPS_REQUIRE(ranks <= kMaxRanks,
                  "line " + std::to_string(lineno) + ": ranks out of range");
      HPS_REQUIRE(rpn > 0 && rpn <= kMaxRanks,
                  "line " + std::to_string(lineno) + ": rpn out of range");
      m.nranks = static_cast<Rank>(ranks);
      m.ranks_per_node = static_cast<int>(rpn);
      t = Trace(std::move(m));
      builders.clear();
      for (Rank r = 0; r < t.nranks(); ++r)
        builders.push_back(std::make_unique<RankBuilder>(t, r));
      have_meta = true;
      continue;
    }
    require_meta();

    if (kw == "comm") {
      HPS_REQUIRE(toks.size() >= 4 && toks[2] == "=",
                  "line " + std::to_string(lineno) + ": expected 'comm <id> = <ranks...>'");
      const CommId id = static_cast<CommId>(std::atoi(toks[1].c_str()));
      HPS_REQUIRE(id == declared_comms + 1,
                  "line " + std::to_string(lineno) + ": comm ids must be declared in order");
      std::vector<Rank> members;
      for (std::size_t i = 3; i < toks.size(); ++i)
        members.push_back(static_cast<Rank>(std::atoi(toks[i].c_str())));
      for (const Rank r : members)
        HPS_REQUIRE(r >= 0 && r < t.nranks(),
                    "line " + std::to_string(lineno) + ": comm member out of range");
      HPS_REQUIRE(!has_duplicate_members(members),
                  "line " + std::to_string(lineno) + ": duplicate comm member");
      t.add_comm(std::move(members));
      declared_comms = id;
      continue;
    }
    if (kw == "rank") {
      HPS_REQUIRE(toks.size() == 2, "line " + std::to_string(lineno) + ": expected 'rank <r>'");
      const Rank r = static_cast<Rank>(std::atoi(toks[1].c_str()));
      HPS_REQUIRE(r >= 0 && r < t.nranks(),
                  "line " + std::to_string(lineno) + ": rank out of range");
      cur = builders[static_cast<std::size_t>(r)].get();
      continue;
    }
    if (kw == "endrank") {
      cur = nullptr;
      continue;
    }
    HPS_REQUIRE(cur != nullptr,
                "line " + std::to_string(lineno) + ": event outside a rank block");

    const Attrs a(toks, 1, lineno);
    const auto dur = static_cast<SimTime>(a.get_int_or("dur", 0));
    HPS_REQUIRE(dur >= 0, "line " + std::to_string(lineno) + ": dur must be >= 0");
    const auto comm = static_cast<CommId>(a.get_int_or("comm", kCommWorld));
    HPS_REQUIRE(comm >= 0 && comm < static_cast<CommId>(t.num_comms()),
                "line " + std::to_string(lineno) + ": unknown comm");
    if (kw == "compute") {
      cur->compute(dur);
    } else if (kw == "send") {
      cur->send(static_cast<Rank>(a.get_int("peer")),
                static_cast<std::uint64_t>(a.get_int("bytes")),
                static_cast<Tag>(a.get_int_or("tag", 0)), dur);
    } else if (kw == "recv") {
      cur->recv(static_cast<Rank>(a.get_int("peer")),
                static_cast<std::uint64_t>(a.get_int("bytes")),
                static_cast<Tag>(a.get_int_or("tag", 0)), dur);
    } else if (kw == "isend" || kw == "irecv") {
      // Request ids are re-assigned by the builder; the declared 'req' only
      // names the request for later 'wait' lines within this rank.
      const auto declared = static_cast<std::int32_t>(a.get_int("req"));
      const std::int32_t actual =
          kw == "isend" ? cur->isend(static_cast<Rank>(a.get_int("peer")),
                                     static_cast<std::uint64_t>(a.get_int("bytes")),
                                     static_cast<Tag>(a.get_int_or("tag", 0)), dur)
                        : cur->irecv(static_cast<Rank>(a.get_int("peer")),
                                     static_cast<std::uint64_t>(a.get_int("bytes")),
                                     static_cast<Tag>(a.get_int_or("tag", 0)), dur);
      HPS_REQUIRE(declared == actual,
                  "line " + std::to_string(lineno) +
                      ": request ids must be dense per rank, in issue order (expected " +
                      std::to_string(actual) + ")");
    } else if (kw == "wait") {
      cur->wait(static_cast<std::int32_t>(a.get_int("req")), dur);
    } else if (kw == "waitall") {
      cur->waitall(dur);
    } else if (kw == "barrier") {
      cur->barrier(dur, comm);
    } else if (kw == "allreduce") {
      cur->allreduce(static_cast<std::uint64_t>(a.get_int("bytes")), dur, comm);
    } else if (kw == "allgather") {
      cur->allgather(static_cast<std::uint64_t>(a.get_int("bytes")), dur, comm);
    } else if (kw == "alltoall") {
      cur->alltoall(static_cast<std::uint64_t>(a.get_int("bytes")), dur, comm);
    } else if (kw == "reducescatter") {
      cur->reduce_scatter(static_cast<std::uint64_t>(a.get_int("bytes")), dur, comm);
    } else if (kw == "scan") {
      cur->scan(static_cast<std::uint64_t>(a.get_int("bytes")), dur, comm);
    } else if (kw == "alltoallv") {
      const auto sizes = a.get_u64_list("sizes");
      HPS_REQUIRE(sizes.size() == t.comm(comm).size(),
                  "line " + std::to_string(lineno) + ": sizes list must match comm size");
      cur->alltoallv(sizes, dur, comm);
    } else if (kw == "bcast") {
      cur->bcast(static_cast<Rank>(a.get_int("root")),
                 static_cast<std::uint64_t>(a.get_int("bytes")), dur, comm);
    } else if (kw == "reduce") {
      cur->reduce(static_cast<Rank>(a.get_int("root")),
                  static_cast<std::uint64_t>(a.get_int("bytes")), dur, comm);
    } else if (kw == "gather") {
      cur->gather(static_cast<Rank>(a.get_int("root")),
                  static_cast<std::uint64_t>(a.get_int("bytes")), dur, comm);
    } else if (kw == "scatter") {
      cur->scatter(static_cast<Rank>(a.get_int("root")),
                   static_cast<std::uint64_t>(a.get_int("bytes")), dur, comm);
    } else {
      HPS_THROW("line " + std::to_string(lineno) + ": unknown keyword '" + kw + "'");
    }
  }
  HPS_REQUIRE(have_meta, "text trace has no 'meta' line");
  return t;
}

void save_text(const Trace& t, const std::string& path) {
  std::ofstream os(path);
  HPS_REQUIRE(os.is_open(), "cannot open text trace for writing: " + path);
  write_text_format(t, os);
}

Trace load_text(const std::string& path) {
  std::ifstream is(path);
  HPS_REQUIRE(is.is_open(), "cannot open text trace: " + path);
  return read_text_format(is);
}

}  // namespace hps::trace
