#include "obs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/json.hpp"

namespace hps::obs {

const char* interval_kind_name(IntervalKind k) {
  switch (k) {
    case IntervalKind::kCompute: return "compute";
    case IntervalKind::kSend: return "send";
    case IntervalKind::kRecv: return "recv";
    case IntervalKind::kRendezvous: return "rendezvous";
    case IntervalKind::kWait: return "wait";
    case IntervalKind::kCollective: return "collective";
    case IntervalKind::kNetStall: return "net-stall";
  }
  return "?";
}

void TimelineRecorder::set_track_name(std::int32_t track, std::string name) {
  track_names_[track] = std::move(name);
}

SimTime TimelineRecorder::max_end() const {
  SimTime m = 0;
  for (const Interval& iv : intervals_) m = std::max(m, iv.end);
  return m;
}

void TimelineRecorder::write_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[96];

  // Thread-name metadata rows: explicit names first, defaults for any track
  // that appears in the data but was never named.
  std::vector<std::int32_t> tracks;
  for (const auto& [track, name] : track_names_) tracks.push_back(track);
  for (const Interval& iv : intervals_)
    if (!track_names_.contains(iv.track)) tracks.push_back(iv.track);
  std::sort(tracks.begin(), tracks.end());
  tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());
  for (const std::int32_t track : tracks) {
    std::string name;
    if (const auto it = track_names_.find(track); it != track_names_.end()) {
      name = it->second;
    } else if (track >= kLinkTrackBase) {
      name = "link " + std::to_string(track - kLinkTrackBase);
    } else {
      name = "rank " + std::to_string(track);
    }
    if (!first) os << ",";
    first = false;
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << track
       << ",\"args\":{\"name\":" << json_string(name) << "}}";
  }

  for (const Interval& iv : intervals_) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << interval_kind_name(iv.kind)
       << "\",\"cat\":\"virtual\",\"ph\":\"X\",\"pid\":1,\"tid\":" << iv.track;
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(iv.start) / 1e3,
                  static_cast<double>(iv.end - iv.start) / 1e3);
    os << buf;
    if (iv.detail != 0) os << ",\"args\":{\"detail\":" << iv.detail << "}";
    os << "}";
  }
  os << "]}\n";
}

}  // namespace hps::obs
