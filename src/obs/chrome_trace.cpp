#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <set>

#include "common/json.hpp"

namespace miro::obs {

namespace {

constexpr double kSimTickUs = 1000.0;  ///< microseconds rendered per sim tick
constexpr std::uint32_t kWallPid = 1;  ///< pid of the wall-clock span process
constexpr std::uint32_t kSimPid = 2;   ///< pid of the sim-time event process

// One comma-separated JSON array element writer.
class EventList {
 public:
  explicit EventList(std::ostream& out) : out_(out) {}
  std::ostream& next() {
    if (!first_) out_ << ",\n";
    first_ = false;
    return out_;
  }

 private:
  std::ostream& out_;
  bool first_ = true;
};

void write_metadata(EventList& list, std::uint32_t pid, std::uint32_t tid,
                    const char* kind, const std::string& name) {
  list.next() << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
              << ",\"name\":\"" << kind << "\",\"args\":{\"name\":\""
              << json_escape(name) << "\"}}";
}

void write_spans(EventList& list, const ProfileRegistry& profile) {
  write_metadata(list, kWallPid, 0, "process_name",
                 "wall clock (profiler spans)");
  // One track per nesting depth: spans at equal depth never overlap in the
  // single-threaded simulator, so each track's B/E events pair trivially.
  std::set<std::uint32_t> depths;
  for (const ProfileRegistry::SpanRecord& span : profile.spans())
    depths.insert(span.depth);
  for (std::uint32_t depth : depths) {
    write_metadata(list, kWallPid, depth, "thread_name",
                   "depth " + std::to_string(depth));
  }
  // The span log is in completion order (children before parents); sort each
  // track by begin time so B/E alternate chronologically.
  std::vector<const ProfileRegistry::SpanRecord*> ordered;
  ordered.reserve(profile.spans().size());
  for (const ProfileRegistry::SpanRecord& span : profile.spans())
    ordered.push_back(&span);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const auto* a, const auto* b) {
                     if (a->begin_ns != b->begin_ns)
                       return a->begin_ns < b->begin_ns;
                     return a->depth < b->depth;  // parents open first
                   });
  for (const ProfileRegistry::SpanRecord* span : ordered) {
    const std::string name = json_escape(span->name);
    const std::string category =
        json_escape(span->category[0] != '\0' ? span->category : "span");
    list.next() << "{\"ph\":\"B\",\"pid\":" << kWallPid
                << ",\"tid\":" << span->depth << ",\"ts\":"
                << json_number(static_cast<double>(span->begin_ns) / 1000.0)
                << ",\"name\":\"" << name << "\",\"cat\":\"" << category
                << "\"}";
    list.next() << "{\"ph\":\"E\",\"pid\":" << kWallPid
                << ",\"tid\":" << span->depth << ",\"ts\":"
                << json_number(static_cast<double>(span->end_ns) / 1000.0)
                << ",\"name\":\"" << name << "\",\"cat\":\"" << category
                << "\"}";
  }
}

void write_sim_events(EventList& list, const std::vector<Event>& events) {
  write_metadata(list, kSimPid, 0, "process_name", "sim time (event log)");
  std::set<std::uint32_t> actors;
  for (const Event& event : events) actors.insert(event.actor);
  for (std::uint32_t actor : actors) {
    write_metadata(list, kSimPid, actor, "thread_name",
                   "AS " + std::to_string(actor));
  }
  for (const Event& event : events) {
    std::ostream& out = list.next();
    out << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << kSimPid
        << ",\"tid\":" << event.actor << ",\"ts\":"
        << json_number(static_cast<double>(event.time) * kSimTickUs)
        << ",\"name\":\"" << to_string(event.kind)
        << "\",\"cat\":\"sim\",\"args\":{\"sim_time\":" << event.time;
    if (event.id != 0) out << ",\"id\":" << event.id;
    if (event.parent != 0) out << ",\"parent\":" << event.parent;
    if (event.peer != 0) out << ",\"peer\":" << event.peer;
    if (event.negotiation != 0)
      out << ",\"negotiation\":" << event.negotiation;
    if (event.tunnel != 0) out << ",\"tunnel\":" << event.tunnel;
    if (event.value != 0) out << ",\"value\":" << event.value;
    if (event.detail[0] != '\0')
      out << ",\"detail\":\"" << json_escape(event.detail) << "\"";
    out << "}}";
  }
}

}  // namespace

void write_chrome_trace(std::ostream& out, const ProfileRegistry* profile,
                        const std::vector<Event>& sim_events) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  EventList list(out);
  if (profile != nullptr) write_spans(list, *profile);
  if (!sim_events.empty()) write_sim_events(list, sim_events);
  out << "\n]}\n";
}

bool write_chrome_trace_file(const std::string& path,
                             const ProfileRegistry* profile,
                             const std::vector<Event>& sim_events) {
  std::ofstream out(path);
  if (out) {
    write_chrome_trace(out, profile, sim_events);
    out.flush();
  }
  if (!out) {
    std::fprintf(stderr, "chrome_trace: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace miro::obs
