#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace topick::obs {

TraceRecorder::TraceRecorder(std::size_t tracks)
    : epoch_(std::chrono::steady_clock::now()) {
  ensure_tracks(tracks == 0 ? 1 : tracks);
}

void TraceRecorder::ensure_tracks(std::size_t n) {
  while (buffers_.size() < n) {
    buffers_.push_back(std::make_unique<std::vector<TraceEvent>>());
    buffers_.back()->reserve(1024);
  }
}

void TraceRecorder::counter(std::size_t track, TraceDomain domain,
                            const char* name, std::uint64_t ts,
                            const char* key, double value) {
  TraceEvent e;
  e.name = name;
  e.cat = "counter";
  e.phase = 'C';
  e.domain = domain;
  e.ts = ts;
  e.arg(key, value);
  record(track, e);
}

std::size_t TraceRecorder::event_count() const {
  std::size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->size();
  return n;
}

namespace {

constexpr int pid_of(TraceDomain domain) {
  switch (domain) {
    case TraceDomain::engine: return 1;
    case TraceDomain::memsim: return 2;
    case TraceDomain::request: return 3;
  }
  return 1;
}

// Chrome trace ts is in microseconds. Wall domains record ns -> us with
// fractional precision; the memsim domain records cycles and exports them
// 1:1 (1 cycle rendered as 1 us — the paper's 1 GHz DRAM clock makes that
// literal).
void write_ts(std::ostream& out, TraceDomain domain, std::uint64_t ts) {
  char buf[48];
  if (domain == TraceDomain::memsim) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64, ts);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ts / 1000,
                  static_cast<unsigned>(ts % 1000));
  }
  out << buf;
}

void write_meta(std::ostream& out, const char* kind, int pid, int tid,
                const std::string& name, bool* first) {
  out << (*first ? "" : ",\n") << "  {\"name\": \"" << kind
      << "\", \"ph\": \"M\", \"pid\": " << pid << ", \"tid\": " << tid
      << ", \"args\": {\"name\": \"" << name << "\"}}";
  *first = false;
}

void write_number(std::ostream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

}  // namespace

void TraceRecorder::write_chrome_json(std::ostream& out) const {
  out << "{\n\"traceEvents\": [\n";
  bool first = true;
  write_meta(out, "process_name", 1, 0, "engine (wall clock)", &first);
  write_meta(out, "process_name", 2, 0, "memsim (DRAM cycles, 1 cycle = 1us)",
             &first);
  write_meta(out, "process_name", 3, 0, "requests (wall clock)", &first);
  for (std::size_t t = 0; t < buffers_.size(); ++t) {
    write_meta(out, "thread_name", 1, static_cast<int>(t),
               t == 0 ? "worker 0 (main)" : "worker " + std::to_string(t),
               &first);
  }

  for (std::size_t t = 0; t < buffers_.size(); ++t) {
    for (const TraceEvent& e : *buffers_[t]) {
      out << (first ? "" : ",\n") << "  {\"name\": \"" << e.name
          << "\", \"cat\": \"" << e.cat << "\", \"ph\": \"" << e.phase
          << "\", \"pid\": " << pid_of(e.domain)
          << ", \"tid\": " << t << ", \"ts\": ";
      write_ts(out, e.domain, e.ts);
      if (e.phase == 'X') {
        out << ", \"dur\": ";
        write_ts(out, e.domain, e.dur);
      }
      if (e.phase == 'b' || e.phase == 'e' || e.phase == 'n') {
        out << ", \"id\": " << e.id;
      }
      if (e.phase == 'i') out << ", \"s\": \"t\"";
      const bool has_cycle =
          e.domain != TraceDomain::memsim && e.cycle != 0;
      if (e.n_args > 0 || has_cycle) {
        out << ", \"args\": {";
        bool first_arg = true;
        for (std::uint8_t a = 0; a < e.n_args; ++a) {
          out << (first_arg ? "" : ", ") << '"' << e.args[a].key << "\": ";
          write_number(out, e.args[a].value);
          first_arg = false;
        }
        if (has_cycle) {
          out << (first_arg ? "" : ", ") << "\"dram_cycle\": " << e.cycle;
        }
        out << "}";
      }
      out << "}";
      first = false;
    }
  }
  out << "\n],\n\"displayTimeUnit\": \"ms\"";
  if (!metadata_.empty()) {
    out << ",\n\"otherData\": {";
    bool first_md = true;
    for (const auto& [key, value] : metadata_) {
      out << (first_md ? "" : ", ") << '"' << key << "\": \"" << value << '"';
      first_md = false;
    }
    out << "}";
  }
  out << "\n}\n";
}

void TraceRecorder::set_metadata(const std::string& key,
                                 const std::string& value) {
  for (auto& entry : metadata_) {
    if (entry.first == key) {
      entry.second = value;
      return;
    }
  }
  metadata_.emplace_back(key, value);
}

bool TraceRecorder::write_chrome_json_file(const std::string& path,
                                           std::string* error) const {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  write_chrome_json(out);
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

}  // namespace topick::obs
