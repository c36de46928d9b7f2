// Result plumbing for the repo benchmark: a streaming JSON writer, the
// metric/check record every workload fills, the benchmark's own span log
// (the traced run's layer attribution), order statistics, and the host
// fingerprint stamped on every result.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

// Peak resident set of this process so far, in MB (getrusage ru_maxrss).
double peak_rss_mb();

// Minimal streaming JSON writer. Doubles are written with all 17 significant
// digits so simulated metrics round-trip exactly for the compare mode;
// non-finite values become null.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter& begin_object(const char* key = nullptr);
  JsonWriter& end_object();
  JsonWriter& begin_array(const char* key = nullptr);
  JsonWriter& end_array();

  JsonWriter& field(const char* key, double value);
  JsonWriter& field(const char* key, std::uint64_t value);
  JsonWriter& field(const char* key, std::int64_t value);
  JsonWriter& field(const char* key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  JsonWriter& field(const char* key, bool value);
  JsonWriter& field(const char* key, const std::string& value);
  JsonWriter& field(const char* key, const char* value) {
    return field(key, std::string(value));
  }

 private:
  void prefix(const char* key);

  std::ostream& out_;
  std::vector<bool> first_;  // one entry per open container
};

enum class Domain { host, sim };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Domain domain = Domain::host;
  std::uint64_t samples = 0;  // observations behind the value
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// The benchmark's own spans, recorded around every public call it makes.
// Spans nest by scope on one thread, so a span's parent is the innermost
// span open when it began; self time is its duration minus its children's.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Work units done inside the span (tokens, instances, kernel calls).
    void count(std::uint64_t n);

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  bool enabled() const { return enabled_; }

  // Chrome trace-event JSON (loads in Perfetto); spans on one track.
  void write_chrome_json(std::ostream& out) const;
  // Per span name: calls, summed duration and self time, summed counts.
  void write_summary(JsonWriter& json) const;

 private:
  struct Span {
    const char* name = nullptr;
    std::int64_t parent = -1;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t child_ns = 0;
    std::uint64_t count = 0;
  };
  std::uint64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::int64_t open_ = -1;
};

// Everything one run of one workload reports.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;  // timed calls into the workload's step API
  std::uint64_t failed = 0;     // of those, calls that threw

  void e2e(const std::string& name, double value, const std::string& unit,
           Domain domain, std::uint64_t samples) {
    end_to_end.push_back({name, value, unit, domain, samples});
  }
  void layer(const std::string& name, double value, const std::string& unit,
             Domain domain, std::uint64_t samples) {
    per_layer.push_back({name, value, unit, domain, samples});
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  }
  bool correct() const;
};

// nproc (CPUs this process may run on), kernel ISA and whether it was
// forced, compiler, build type.
void write_fingerprint(JsonWriter& json);

}  // namespace perfbench
