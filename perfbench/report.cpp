#include "report.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <thread>

#include "fixedpoint/dispatch.h"

#ifndef TOPICK_BENCH_BUILD_TYPE
#define TOPICK_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- JsonWriter -------------------------------------------------------------

namespace {

void write_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

void JsonWriter::prefix(const char* key) {
  if (!first_.empty()) {
    if (!first_.back()) out_ << ", ";
    first_.back() = false;
  }
  if (key != nullptr) {
    write_string(out_, key);
    out_ << ": ";
  }
}

JsonWriter& JsonWriter::begin_object(const char* key) {
  prefix(key);
  out_ << '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  first_.pop_back();
  out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array(const char* key) {
  prefix(key);
  out_ << '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  first_.pop_back();
  out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::field(const char* key, double value) {
  prefix(key);
  if (!std::isfinite(value)) {
    out_ << "null";
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ << buf;
  }
  return *this;
}

JsonWriter& JsonWriter::field(const char* key, std::uint64_t value) {
  prefix(key);
  out_ << value;
  return *this;
}

JsonWriter& JsonWriter::field(const char* key, std::int64_t value) {
  prefix(key);
  out_ << value;
  return *this;
}

JsonWriter& JsonWriter::field(const char* key, bool value) {
  prefix(key);
  out_ << (value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::field(const char* key, const std::string& value) {
  prefix(key);
  write_string(out_, value);
  return *this;
}

// ---- SpanLog ----------------------------------------------------------------

std::uint64_t SpanLog::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

SpanLog::Scope::Scope(SpanLog* log, const char* name)
    : log_(log != nullptr && log->enabled_ ? log : nullptr) {
  if (log_ == nullptr) return;
  index_ = log_->spans_.size();
  Span span;
  span.name = name;
  span.parent = log_->open_;
  log_->spans_.push_back(span);
  log_->open_ = static_cast<std::int64_t>(index_);
  log_->spans_[index_].start_ns = log_->now_ns();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  Span& span = log_->spans_[index_];
  span.end_ns = log_->now_ns();
  if (span.parent >= 0) {
    log_->spans_[static_cast<std::size_t>(span.parent)].child_ns +=
        span.end_ns - span.start_ns;
  }
  log_->open_ = span.parent;
}

void SpanLog::Scope::count(std::uint64_t n) {
  if (log_ != nullptr) log_->spans_[index_].count += n;
}

void SpanLog::write_chrome_json(std::ostream& out) const {
  JsonWriter json(out);
  json.begin_object().begin_array("traceEvents");
  for (const Span& span : spans_) {
    json.begin_object()
        .field("name", span.name)
        .field("ph", "X")
        .field("pid", 1)
        .field("tid", 1)
        .field("ts", static_cast<double>(span.start_ns) / 1e3)
        .field("dur", static_cast<double>(span.end_ns - span.start_ns) / 1e3)
        .begin_object("args")
        .field("count", span.count)
        .field("self_us",
               static_cast<double>(span.end_ns - span.start_ns -
                                   span.child_ns) /
                   1e3)
        .end_object()
        .end_object();
  }
  json.end_array().end_object();
  out << '\n';
}

void SpanLog::write_summary(JsonWriter& json) const {
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Totals> by_name;
  for (const Span& span : spans_) {
    Totals& t = by_name[span.name];
    ++t.calls;
    t.total_ns += span.end_ns - span.start_ns;
    t.self_ns += span.end_ns - span.start_ns - span.child_ns;
    t.count += span.count;
  }
  json.begin_object("spans");
  for (const auto& [name, t] : by_name) {
    json.begin_object(name.c_str())
        .field("calls", t.calls)
        .field("total_ms", static_cast<double>(t.total_ns) / 1e6)
        .field("self_ms", static_cast<double>(t.self_ns) / 1e6)
        .field("count", t.count)
        .end_object();
  }
  json.end_object();
}

// ---- Report / fingerprint ---------------------------------------------------

bool Report::correct() const {
  if (failed != 0 || attempted == 0) return false;
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

namespace {

std::uint64_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::uint64_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

void write_fingerprint(JsonWriter& json) {
  json.begin_object("host")
      .field("nproc", available_cpus())
      .field("hardware_concurrency",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("kernel_isa", topick::fx::kernel_isa_name())
      .field("kernel_isa_forced", topick::fx::kernel_isa_forced())
      .field("compiler", compiler_id())
      .field("build_type", TOPICK_BENCH_BUILD_TYPE)
      .end_object();
}

}  // namespace perfbench
