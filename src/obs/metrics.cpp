#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/require.h"

namespace topick::obs {

namespace {

// Trackable value range. Values below the floor are exact zeros for our
// metrics (cycle counts, byte counts); values above the ceiling do not occur
// in any workload this codebase can express, but the clamp keeps the bucket
// footprint provably bounded either way.
constexpr double kMinTrackable = 1e-9;
constexpr double kMaxTrackable = 1e18;

}  // namespace

LogHistogram::LogHistogram(double relative_error) : alpha_(relative_error) {
  require(relative_error > 0.0 && relative_error < 0.5,
          "LogHistogram: relative_error must be in (0, 0.5)");
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
}

int LogHistogram::index_of(double value) const {
  // Bucket i covers (gamma^(i-1), gamma^i]; ceil keeps the upper edge in i.
  return static_cast<int>(std::ceil(std::log(value) * inv_log_gamma_));
}

void LogHistogram::add(double value) {
  ++total_;
  sum_ += value;
  if (total_ == 1) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  if (!(value >= kMinTrackable)) {  // <= 0, subnormal-small, or NaN
    ++zero_count_;
    return;
  }
  const int idx = index_of(std::min(value, kMaxTrackable));
  if (counts_.empty()) {
    base_index_ = idx;
    counts_.push_back(0);
  } else if (idx < base_index_) {
    counts_.insert(counts_.begin(),
                   static_cast<std::size_t>(base_index_ - idx), 0);
    base_index_ = idx;
  } else if (idx >= base_index_ + static_cast<int>(counts_.size())) {
    counts_.resize(static_cast<std::size_t>(idx - base_index_) + 1, 0);
  }
  ++counts_[static_cast<std::size_t>(idx - base_index_)];
}

double LogHistogram::quantile(double p) const {
  require(p >= 0.0 && p <= 100.0, "LogHistogram::quantile: p in [0, 100]");
  if (total_ == 0) return 0.0;
  // Nearest-rank ordinal among the sorted samples (0-based), matching the
  // round(p/100 * (n-1)) convention the error-bound test compares against.
  const double rank =
      p / 100.0 * static_cast<double>(total_ - 1);
  const auto target = static_cast<std::uint64_t>(std::llround(rank));
  if (target < zero_count_) return 0.0;
  std::uint64_t cum = zero_count_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum > target) {
      const int idx = base_index_ + static_cast<int>(i);
      // Midpoint in the 2/(gamma+1) sense: within alpha of every value the
      // bucket (gamma^(idx-1), gamma^idx] can hold.
      const double estimate =
          2.0 * std::pow(gamma_, idx) / (gamma_ + 1.0);
      return std::clamp(estimate, min_, max_);
    }
  }
  return max_;  // unreachable unless counts lag total_ (all-zero samples)
}

LogHistogram& MetricsRegistry::histogram(const std::string& name,
                                         double relative_error) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, LogHistogram(relative_error)).first;
  }
  return it->second;
}

namespace {

void json_number(std::ostream& out, double v) {
  if (std::isfinite(v)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << buf;
  } else {
    out << "0";
  }
}

std::string pad(int indent) { return std::string(static_cast<std::size_t>(indent), ' '); }

}  // namespace

void MetricsRegistry::write_json(std::ostream& out, int indent) const {
  const std::string p0 = pad(indent);
  const std::string p1 = pad(indent + 2);
  const std::string p2 = pad(indent + 4);
  out << "{\n" << p1 << "\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "\n" : ",\n") << p2 << '"' << name << "\": " << c.value;
    first = false;
  }
  out << (first ? "" : "\n" + p1) << "},\n" << p1 << "\"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "\n" : ",\n") << p2 << '"' << name << "\": ";
    json_number(out, g.value);
    first = false;
  }
  out << (first ? "" : "\n" + p1) << "},\n" << p1 << "\"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n" : ",\n") << p2 << '"' << name << "\": {"
        << "\"count\": " << h.count() << ", \"sum\": ";
    json_number(out, h.sum());
    out << ", \"min\": ";
    json_number(out, h.min());
    out << ", \"max\": ";
    json_number(out, h.max());
    out << ", \"mean\": ";
    json_number(out, h.mean());
    out << ", \"p50\": ";
    json_number(out, h.quantile(50.0));
    out << ", \"p90\": ";
    json_number(out, h.quantile(90.0));
    out << ", \"p99\": ";
    json_number(out, h.quantile(99.0));
    out << ", \"relative_error\": ";
    json_number(out, h.relative_error());
    out << ", \"buckets_used\": " << h.buckets_used() << "}";
    first = false;
  }
  out << (first ? "" : "\n" + p1) << "}\n" << p0 << "}";
}

}  // namespace topick::obs
