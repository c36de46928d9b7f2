// Streaming metrics for the serve runtime: counters, gauges, and
// log-bucketed histograms with bounded memory and a proven quantile error
// bound. serve::export_fleet_metrics builds the latency histograms from
// FleetMetrics' exact sample vectors.
//
// LogHistogram is a DDSketch-style sketch: for a configured relative
// accuracy alpha, values map to geometric buckets of ratio
// gamma = (1 + alpha) / (1 - alpha), and quantile() returns the bucket
// estimate 2 * gamma^i / (gamma + 1), which is within alpha relative error
// of the true nearest-rank sample quantile (tests/obs_test.cpp checks the
// bound against the exact sort-based percentile). Memory is bounded by the
// *value range*, not the sample count — [1e-9, 1e18] at alpha = 1% is under
// 3200 buckets.
//
// Everything here is deterministic: identical sample sequences produce
// identical bucket contents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace topick::obs {

class LogHistogram {
 public:
  // relative_error must be in (0, 0.5); 0.01 keeps p50..p99 within 1 %.
  explicit LogHistogram(double relative_error = 0.01);

  void add(double value);

  std::uint64_t count() const { return total_; }
  double sum() const { return sum_; }
  double mean() const { return total_ ? sum_ / static_cast<double>(total_) : 0.0; }
  double min() const { return total_ ? min_ : 0.0; }
  double max() const { return total_ ? max_ : 0.0; }
  double relative_error() const { return alpha_; }

  // Nearest-rank quantile estimate, p in [0, 100]. Guaranteed within
  // relative_error() of the exact sorted-sample nearest-rank percentile
  // (values <= 0 land in a dedicated zero bucket and report 0 exactly).
  double quantile(double p) const;

  // Bucket footprint actually allocated (bounded-memory evidence).
  std::size_t buckets_used() const { return counts_.size(); }

 private:
  int index_of(double value) const;

  double alpha_;
  double gamma_;
  double inv_log_gamma_;
  std::uint64_t zero_count_ = 0;  // values <= 0 (or below the min trackable)
  std::vector<std::uint64_t> counts_;
  int base_index_ = 0;  // absolute bucket index of counts_[0]
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t n = 1) { value += n; }
};

struct Gauge {
  double value = 0.0;
  void set(double v) { value = v; }
};

// Name -> metric registry with a deterministic (name-sorted) JSON snapshot.
// One registry snapshot replaces the two ad-hoc structs (AccessStats +
// FleetMetrics) the benches used to serialize by hand.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  LogHistogram& histogram(const std::string& name,
                          double relative_error = 0.01);

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, LogHistogram>& histograms() const {
    return histograms_;
  }

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  // min, max, mean, p50, p90, p99, relative_error, buckets_used}}}.
  void write_json(std::ostream& out, int indent = 0) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LogHistogram> histograms_;
};

}  // namespace topick::obs
