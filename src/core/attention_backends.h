// model::AttentionBackend adapters: run the exact references, Token-Picker,
// and SpAtten inside real transformer decoding. Used for PPL calibration,
// the locality study (Fig. 4a), and the generation examples.
//
// All three quantized backends keep a per-(layer, head) QuantizedKvCache
// synced to the float view they are handed, so decode quantizes each token
// once at append instead of re-quantizing the whole head every step (the
// pre-cache behavior made PPL-calibration runs quadratic in context length).
// Results are bit-identical to the from-scratch path.
#pragma once

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "core/access_stats.h"
#include "core/quantized_kv_cache.h"
#include "core/spatten.h"
#include "core/token_picker.h"
#include "model/transformer.h"

namespace topick {

// Exact attention over 12-bit quantized Q/K/V — the no-pruning quality
// reference for every PPL comparison (isolates pruning loss from quant loss).
class ExactQuantizedBackend final : public AttentionBackend {
 public:
  explicit ExactQuantizedBackend(const fx::QuantParams& quant = {});
  void attend(std::span<const float> q, const KvHeadView& kv,
              std::span<float> out, const AttentionContext& ctx) override;
  void begin_sequence() override;

 private:
  fx::QuantParams quant_;
  std::map<std::pair<int, int>, QuantizedKvCache> caches_;
};

// Token-Picker pruning inside decode; accumulates access statistics across
// every (layer, head, position) attention instance of the sequence.
class TokenPickerBackend final : public AttentionBackend {
 public:
  explicit TokenPickerBackend(const TokenPickerConfig& config);
  void attend(std::span<const float> q, const KvHeadView& kv,
              std::span<float> out, const AttentionContext& ctx) override;
  void begin_sequence() override;

  const AccessStats& stats() const { return stats_; }
  void reset_stats() { stats_ = AccessStats{}; }
  double max_oracle_dropped_mass() const { return max_dropped_mass_; }

 private:
  TokenPickerAttention op_;
  AccessStats stats_;
  double max_dropped_mass_ = 0.0;
  std::map<std::pair<int, int>, QuantizedKvCache> caches_;
  TokenPickerResult result_;  // reused across attends
};

// SpAtten cascade pruning inside decode, with access accounting.
class SpAttenBackend final : public AttentionBackend {
 public:
  SpAttenBackend(const SpAttenConfig& config, int n_layer, int n_head,
                 std::size_t max_tokens);
  void attend(std::span<const float> q, const KvHeadView& kv,
              std::span<float> out, const AttentionContext& ctx) override;
  void begin_sequence() override;

  const AccessStats& stats() const { return stats_; }
  void reset_stats() { stats_ = AccessStats{}; }

 private:
  SpAttenConfig config_;
  SpAttenPruner pruner_;
  int n_head_;
  std::size_t max_tokens_;
  AccessStats stats_;
  std::map<std::pair<int, int>, QuantizedKvCache> caches_;
  fx::QuantizedVector q_scratch_;
  std::vector<double> scores_, probs_;  // reused across attends
  std::vector<std::int16_t> value_scratch_;  // one unpacked value row
};

// Exact float attention that hands every probability vector to a sink —
// the probe behind the Fig. 4(a) locality heatmap.
struct ProbRecord {
  int layer = 0;
  int head = 0;
  int position = 0;
  std::vector<double> probs;
};

class RecordingBackend final : public AttentionBackend {
 public:
  using Sink = std::function<void(const ProbRecord&)>;
  explicit RecordingBackend(Sink sink);
  void attend(std::span<const float> q, const KvHeadView& kv,
              std::span<float> out, const AttentionContext& ctx) override;

 private:
  Sink sink_;
};

}  // namespace topick
