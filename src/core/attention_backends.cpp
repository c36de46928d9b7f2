#include "core/attention_backends.h"

#include <algorithm>
#include <cmath>

#include "common/expsum.h"
#include "common/require.h"

namespace topick {

namespace {

// Per-(layer, head) cache lookup; creates on first use, then syncs the cache
// to the (append-only) float view the transformer hands backends.
QuantizedKvCache& synced_cache(
    std::map<std::pair<int, int>, QuantizedKvCache>& caches,
    const AttentionContext& ctx, const KvHeadView& kv,
    const fx::QuantParams& quant) {
  auto [it, inserted] = caches.try_emplace(
      std::make_pair(ctx.layer, ctx.head), kv.head_dim,
      QuantizedKvCache::Config{quant, 1.0f});
  sync_cache_to_view(it->second, kv);
  return it->second;
}

}  // namespace

ExactQuantizedBackend::ExactQuantizedBackend(const fx::QuantParams& quant)
    : quant_(quant) {}

void ExactQuantizedBackend::begin_sequence() { caches_.clear(); }

void ExactQuantizedBackend::attend(std::span<const float> q,
                                   const KvHeadView& kv, std::span<float> out,
                                   const AttentionContext& ctx) {
  QuantizedKvCache& cache = synced_cache(caches_, ctx, kv, quant_);
  auto result = exact_attention_view(q, cache.view());
  require(out.size() == result.output.size(), "backend: out size mismatch");
  std::copy(result.output.begin(), result.output.end(), out.begin());
}

TokenPickerBackend::TokenPickerBackend(const TokenPickerConfig& config)
    : op_(config) {}

void TokenPickerBackend::begin_sequence() { caches_.clear(); }

void TokenPickerBackend::attend(std::span<const float> q, const KvHeadView& kv,
                                std::span<float> out,
                                const AttentionContext& ctx) {
  QuantizedKvCache& cache =
      synced_cache(caches_, ctx, kv, op_.config().quant);
  op_.attend_cached(q, cache, &result_);
  require(out.size() == result_.output.size(), "backend: out size mismatch");
  std::copy(result_.output.begin(), result_.output.end(), out.begin());
  stats_.merge(result_.stats);
  max_dropped_mass_ = std::max(max_dropped_mass_, result_.oracle_dropped_mass);
}

SpAttenBackend::SpAttenBackend(const SpAttenConfig& config, int n_layer,
                               int n_head, std::size_t max_tokens)
    : config_(config),
      pruner_(config, n_layer),
      n_head_(n_head),
      max_tokens_(max_tokens) {
  pruner_.begin_sequence(max_tokens);
}

void SpAttenBackend::begin_sequence() {
  pruner_.begin_sequence(max_tokens_);
  caches_.clear();
}

void SpAttenBackend::attend(std::span<const float> q,
                            const KvHeadView& head_kv, std::span<float> out,
                            const AttentionContext& ctx) {
  require(head_kv.len > 0, "SpAttenBackend: empty KV view");
  const QuantizedKvView kv =
      synced_cache(caches_, ctx, head_kv, config_.quant).view();
  require(q.size() == kv.head_dim, "SpAttenBackend: q size mismatch");
  const auto active = pruner_.active_tokens(ctx.layer, kv.len);
  const auto full_vector_bits =
      static_cast<std::uint64_t>(kv.head_dim) * kv.key_params.total_bits;

  // 12-bit operands for parity with ToPick; the cache quantized K/V once at
  // append, only the query is quantized per call.
  const double score_scale =
      quantize_query(q, kv.key_params, kv.key_params.scale, &q_scratch_);

  const std::int16_t* qd = q_scratch_.values.data();
  const std::int64_t offset_dot = kv.key_offset_dot(qd);
  scores_.resize(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    scores_[i] =
        static_cast<double>(kv.key_dot(qd, active[i], offset_dot)) *
        score_scale;
  }
  const double log_denom = log_sum_exp(scores_.data(), scores_.size());
  probs_.resize(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    probs_[i] = std::exp(scores_[i] - log_denom);
  }

  // Access accounting: K for every active token; V under local value pruning.
  stats_.tokens_total += kv.len;
  stats_.k_bits_baseline += full_vector_bits * kv.len;
  stats_.v_bits_baseline += full_vector_bits * kv.len;
  stats_.k_bits_fetched += full_vector_bits * active.size();
  // Every active token moved its full K vector — all chunks (clamped into
  // the histogram's last bucket for >8-chunk configs).
  for (std::size_t i = 0; i < active.size(); ++i) {
    stats_.record_chunk_fetch(kv.key_params.num_chunks());
  }

  const float v_scale = kv.value_params.scale;
  std::fill(out.begin(), out.end(), 0.0f);
  std::size_t v_fetched = 0;
  value_scratch_.resize(kv.head_dim);
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (probs_[i] <= config_.value_prob_threshold) continue;
    ++v_fetched;
    kv.value_row(active[i], value_scratch_.data());
    for (std::size_t d = 0; d < kv.head_dim; ++d) {
      out[d] += static_cast<float>(
          probs_[i] * static_cast<double>(value_scratch_[d]) * v_scale);
    }
  }
  stats_.v_bits_fetched += full_vector_bits * v_fetched;
  stats_.tokens_kept += v_fetched;

  pruner_.accumulate_importance(active, probs_);
}

RecordingBackend::RecordingBackend(Sink sink) : sink_(std::move(sink)) {
  require(static_cast<bool>(sink_), "RecordingBackend: sink required");
}

void RecordingBackend::attend(std::span<const float> q, const KvHeadView& kv,
                              std::span<float> out,
                              const AttentionContext& ctx) {
  auto result = exact_attention_f32(q, kv);
  require(out.size() == result.output.size(), "backend: out size mismatch");
  std::copy(result.output.begin(), result.output.end(), out.begin());
  ProbRecord record;
  record.layer = ctx.layer;
  record.head = ctx.head;
  record.position = ctx.position;
  record.probs = std::move(result.probs);
  sink_(record);
}

}  // namespace topick
