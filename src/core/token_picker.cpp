#include "core/token_picker.h"

#include <algorithm>
#include <cmath>

#include "common/expsum.h"
#include "common/require.h"
#include "fixedpoint/chunks.h"

namespace topick {

double survivor_softmax(std::span<const std::size_t> survivors,
                        std::span<const double> scores,
                        const QuantizedKvView& kv, std::vector<float>* out) {
  require(!scores.empty(),
          "token_picker: at least one token must survive estimation");
  const double log_denom = log_sum_exp(scores.data(), scores.size());
  out->assign(kv.head_dim, 0.0f);
  static thread_local std::vector<std::int16_t> block;
  block.resize(kValueBlockRows * kv.head_dim);
  const auto v_scale = static_cast<double>(kv.value_params.scale);
  for (std::size_t i = 0; i < survivors.size();) {
    std::size_t run = 1;
    while (run < kValueBlockRows && i + run < survivors.size() &&
           survivors[i + run] == survivors[i] + run) {
      ++run;
    }
    kv.value_rows(survivors[i], run, block.data());
    for (std::size_t r = 0; r < run; ++r, ++i) {
      const double p = std::exp(scores[i] - log_denom);
      weighted_value_accum(out->data(), block.data() + r * kv.head_dim, p,
                           v_scale, kv.head_dim);
    }
  }
  return log_denom;
}

PrunePersistence::PrunePersistence(int window) : window_(window) {
  require(window > 0, "PrunePersistence: window must be positive");
}

TokenPickerAttention::TokenPickerAttention(const TokenPickerConfig& config)
    : config_(config),
      estimator_(config.estimator),
      order_rng_(config.order_seed),
      view_scratch_(QuantizedKvCache::Config{config.quant, 1.0f}) {}

TokenPickerResult TokenPickerAttention::attend(std::span<const float> q,
                                               const KvHeadView& kv) {
  require(kv.len > 0, "TokenPickerAttention: empty KV view");
  require(q.size() == kv.head_dim, "TokenPickerAttention: q size mismatch");

  // One-shot bulk rebuild: a single scale computation over the view, exactly
  // what quantize_kv() produced (no incremental history to differ on).
  view_scratch_.rebuild(kv);
  attend_cached(q, view_scratch_, &result_scratch_);
  return result_scratch_;
}

TokenPickerResult TokenPickerAttention::attend_quantized(
    const fx::QuantizedVector& q, const QuantizedKv& kv, double score_scale) {
  attend_view(q, kv.view(), score_scale, &result_scratch_);
  return result_scratch_;
}

void TokenPickerAttention::attend_cached(std::span<const float> q,
                                         const QuantizedKvCache& cache,
                                         TokenPickerResult* result) {
  require(cache.len() > 0, "attend_cached: empty cache");
  require(q.size() == cache.head_dim(), "attend_cached: q size mismatch");

  const double score_scale = quantize_query(
      q, config_.quant, cache.key_params().scale, &q_scratch_);
  attend_view(q_scratch_, cache.view(), score_scale, result);
}

void TokenPickerAttention::attend_view(const fx::QuantizedVector& q,
                                       const QuantizedKvView& kv,
                                       double score_scale,
                                       TokenPickerResult* result) {
  const std::size_t len = kv.len;
  require(len > 0, "attend_view: no tokens");
  const std::size_t head_dim = kv.head_dim;
  require(q.size() == head_dim, "attend_view: q/head_dim mismatch");
  const fx::QuantParams& kp = kv.key_params;
  const int num_chunks = kp.num_chunks();

  result->stats = AccessStats{};
  result->decisions.clear();
  result->log_denominator = 0.0;
  result->log_denominator_estimator = 0.0;
  result->oracle_dropped_mass = 0.0;

  estimator_.reset(len);
  margins_.rebuild(q, kp);
  make_visit_order(len, config_.order,
                   config_.order == OrderingPolicy::random_order ? &order_rng_
                                                                 : nullptr,
                   &order_);

  const auto chunk_bits_per_fetch =
      static_cast<std::uint64_t>(head_dim) * kp.chunk_bits;
  const auto full_vector_bits =
      static_cast<std::uint64_t>(head_dim) * kp.total_bits;

  result->stats.tokens_total = len;
  result->stats.k_bits_baseline = full_vector_bits * len;
  result->stats.v_bits_baseline = full_vector_bits * len;

  survivor_scores_.assign(len, 0.0);
  kept_.assign(len, 0);

  const std::int16_t* qd = q.values.data();
  // Every key's score carries the offset-binary correction -2^(T-1) * sum(q)
  // (see core/quantized_kv_cache.h), so each partial starts there.
  const std::int64_t offset_dot = kv.key_offset_dot(qd);
  for (const std::size_t token : order_) {
    std::int64_t partial = offset_dot;
    TokenDecision decision;
    decision.token = token;

    bool pruned = false;
    for (int b = 0; b < num_chunks; ++b) {
      // The contiguous plane walk: this chunk's bits of the offset-binary
      // key across the whole row, one masked nibble dot per plane it
      // overlaps (exact: with the starting offset, partial is
      // partial_dot(b + 1) of the two's-complement key).
      partial += kv.key_chunk_dot(qd, token, b);
      result->stats.k_bits_fetched += chunk_bits_per_fetch;
      ++decision.chunks_fetched;

      const auto& margin = margins_.at_level(b + 1);
      const double s_max =
          static_cast<double>(partial + margin.max_margin) * score_scale;
      const double s_min =
          static_cast<double>(partial + margin.min_margin) * score_scale;

      if (estimator_.should_prune(s_max)) {
        estimator_.mark_pruned(token);
        pruned = true;
        break;
      }
      estimator_.update_token(token, s_min);
    }

    if (!pruned) {
      decision.kept = true;
      decision.final_score = static_cast<double>(partial) * score_scale;
      survivor_scores_[token] = decision.final_score;
      kept_[token] = 1;
      ++result->stats.tokens_kept;
      result->stats.v_bits_fetched += full_vector_bits;
    }
    result->stats.record_chunk_fetch(decision.chunks_fetched);
    result->decisions.push_back(decision);
  }

  // Step 1: renormalized softmax over survivors, weighted V sum. The final
  // denominator is the exact log-sum-exp over survivor scores; under
  // remove_on_prune this is what the DAG holds after step 0.
  result->log_denominator_estimator = estimator_.log_denominator();
  surv_tokens_.clear();
  surv_compact_.clear();
  for (std::size_t t = 0; t < len; ++t) {
    if (!kept_[t]) continue;
    surv_tokens_.push_back(t);
    surv_compact_.push_back(survivor_scores_[t]);
  }
  result->log_denominator =
      survivor_softmax(surv_tokens_, surv_compact_, kv, &result->output);

  // Oracle diagnostic: true probability mass of pruned tokens under the full
  // quantized softmax (uses data already in memory; no fetch accounting).
  // Gated: this is the one remaining O(len * head_dim) pass, so serve/bench
  // hot loops switch it off.
  if (config_.compute_oracle_mass) {
    oracle_scores_.resize(len);
    for (std::size_t t = 0; t < len; ++t) {
      oracle_scores_[t] =
          static_cast<double>(kv.key_dot(qd, t, offset_dot)) * score_scale;
    }
    const double log_denom = log_sum_exp(oracle_scores_.data(), len);
    double dropped = 0.0;
    for (std::size_t t = 0; t < len; ++t) {
      if (!kept_[t]) dropped += std::exp(oracle_scores_[t] - log_denom);
    }
    result->oracle_dropped_mass = dropped;
  }
}

}  // namespace topick
