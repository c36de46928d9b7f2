// Field-by-field bit-identity check between two finished ServeEngine runs,
// shared by the determinism suites (threads, executors, ISA levels, tracing
// and fault-free plans must never change a bit): every FleetMetrics and
// ClassMetrics counter, sample vector (bitwise doubles) and streaming
// histogram, every request's schedule and traffic, and every element of
// every captured step's attention output and token sets.
#pragma once

#include <cstddef>

#include <gtest/gtest.h>

#include "serve/serve_engine.h"

namespace topick::serve {

inline void expect_class_metrics_identical(const ClassMetrics& a,
                                           const ClassMetrics& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.retired, b.retired);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.tokens_generated, b.tokens_generated);
  EXPECT_EQ(a.ttft_cycle_samples, b.ttft_cycle_samples);
  EXPECT_EQ(a.latency_cycle_samples, b.latency_cycle_samples);
  EXPECT_EQ(a.queue_wait_step_samples, b.queue_wait_step_samples);
  EXPECT_TRUE(a.ttft_cycle_hist == b.ttft_cycle_hist);
  EXPECT_TRUE(a.latency_cycle_hist == b.latency_cycle_hist);
  EXPECT_TRUE(a.queue_wait_hist == b.queue_wait_hist);
  EXPECT_EQ(a.slo_ttft_tracked, b.slo_ttft_tracked);
  EXPECT_EQ(a.slo_ttft_met, b.slo_ttft_met);
  EXPECT_EQ(a.slo_latency_tracked, b.slo_latency_tracked);
  EXPECT_EQ(a.slo_latency_met, b.slo_latency_met);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.rejections, b.rejections);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.degraded_tokens, b.degraded_tokens);
}

inline void expect_metrics_identical(const FleetMetrics& a,
                                     const FleetMetrics& b) {
  EXPECT_EQ(a.requests_submitted, b.requests_submitted);
  EXPECT_EQ(a.requests_retired, b.requests_retired);
  EXPECT_EQ(a.requests_failed, b.requests_failed);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.tokens_generated, b.tokens_generated);
  EXPECT_EQ(a.engine_steps, b.engine_steps);
  EXPECT_EQ(a.stats.k_bits_fetched, b.stats.k_bits_fetched);
  EXPECT_EQ(a.stats.v_bits_fetched, b.stats.v_bits_fetched);
  EXPECT_EQ(a.stats.k_bits_baseline, b.stats.k_bits_baseline);
  EXPECT_EQ(a.stats.v_bits_baseline, b.stats.v_bits_baseline);
  EXPECT_EQ(a.stats.tokens_total, b.stats.tokens_total);
  EXPECT_EQ(a.stats.tokens_kept, b.stats.tokens_kept);
  EXPECT_EQ(a.prefill_tokens, b.prefill_tokens);
  EXPECT_EQ(a.prefill_bits, b.prefill_bits);
  EXPECT_EQ(a.decode_write_bits, b.decode_write_bits);
  EXPECT_EQ(a.step_cycle_samples, b.step_cycle_samples);  // bitwise doubles
  EXPECT_EQ(a.dram_cycles, b.dram_cycles);
  EXPECT_EQ(a.ttft_cycle_samples, b.ttft_cycle_samples);
  EXPECT_EQ(a.request_latency_cycle_samples, b.request_latency_cycle_samples);
  EXPECT_EQ(a.queue_wait_step_samples, b.queue_wait_step_samples);
  // The streaming sketches compare exactly too — bucket state included.
  EXPECT_TRUE(a.step_cycle_hist == b.step_cycle_hist);
  EXPECT_TRUE(a.ttft_cycle_hist == b.ttft_cycle_hist);
  EXPECT_TRUE(a.request_latency_hist == b.request_latency_hist);
  EXPECT_TRUE(a.queue_wait_hist == b.queue_wait_hist);
  EXPECT_EQ(a.pool_peak_pages, b.pool_peak_pages);
  EXPECT_EQ(a.pool_reuses, b.pool_reuses);
  EXPECT_EQ(a.pages_reclaimed, b.pages_reclaimed);
  EXPECT_DOUBLE_EQ(a.avg_fragmentation, b.avg_fragmentation);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.rejections, b.rejections);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.degraded_tokens, b.degraded_tokens);
  EXPECT_EQ(a.degradation_level_changes, b.degradation_level_changes);
  EXPECT_EQ(a.degradation_level, b.degradation_level);
  for (std::size_t c = 0; c < wl::kPriorityCount; ++c) {
    expect_class_metrics_identical(a.per_class[c], b.per_class[c]);
  }
}

inline void expect_runs_identical(const ServeEngine& a, const ServeEngine& b) {
  expect_metrics_identical(a.metrics(), b.metrics());
  ASSERT_EQ(a.requests().size(), b.requests().size());
  for (std::size_t r = 0; r < a.requests().size(); ++r) {
    const Request& ra = a.requests()[r];
    const Request& rb = b.requests()[r];
    EXPECT_EQ(ra.state, rb.state) << "request " << r;
    EXPECT_EQ(ra.generated, rb.generated);
    EXPECT_EQ(ra.admit_step, rb.admit_step);
    EXPECT_EQ(ra.finish_step, rb.finish_step);
    EXPECT_EQ(ra.first_token_step, rb.first_token_step);
    EXPECT_EQ(ra.preemptions, rb.preemptions);
    EXPECT_EQ(ra.attempts, rb.attempts);
    EXPECT_EQ(ra.dram_cycles, rb.dram_cycles);
    EXPECT_EQ(ra.prefill_bits, rb.prefill_bits);
    ASSERT_EQ(ra.outputs.size(), rb.outputs.size()) << "request " << r;
    for (std::size_t s = 0; s < ra.outputs.size(); ++s) {
      const StepOutput& sa = ra.outputs[s];
      const StepOutput& sb = rb.outputs[s];
      EXPECT_EQ(sa.position, sb.position);
      ASSERT_EQ(sa.out.size(), sb.out.size());
      for (std::size_t i = 0; i < sa.out.size(); ++i) {
        EXPECT_EQ(sa.out[i], sb.out[i]) << "request " << r << " step " << s;
        EXPECT_EQ(sa.view_tokens[i], sb.view_tokens[i]);
        EXPECT_EQ(sa.kept_tokens[i], sb.kept_tokens[i]);
      }
    }
  }
}

}  // namespace topick::serve
