#include "serve/metrics_export.h"

#include "workload/arrivals.h"

namespace topick::serve {

void export_access_stats(const AccessStats& stats, const std::string& prefix,
                         obs::MetricsRegistry* registry) {
  registry->counter(prefix + "k_bits_fetched").value = stats.k_bits_fetched;
  registry->counter(prefix + "v_bits_fetched").value = stats.v_bits_fetched;
  registry->counter(prefix + "k_bits_baseline").value = stats.k_bits_baseline;
  registry->counter(prefix + "v_bits_baseline").value = stats.v_bits_baseline;
  registry->counter(prefix + "tokens_total").value = stats.tokens_total;
  registry->counter(prefix + "tokens_kept").value = stats.tokens_kept;
  registry->gauge(prefix + "k_reduction").set(stats.k_reduction());
  registry->gauge(prefix + "v_reduction").set(stats.v_reduction());
  registry->gauge(prefix + "total_reduction").set(stats.total_reduction());
  registry->gauge(prefix + "pruning_ratio").set(stats.pruning_ratio());
  // chunk_histogram[c] counts tokens that fetched exactly c+1 K chunks (the
  // last bucket folds >= 8; see AccessStats::record_chunk_fetch).
  static const char* kChunkNames[8] = {
      "chunk_fetch_1", "chunk_fetch_2", "chunk_fetch_3", "chunk_fetch_4",
      "chunk_fetch_5", "chunk_fetch_6", "chunk_fetch_7", "chunk_fetch_ge_8"};
  for (std::size_t c = 0; c < stats.chunk_histogram.size(); ++c) {
    registry->counter(prefix + kChunkNames[c]).value =
        stats.chunk_histogram[c];
  }
}

namespace {

void export_class_metrics(const ClassMetrics& cls, const std::string& prefix,
                          obs::MetricsRegistry* registry) {
  registry->counter(prefix + "submitted").value = cls.submitted;
  registry->counter(prefix + "retired").value = cls.retired;
  registry->counter(prefix + "preemptions").value = cls.preemptions;
  registry->counter(prefix + "tokens_generated").value = cls.tokens_generated;
  registry->counter(prefix + "failed").value = cls.failed;
  registry->counter(prefix + "aborts").value = cls.aborts;
  registry->counter(prefix + "retries").value = cls.retries;
  registry->counter(prefix + "rejections").value = cls.rejections;
  registry->counter(prefix + "deadline_misses").value = cls.deadline_misses;
  registry->counter(prefix + "degraded_tokens").value = cls.degraded_tokens;
  registry->gauge(prefix + "slo_ttft_attainment")
      .set(cls.slo_ttft_attainment());
  registry->gauge(prefix + "slo_latency_attainment")
      .set(cls.slo_latency_attainment());
  registry->gauge(prefix + "avg_queue_wait_steps")
      .set(cls.avg_queue_wait_steps());
  registry->histogram(prefix + "ttft_cycles").merge(cls.ttft_cycle_hist);
  registry->histogram(prefix + "latency_cycles").merge(cls.latency_cycle_hist);
  registry->histogram(prefix + "queue_wait_steps").merge(cls.queue_wait_hist);
}

}  // namespace

void export_fleet_metrics(const FleetMetrics& metrics,
                          obs::MetricsRegistry* registry) {
  registry->counter("serve.requests_submitted").value =
      metrics.requests_submitted;
  registry->counter("serve.requests_retired").value = metrics.requests_retired;
  registry->counter("serve.preemptions").value = metrics.preemptions;
  registry->counter("serve.tokens_generated").value = metrics.tokens_generated;
  registry->counter("serve.engine_steps").value = metrics.engine_steps;
  registry->counter("serve.prefill_tokens").value = metrics.prefill_tokens;
  registry->counter("serve.prefill_bits").value = metrics.prefill_bits;
  registry->counter("serve.decode_write_bits").value =
      metrics.decode_write_bits;
  registry->counter("serve.dram_cycles").value = metrics.dram_cycles;
  registry->counter("serve.dram_requests").value = metrics.dram.requests;
  registry->counter("serve.dram_row_hits").value = metrics.dram.row_hits;
  registry->gauge("serve.dram_row_hit_rate").set(metrics.dram.row_hit_rate());
  registry->counter("serve.dram_refreshes").value = metrics.dram.refreshes;
  registry->counter("serve.dram_queue_full_stalls").value =
      metrics.dram.queue_full_stalls;
  registry->counter("serve.dram_fault_stall_cycles").value =
      metrics.dram.fault_stall_cycles;
  registry->counter("serve.pool_peak_pages").value = metrics.pool_peak_pages;
  registry->counter("serve.pool_reuses").value = metrics.pool_reuses;
  registry->counter("serve.pages_reclaimed").value = metrics.pages_reclaimed;

  // Resilience counters (src/fault/): zero in fault-free, controller-off runs.
  registry->counter("serve.requests_failed").value = metrics.requests_failed;
  registry->counter("serve.aborts").value = metrics.aborts;
  registry->counter("serve.retries").value = metrics.retries;
  registry->counter("serve.rejections").value = metrics.rejections;
  registry->counter("serve.deadline_misses").value = metrics.deadline_misses;
  registry->counter("serve.degraded_tokens").value = metrics.degraded_tokens;
  registry->counter("serve.degradation_level_changes").value =
      metrics.degradation_level_changes;
  registry->gauge("serve.degradation_level")
      .set(static_cast<double>(metrics.degradation_level));

  // Resident host KV footprint (sampled per step over running slots). The
  // f32 mirror gauge must read 0 — QuantizedKvCache is int16-resident and the
  // release-perf CI job greps the bench JSON for exactly that.
  registry->gauge("serve.kv_int16_bytes")
      .set(static_cast<double>(metrics.kv_int16_bytes));
  registry->gauge("serve.kv_plane_bytes")
      .set(static_cast<double>(metrics.kv_plane_bytes));
  registry->gauge("serve.kv_maxima_bytes")
      .set(static_cast<double>(metrics.kv_maxima_bytes));
  registry->gauge("serve.kv_ids_bytes")
      .set(static_cast<double>(metrics.kv_ids_bytes));
  registry->gauge("serve.kv_f32_mirror_bytes")
      .set(static_cast<double>(metrics.kv_f32_mirror_bytes));
  registry->gauge("serve.kv_resident_tokens")
      .set(static_cast<double>(metrics.kv_resident_tokens));
  registry->gauge("serve.kv_resident_bytes_peak")
      .set(static_cast<double>(metrics.kv_resident_bytes_peak));
  registry->gauge("serve.kv_resident_tokens_peak")
      .set(static_cast<double>(metrics.kv_resident_tokens_peak));

  registry->gauge("serve.tokens_per_second").set(metrics.tokens_per_second());
  registry->gauge("serve.bytes_per_token").set(metrics.bytes_per_token());
  registry->gauge("serve.avg_fragmentation").set(metrics.avg_fragmentation);
  registry->gauge("serve.avg_queue_wait_steps")
      .set(metrics.avg_queue_wait_steps());

  // Streaming latency histograms merge bucket-exact into the registry: a
  // future multi-shard fleet aggregates per-engine registries the same way.
  registry->histogram("serve.step_cycles").merge(metrics.step_cycle_hist);
  registry->histogram("serve.ttft_cycles").merge(metrics.ttft_cycle_hist);
  registry->histogram("serve.request_latency_cycles")
      .merge(metrics.request_latency_hist);
  registry->histogram("serve.queue_wait_steps").merge(metrics.queue_wait_hist);

  export_access_stats(metrics.stats, "access.", registry);

  for (std::size_t p = 0; p < wl::kPriorityCount; ++p) {
    const auto& cls = metrics.per_class[p];
    if (cls.submitted == 0) continue;  // don't pollute the snapshot
    export_class_metrics(
        cls,
        std::string("class.") +
            wl::priority_name(static_cast<wl::Priority>(p)) + ".",
        registry);
  }
}

}  // namespace topick::serve
