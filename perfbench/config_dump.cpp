#include "config_dump.h"

namespace perfbench {

namespace tp = topick;

namespace {

template <typename Enum>
int as_int(Enum e) {
  return static_cast<int>(e);
}

void dump(JsonWriter& json, const char* key, const tp::fx::QuantParams& q) {
  json.begin_object(key)
      .field("total_bits", q.total_bits)
      .field("chunk_bits", q.chunk_bits)
      .field("scale", static_cast<double>(q.scale))
      .end_object();
}

void dump(JsonWriter& json, const char* key, const tp::EstimatorConfig& e) {
  json.begin_object(key)
      .field("threshold", e.threshold)
      .field("denominator_policy", as_int(e.policy))
      .field("fixed_point_compare", e.fixed_point_compare)
      .end_object();
}

void dump(JsonWriter& json, const char* key, const tp::TokenPickerConfig& p) {
  json.begin_object(key);
  dump(json, "estimator", p.estimator);
  dump(json, "quant", p.quant);
  json.field("order", as_int(p.order))
      .field("order_seed", p.order_seed)
      .field("compute_oracle_mass", p.compute_oracle_mass)
      .end_object();
}

void dump(JsonWriter& json, const char* key, const tp::SpAttenConfig& s) {
  json.begin_object(key)
      .field("final_keep_ratio", s.final_keep_ratio)
      .field("start_layer", s.start_layer)
      .field("value_prob_threshold", s.value_prob_threshold);
  dump(json, "quant", s.quant);
  json.end_object();
}

void dump(JsonWriter& json, const char* key,
          const tp::wl::DecodeStreamParams& s) {
  json.begin_object(key)
      .field("head_dim", s.head_dim)
      .field("spike_fraction", s.spike_fraction)
      .field("spike_scale", s.spike_scale)
      .field("bulk_scale", s.bulk_scale)
      .field("query_topic_scale", s.query_topic_scale)
      .field("query_noise", s.query_noise)
      .field("value_std", s.value_std)
      .field("sink_tokens", s.sink_tokens)
      .end_object();
}

void dump(JsonWriter& json, const char* key, const tp::mem::DramConfig& d) {
  json.begin_object(key)
      .field("channels", d.channels)
      .field("banks_per_channel", d.banks_per_channel)
      .field("row_bytes", d.row_bytes)
      .field("transaction_bytes", d.transaction_bytes)
      .field("queue_depth", d.queue_depth)
      .field("enable_refresh", d.enable_refresh)
      .begin_object("timing")
      .field("t_rcd", d.timing.t_rcd)
      .field("t_rp", d.timing.t_rp)
      .field("t_cl", d.timing.t_cl)
      .field("t_ras", d.timing.t_ras)
      .field("t_rrd", d.timing.t_rrd)
      .field("t_burst", d.timing.t_burst)
      .field("t_refi", d.timing.t_refi)
      .field("t_rfc", d.timing.t_rfc)
      .end_object()
      .begin_object("energy")
      .field("activate_pj", d.energy.activate_pj)
      .field("read_pj_per_bit", d.energy.read_pj_per_bit)
      .field("refresh_pj", d.energy.refresh_pj)
      .end_object()
      .end_object();
}

void dump(JsonWriter& json, const char* key,
          const tp::fault::DegradationConfig& d) {
  json.begin_object(key)
      .field("enabled", d.enabled)
      .field("evaluate_every_steps", d.evaluate_every_steps)
      .field("hold_steps", d.hold_steps)
      .field("pool_hi", d.pool_hi)
      .field("pool_lo", d.pool_lo)
      .field("slo_lo", d.slo_lo)
      .field("slo_hi", d.slo_hi)
      .field("threshold_scale", d.threshold_scale)
      .field("headroom_step", static_cast<double>(d.headroom_step))
      .end_object();
}

void dump(JsonWriter& json, const char* key,
          const tp::wl::PriorityClassMix& m) {
  json.begin_object(key)
      .field("weight", m.weight)
      .field("prompt_min", m.prompt_min)
      .field("prompt_max", m.prompt_max)
      .field("decode_min", m.decode_min)
      .field("decode_max", m.decode_max)
      .field("slo_ttft_steps", m.slo_ttft_steps)
      .field("slo_latency_steps", m.slo_latency_steps)
      .field("deadline_steps", m.deadline_steps)
      .end_object();
}

}  // namespace

void dump(JsonWriter& json, const char* key, const tp::serve::ServeConfig& c) {
  json.begin_object(key)
      .field("n_layer", c.n_layer)
      .field("n_head", c.n_head)
      .field("head_dim", c.head_dim)
      .field("max_batch", c.max_batch)
      .field("pool_pages", c.pool_pages)
      .field("page_tokens", c.page_tokens)
      .field("backend", as_int(c.backend));
  dump(json, "picker", c.picker);
  dump(json, "spatten", c.spatten);
  dump(json, "stream", c.stream);
  json.field("threads", c.threads)
      .field("policy", tp::serve::policy_kind_name(c.policy))
      .field("policy_aging_steps", c.policy_params.aging_steps)
      .field("pipeline", c.pipeline)
      .field("shard_replay", c.shard_replay)
      .field("prefill_chunk_tokens", c.prefill_chunk_tokens)
      .field("max_prefill", c.max_prefill)
      .field("persistence_window", c.persistence_window)
      .field("reclaim", c.reclaim)
      .field("capture_outputs", c.capture_outputs)
      .field("simulate_dram", c.simulate_dram);
  dump(json, "dram", c.dram);
  json.field("trace", c.trace != nullptr)
      .field("collect_phase_stats", c.collect_phase_stats)
      .field("retain_latency_samples", c.retain_latency_samples)
      .field("faults", c.faults != nullptr)
      .field("enforce_deadlines", c.enforce_deadlines)
      .begin_object("retry")
      .field("max_retries", c.retry.max_retries)
      .field("backoff_base_steps", c.retry.backoff_base_steps)
      .field("backoff_multiplier", c.retry.backoff_multiplier)
      .field("backoff_max_steps", c.retry.backoff_max_steps)
      .end_object()
      .field("admission_reject_best_effort_utilization",
             c.admission.reject_best_effort_utilization);
  dump(json, "degradation", c.degradation);
  json.end_object();
}

void dump(JsonWriter& json, const char* key, const tp::fault::FaultPlan& p) {
  json.begin_object(key).field("seed", p.seed).begin_array("channels");
  for (const auto& spec : p.channels) {
    json.begin_object()
        .field("channel", spec.channel)
        .field("burst_multiplier", spec.fault.burst_multiplier)
        .field("stall_period", spec.fault.stall_period)
        .field("stall_cycles", spec.fault.stall_cycles)
        .end_object();
  }
  json.end_array().begin_array("alloc_faults");
  for (const auto& spec : p.alloc_faults) {
    json.begin_object()
        .field("start_step", spec.start_step)
        .field("end_step", spec.end_step)
        .field("period", spec.period)
        .end_object();
  }
  json.end_array().begin_array("aborts");
  for (const auto& spec : p.aborts) {
    json.begin_object()
        .field("request_id", spec.request_id)
        .field("at_step", spec.at_step)
        .end_object();
  }
  json.end_array().end_object();
}

void dump(JsonWriter& json, const char* key, const tp::wl::ArrivalParams& p) {
  json.begin_object(key)
      .field("kind", p.kind == tp::wl::ArrivalKind::poisson ? "poisson"
                                                            : "bursty")
      .field("rate", p.rate)
      .field("burst_factor", p.burst_factor)
      .field("burst_start_prob", p.burst_start_prob)
      .field("burst_stop_prob", p.burst_stop_prob)
      .field("prompt_min", p.prompt_min)
      .field("prompt_max", p.prompt_max)
      .field("decode_min", p.decode_min)
      .field("decode_max", p.decode_max)
      .end_object();
}

void dump(JsonWriter& json, const char* key,
          const tp::wl::PriorityMixParams& p) {
  json.begin_object(key);
  dump(json, "arrivals", p.arrivals);
  json.begin_object("mix");
  for (std::size_t c = 0; c < tp::wl::kPriorityCount; ++c) {
    dump(json, tp::wl::priority_name(static_cast<tp::wl::Priority>(c)),
         p.mix[c]);
  }
  json.end_object().end_object();
}

void dump(JsonWriter& json, const char* key, const tp::accel::AccelConfig& c) {
  json.begin_object(key)
      .field("pe_lanes", c.pe_lanes)
      .field("lane_dims", c.lane_dims)
      .field("scoreboard_entries", c.scoreboard_entries)
      .field("core_clock_ghz", c.core_clock_ghz)
      .field("dram_clocks_per_core", c.dram_clocks_per_core);
  dump(json, "quant", c.quant);
  dump(json, "estimator", c.estimator);
  json.field("order", as_int(c.order)).field("design", as_int(c.design));
  dump(json, "dram", c.dram);
  json.field("trace_dram", c.trace_dram)
      .field("key_buffer_bytes", c.key_buffer_bytes)
      .field("value_buffer_bytes", c.value_buffer_bytes)
      .field("operand_buffer_bytes", c.operand_buffer_bytes)
      .field("host_resident_layout", c.host_resident_layout)
      .end_object();
}

void dump(JsonWriter& json, const char* key, const tp::wl::ZooEntry& e) {
  const auto& w = e.workload;
  json.begin_object(key)
      .field("model", e.model.name)
      .field("eval_context", e.eval_context)
      .begin_object("workload")
      .field("context_len", w.context_len)
      .field("head_dim", w.head_dim)
      .field("sigma_log_mean", w.sigma_log_mean)
      .field("sigma_log_sd", w.sigma_log_sd)
      .field("spike_fraction", w.spike_fraction)
      .field("spike_boost_mean", w.spike_boost_mean)
      .field("spike_boost_sd", w.spike_boost_sd)
      .field("spike_fraction_log_sd", w.spike_fraction_log_sd)
      .field("recency_window", w.recency_window)
      .field("recency_boost", w.recency_boost)
      .field("sink_boost", w.sink_boost)
      .field("key_noise_std", w.key_noise_std)
      .field("value_std", w.value_std)
      .end_object()
      .end_object();
}

}  // namespace perfbench
