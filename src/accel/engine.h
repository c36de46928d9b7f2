// Cycle-level ToPick accelerator model (Fig. 6/7) over the HBM2 simulator.
//
// Simulates one attention instance (one query over one head's cached KV) at
// core-clock granularity across the three design points of §5.1.3:
//   baseline   — stream all of K, softmax, stream all of V;
//   topick_kv  — probability estimation over streamed K (V pruning only);
//   topick_ooo — on-demand out-of-order K chunks + V pruning (full ToPick).
// Tokens are partitioned round-robin over the 16 PE lanes; the DAG aggregates
// one shared denominator; the DRAM runs 2 command clocks per core clock.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "accel/hw_config.h"
#include "accel/kv_layout.h"
#include "accel/pe_lane.h"
#include "core/access_stats.h"
#include "core/quantized_kv_cache.h"
#include "core/token_picker.h"
#include "fixedpoint/margin.h"
#include "memsim/hbm.h"

namespace topick::accel {

// One (query, head) attention operation placed in DRAM. Engine::run reads
// the head's key planes and value arena through kv.view().
struct AccelInstance {
  fx::QuantizedVector q;
  QuantizedKv kv;
  double score_scale = 1.0;       // integer dot -> softmax logits
  std::uint64_t base_addr = 0;    // granule-aligned KV region base
};

// Quantizes one float (query, head) instance at `base`'s precision: K/V by
// quantize_kv(), Q and score_scale by quantize_query(). base_addr stays 0.
AccelInstance make_instance(std::span<const float> q, const KvHeadView& kv,
                            const fx::QuantParams& base = {});

enum class EventKind { request, arrive, compute, prune, keep, value_fetch };

struct TimelineEvent {
  std::uint64_t cycle = 0;
  int lane = 0;
  EventKind kind = EventKind::request;
  std::size_t token = 0;
  int chunk = 0;
};

std::string event_kind_name(EventKind kind);

struct SimResult {
  std::uint64_t core_cycles = 0;
  std::uint64_t step0_cycles = 0;  // score calculation
  std::uint64_t step1_cycles = 0;  // softmax + V accumulation
  AccessStats access;
  mem::DramStats dram;
  double dram_energy_pj = 0.0;
  std::uint64_t lane_busy_cycles = 0;
  std::uint64_t lane_stall_cycles = 0;
  std::size_t scoreboard_peak = 0;
  std::size_t survivors = 0;
  std::vector<bool> kept;
  std::vector<float> output;       // head_dim; matches functional semantics
  std::vector<TimelineEvent> timeline;
  std::vector<mem::TraceEntry> dram_trace;  // when config.trace_dram

  double lane_utilization(int lanes) const {
    const auto total = core_cycles * static_cast<std::uint64_t>(lanes);
    return total ? static_cast<double>(lane_busy_cycles) /
                       static_cast<double>(total)
                 : 0.0;
  }
};

class Engine {
 public:
  explicit Engine(const AccelConfig& config);

  SimResult run(const AccelInstance& instance, bool record_timeline = false);

  const AccelConfig& config() const { return config_; }

 private:
  AccelConfig config_;
};

}  // namespace topick::accel
