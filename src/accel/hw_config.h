// ToPick hardware configuration (paper Table 1) and design points (§5.1.3).
#pragma once

#include "core/estimator.h"
#include "core/ordering.h"
#include "fixedpoint/quant.h"
#include "memsim/dram_config.h"

namespace topick::accel {

// Design points (§5.1.3 plus one ablation):
//   baseline       — lacks the five estimation modules; streams all K and V.
//   topick_kv      — probability estimation over streamed K (Margin
//                    Generator + DAG + PEC): only V transfers shrink.
//   topick_stalled — on-demand K chunks but in-order lanes that wait for
//                    each request (the under-utilization strawman §3.2
//                    argues against; at most one outstanding request/lane).
//   topick_ooo     — Scoreboard + RPDU out-of-order on-demand K (full
//                    ToPick).
enum class DesignPoint { baseline, topick_kv, topick_stalled, topick_ooo };

struct AccelConfig {
  int pe_lanes = 16;
  int lane_dims = 64;             // multipliers per lane (one 4-bit chunk-dot
                                  // of a 64-dim vector per cycle)
  int scoreboard_entries = 32;    // per lane (Table 1: 32 x 67 bit)
  double core_clock_ghz = 0.5;    // 500 MHz
  int dram_clocks_per_core = 2;   // 1 GHz HBM2 command clock

  fx::QuantParams quant;          // 12-bit operands, 4-bit chunks
  EstimatorConfig estimator;      // thr and denominator policy
  OrderingPolicy order = OrderingPolicy::reverse_chrono_first_promoted;
  DesignPoint design = DesignPoint::topick_ooo;

  mem::DramConfig dram;
  // Record the DRAM command trace into SimResult::dram_trace (diagnostics;
  // mirrors the paper's RTL-trace-into-DRAMsim3 methodology).
  bool trace_dram = false;

  // On-chip buffer sizes (bytes), for the config dump (Table 1).
  int key_buffer_bytes = 192 * 1024;
  int value_buffer_bytes = 192 * 1024;
  int operand_buffer_bytes = 512;

  // Removed: charging K/V traffic at the host cache's resident widths won
  // nowhere over the device's packed layout, the only DRAM layout — and the
  // widths now agree: the host stores keys and values as total_bits-wide
  // nibble planes, as the device packs them. The field remains only because
  // the benchmark's config dump reads it; Engine rejects true. Delete it
  // with the next change to the benchmark.
  bool host_resident_layout = false;

  // Granules (32 B DRAM transactions) per K chunk / full V vector for a
  // given head dimension.
  int granules_per_chunk(int head_dim) const {
    const int bytes = head_dim * quant.chunk_bits / 8;
    return (bytes + dram.transaction_bytes - 1) / dram.transaction_bytes;
  }
  int granules_per_value(int head_dim) const {
    const int bits = head_dim * quant.total_bits;
    return (bits / 8 + dram.transaction_bytes - 1) / dram.transaction_bytes;
  }
};

}  // namespace topick::accel
