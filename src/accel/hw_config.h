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

  // Charge K/V traffic at the host's resident layout instead of the
  // device's packed one. A host head (QuantizedKv, core/quantized_kv_cache.h)
  // stores keys only as offset-binary nibble planes (4 bits per element,
  // rows byte-aligned) and values as int16 rows, so a host-layout run
  // fetches one ceil(head_dim / 2)-byte nibble row per K chunk and 16-bit
  // elements per V row. That charge is exact only when every chunk lies
  // inside one plane, as at 4-bit chunks; a chunk that spans two planes
  // reads two rows, so KvLayout, and with it Engine::run, throws on such a
  // format (12/3, say). At 4-bit chunks chunk b is nibble plane b and the
  // region is exactly the head's planes + value arena. The plane →
  // bank-group mapping is identical either way: the contiguity being
  // charged is exactly the contiguous plane walk the host performs.
  bool host_resident_layout = false;

  // Granules (32 B DRAM transactions) per K chunk / full V vector for a
  // given head dimension.
  int granules_per_chunk(int head_dim) const {
    const int bytes = host_resident_layout ? (head_dim + 1) / 2
                                           : head_dim * quant.chunk_bits / 8;
    return (bytes + dram.transaction_bytes - 1) / dram.transaction_bytes;
  }
  int granules_per_value(int head_dim) const {
    const int bits =
        head_dim * (host_resident_layout ? 16 : quant.total_bits);
    return (bits / 8 + dram.transaction_bytes - 1) / dram.transaction_bytes;
  }
};

}  // namespace topick::accel
