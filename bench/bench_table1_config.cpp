// Table 1 — Hardware configuration of ToPick, plus a structural self-check
// of the Fig. 6/7 module wiring (one smoke instance through the cycle model).
#include <cstdio>

#include "accel/engine.h"
#include "common/rng.h"
#include "workload/generator.h"

int main() {
  using namespace topick;
  accel::AccelConfig config;

  std::printf("== Table 1: hardware configuration of ToPick ==\n\n");
  std::printf("Main memory      : HBM2, %d channels x 128-bit; %d GB/s per "
              "channel (%.0f GB/s aggregate)\n",
              config.dram.channels, 32, 32.0 * config.dram.channels);
  std::printf("                   %d B transaction granule, %d banks/channel, "
              "%d B row buffer\n",
              config.dram.transaction_bytes, config.dram.banks_per_channel,
              config.dram.row_bytes);
  std::printf("On-chip buffer   : %d KB Key buffer, %d KB Value buffer, "
              "%d B operand buffer\n",
              config.key_buffer_bytes / 1024, config.value_buffer_bytes / 1024,
              config.operand_buffer_bytes);
  std::printf("PE Lane          : %d lanes; %d-dim x 12-12 bit multipliers + "
              "adder tree per lane\n",
              config.pe_lanes, config.lane_dims);
  std::printf("                   %d-entry x 67-bit Scoreboard per lane\n",
              config.scoreboard_entries);
  std::printf("Clocks           : core %.0f MHz, DRAM command clock %.0f MHz "
              "(%d DRAM clocks per core clock)\n",
              config.core_clock_ghz * 1000.0,
              config.core_clock_ghz * 1000.0 * config.dram_clocks_per_core,
              config.dram_clocks_per_core);
  std::printf("Operands         : %d-bit Q/K/V in %d-bit chunks (%d chunks "
              "per K vector)\n\n",
              config.quant.total_bits, config.quant.chunk_bits,
              config.quant.num_chunks());

  // Structural smoke check: run one instance through every design point.
  std::printf("== Fig. 6/7 structural self-check ==\n\n");
  wl::WorkloadParams params;
  params.context_len = 256;
  params.head_dim = 64;
  wl::Generator gen(params);
  Rng rng(0x7ab1e1);
  const auto inst = gen.make_instance(rng);

  const auto hw = accel::make_instance(inst.q, inst.view());

  const struct {
    const char* name;
    accel::DesignPoint design;
  } points[] = {
      {"baseline (no estimation modules)", accel::DesignPoint::baseline},
      {"ToPick-KV (MarginGen+DAG+PEC)", accel::DesignPoint::topick_kv},
      {"ToPick-stalled (on-demand, in-order)",
       accel::DesignPoint::topick_stalled},
      {"ToPick (Scoreboard+RPDU, OoO)", accel::DesignPoint::topick_ooo},
  };
  for (const auto& point : points) {
    accel::AccelConfig c = config;
    c.design = point.design;
    c.estimator.threshold = 1e-3;
    c.dram.enable_refresh = false;
    accel::Engine engine(c);
    const auto result = engine.run(hw);
    std::printf("  %-38s: %6llu cycles, %4zu/%zu tokens kept, "
                "%5.1f%% lane utilization\n",
                point.name,
                static_cast<unsigned long long>(result.core_cycles),
                result.survivors, hw.kv.len,
                100.0 * result.lane_utilization(c.pe_lanes));
  }
  std::printf("\nAll four design points completed the same instance -> "
              "module wiring is self-consistent.\n");
  return 0;
}
