// Drive the cycle-level ToPick accelerator model directly: place one
// attention instance in simulated HBM2, run all four design points, and dump
// timing, traffic, utilization, and energy for each.
#include <cstdio>

#include "accel/energy_model.h"
#include "accel/engine.h"
#include "workload/generator.h"

int main() {
  using namespace topick;

  // OPT-6.7B-shaped head: context 2048, head_dim 128.
  wl::WorkloadParams params;
  params.context_len = 2048;
  params.head_dim = 128;
  wl::Generator generator(params);
  Rng rng(7);
  const auto instance = generator.make_instance(rng);

  const auto hw = accel::make_instance(instance.q, instance.view());

  std::printf("one attention instance: context 2048, head_dim 128 "
              "(OPT-6.7B shape), thr = 1e-3\n\n");
  std::printf("%-16s %8s %8s %8s %10s %10s %8s %9s\n", "design", "cycles",
              "step0", "step1", "KB moved", "util", "kept", "energy uJ");

  const struct {
    const char* name;
    accel::DesignPoint design;
  } points[] = {
      {"baseline", accel::DesignPoint::baseline},
      {"topick-kv", accel::DesignPoint::topick_kv},
      {"topick-stalled", accel::DesignPoint::topick_stalled},
      {"topick (ooo)", accel::DesignPoint::topick_ooo},
  };

  double base_cycles = 0.0;
  for (const auto& point : points) {
    accel::AccelConfig config;
    config.design = point.design;
    config.estimator.threshold = 1e-3;
    config.dram.enable_refresh = false;
    accel::Engine engine(config);
    const auto result = engine.run(hw);
    const auto energy = accel::energy_of(result);
    if (point.design == accel::DesignPoint::baseline) {
      base_cycles = static_cast<double>(result.core_cycles);
    }
    std::printf("%-16s %8llu %8llu %8llu %10.1f %9.1f%% %8zu %9.2f\n",
                point.name,
                static_cast<unsigned long long>(result.core_cycles),
                static_cast<unsigned long long>(result.step0_cycles),
                static_cast<unsigned long long>(result.step1_cycles),
                static_cast<double>(result.access.total_bits_fetched()) / 8.0 /
                    1024.0,
                100.0 * result.lane_utilization(config.pe_lanes),
                result.survivors, energy.total_pj() / 1e6);
    if (point.design == accel::DesignPoint::topick_ooo) {
      std::printf("\nfull ToPick speedup over baseline: %.2fx "
                  "(row-hit rate %.1f%%, scoreboard peak %zu/%d)\n",
                  base_cycles / static_cast<double>(result.core_cycles),
                  100.0 * result.dram.row_hit_rate(), result.scoreboard_peak,
                  config.scoreboard_entries);
    }
  }
  return 0;
}
