// Fig. 10 — (a) speedup and (b) normalized energy breakdown of the ToPick
// accelerator in the generation phase, across the 8-model zoo, from the
// cycle-level simulator over the HBM2 model.
//
// Design points per §5.1.3/§5.2.2: Baseline (no estimation), ToPick-KV
// (estimation only -> V pruning, paper text: 1.73x speedup / 1.78x energy),
// ToPick (adds out-of-order on-demand K, paper: avg 2.28x / 2.41x), and
// ToPick-0.3 (relaxed threshold, paper: avg 2.48x / 2.63x). The stalled
// on-demand ablation shows why OoO is necessary.
#include <cstdio>
#include <vector>

#include "accel/energy_model.h"
#include "accel/engine.h"
#include "common/table.h"
#include "workload/zoo.h"

namespace {

using namespace topick;

struct DesignResult {
  std::uint64_t cycles = 0;
  accel::EnergyBreakdown energy;
};

DesignResult run_design(const accel::AccelInstance& inst,
                        accel::DesignPoint design, double threshold) {
  accel::AccelConfig config;
  config.design = design;
  config.estimator.threshold = threshold;
  config.dram.enable_refresh = false;  // determinism across design points
  accel::Engine engine(config);
  const auto result = engine.run(inst);
  return {result.core_cycles, accel::energy_of(result)};
}

}  // namespace

int main() {
  std::printf("== Fig. 10: speedup and energy, cycle-level simulation ==\n\n");

  // Thresholds: the ToPick operating point and the relaxed ToPick-0.3 point
  // (values from the tiny-LM calibration printed by bench_fig08).
  const double thr_topick = 1e-3;
  const double thr_03 = 4e-3;
  constexpr int kInstances = 4;

  TablePrinter speedup_table({"model", "ToPick-KV", "ToPick-stalled", "ToPick",
                              "ToPick-0.3", "paper: ToPick", "ToPick-0.3"});
  TablePrinter energy_table({"model", "DRAM", "buffer", "compute",
                             "ToPick total", "ToPick-0.3 total",
                             "paper: ToPick", "ToPick-0.3"});

  const double paper_speedup_topick[] = {2.03, 2.02, 2.25, 2.33,
                                         2.47, 2.24, 2.37, 2.46};
  const double paper_speedup_03[] = {2.29, 2.20, 2.62, 2.57,
                                     2.58, 2.50, 2.52, 2.62};
  const double paper_energy_topick[] = {0.46, 0.46, 0.43, 0.42,
                                        0.40, 0.41, 0.41, 0.39};
  const double paper_energy_03[] = {0.41, 0.42, 0.37, 0.38,
                                    0.38, 0.39, 0.38, 0.37};

  double mean_speedup_kv = 0.0, mean_speedup = 0.0, mean_speedup_03 = 0.0;
  double mean_energy_kv = 0.0, mean_energy = 0.0, mean_energy_03 = 0.0;

  const auto zoo = wl::workload_zoo();
  for (std::size_t mi = 0; mi < zoo.size(); ++mi) {
    const auto& entry = zoo[mi];
    wl::Generator gen(entry.workload);
    Rng rng(0xf1a'0000 + static_cast<std::uint64_t>(mi));

    double cyc_base = 0, cyc_kv = 0, cyc_stall = 0, cyc_ooo = 0, cyc_03 = 0;
    double e_base = 0, e_kv = 0, e_ooo = 0, e_03 = 0;
    accel::EnergyBreakdown bd_base, bd_ooo;

    for (int i = 0; i < kInstances; ++i) {
      const auto inst = gen.make_instance(rng);
      const auto hw = accel::make_instance(inst.q, inst.view());

      const auto base = run_design(hw, accel::DesignPoint::baseline, 0.0);
      const auto kv = run_design(hw, accel::DesignPoint::topick_kv, thr_topick);
      const auto stall =
          run_design(hw, accel::DesignPoint::topick_stalled, thr_topick);
      const auto ooo =
          run_design(hw, accel::DesignPoint::topick_ooo, thr_topick);
      const auto ooo03 = run_design(hw, accel::DesignPoint::topick_ooo, thr_03);

      cyc_base += static_cast<double>(base.cycles);
      cyc_kv += static_cast<double>(kv.cycles);
      cyc_stall += static_cast<double>(stall.cycles);
      cyc_ooo += static_cast<double>(ooo.cycles);
      cyc_03 += static_cast<double>(ooo03.cycles);
      e_base += base.energy.total_pj();
      e_kv += kv.energy.total_pj();
      e_ooo += ooo.energy.total_pj();
      e_03 += ooo03.energy.total_pj();
      bd_base.dram_pj += base.energy.dram_pj;
      bd_base.buffer_pj += base.energy.buffer_pj;
      bd_base.compute_pj += base.energy.compute_pj;
      bd_ooo.dram_pj += ooo.energy.dram_pj;
      bd_ooo.buffer_pj += ooo.energy.buffer_pj;
      bd_ooo.compute_pj += ooo.energy.compute_pj;
    }

    mean_speedup_kv += cyc_base / cyc_kv;
    mean_speedup += cyc_base / cyc_ooo;
    mean_speedup_03 += cyc_base / cyc_03;
    mean_energy_kv += e_kv / e_base;
    mean_energy += e_ooo / e_base;
    mean_energy_03 += e_03 / e_base;

    speedup_table.add_row(
        {entry.model.name, TablePrinter::fmt_ratio(cyc_base / cyc_kv),
         TablePrinter::fmt_ratio(cyc_base / cyc_stall),
         TablePrinter::fmt_ratio(cyc_base / cyc_ooo),
         TablePrinter::fmt_ratio(cyc_base / cyc_03),
         TablePrinter::fmt_ratio(paper_speedup_topick[mi]),
         TablePrinter::fmt_ratio(paper_speedup_03[mi])});

    energy_table.add_row(
        {entry.model.name,
         TablePrinter::fmt_pct(bd_ooo.dram_pj / e_base),
         TablePrinter::fmt_pct(bd_ooo.buffer_pj / e_base),
         TablePrinter::fmt_pct(bd_ooo.compute_pj / e_base),
         TablePrinter::fmt_pct(e_ooo / e_base),
         TablePrinter::fmt_pct(e_03 / e_base),
         TablePrinter::fmt_pct(paper_energy_topick[mi]),
         TablePrinter::fmt_pct(paper_energy_03[mi])});
  }

  std::printf("--- (a) speedup over the baseline accelerator ---\n%s\n",
              speedup_table.render().c_str());
  std::printf("--- (b) energy, normalized to baseline (ToPick breakdown "
              "shown) ---\n%s\n",
              energy_table.render().c_str());

  const double n = static_cast<double>(zoo.size());
  std::printf("Averages vs paper (§5.2.2):\n");
  std::printf("  ToPick-KV (estimation only): %.2fx speedup, %.2fx energy  "
              "(paper: 1.73x / 1.78x)\n",
              mean_speedup_kv / n, 1.0 / (mean_energy_kv / n));
  std::printf("  ToPick (full, OoO)         : %.2fx speedup, %.2fx energy  "
              "(paper: 2.28x / 2.41x)\n",
              mean_speedup / n, 1.0 / (mean_energy / n));
  std::printf("  ToPick-0.3                 : %.2fx speedup, %.2fx energy  "
              "(paper: 2.48x / 2.63x)\n",
              mean_speedup_03 / n, 1.0 / (mean_energy_03 / n));
  std::printf("  OoO contribution           : %.2fx extra speedup over "
              "ToPick-KV (paper: 1.32x)\n",
              (mean_speedup / n) / (mean_speedup_kv / n));
  return 0;
}
