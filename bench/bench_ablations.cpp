// Ablations over the design choices DESIGN.md §4 calls out:
//   1. visit order (reverse-chrono + first-token promotion vs alternatives)
//   2. denominator policy (remove-on-prune vs keep-stale)
//   3. chunk width (2/4/6-bit chunks of the 12-bit operands)
//   4. scoreboard capacity (8/16/32/64 entries)
// Each table reports the metric the choice trades: K transfer, pruning
// power, or cycles.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "accel/engine.h"
#include "common/table.h"
#include "core/quantized_kv_cache.h"
#include "core/token_picker.h"
#include "workload/decode_stream.h"
#include "workload/generator.h"

namespace {

using namespace topick;

wl::Instance sample_instance(Rng& rng, std::size_t len = 1024) {
  wl::WorkloadParams params;
  params.context_len = len;
  params.head_dim = 64;
  wl::Generator gen(params);
  return gen.make_instance(rng);
}

AccessStats run_functional(const wl::Instance& inst,
                           const TokenPickerConfig& config) {
  TokenPickerAttention op(config);
  return op.attend(inst.q, inst.view()).stats;
}

}  // namespace

int main() {
  std::printf("== Ablations over Token-Picker design choices ==\n\n");
  constexpr int kInstances = 8;
  constexpr double kThr = 1e-3;

  // --- 1. visit order ---------------------------------------------------
  {
    const struct {
      const char* name;
      OrderingPolicy policy;
    } orders[] = {
        {"reverse-chrono + first (paper)",
         OrderingPolicy::reverse_chrono_first_promoted},
        {"reverse-chrono", OrderingPolicy::reverse_chrono},
        {"chronological", OrderingPolicy::chrono},
        {"random", OrderingPolicy::random_order},
    };
    TablePrinter table({"visit order", "K reduction", "V pruning ratio",
                        "avg chunks/token"});
    for (const auto& order : orders) {
      AccessStats agg;
      Rng rng(0xab1a);
      for (int i = 0; i < kInstances; ++i) {
        const auto inst = sample_instance(rng);
        TokenPickerConfig config;
        config.estimator.threshold = kThr;
        config.order = order.policy;
        agg.merge(run_functional(inst, config));
      }
      double chunks = 0.0;
      for (std::size_t c = 0; c < 3; ++c) {
        chunks += static_cast<double>(agg.chunk_histogram[c]) *
                  static_cast<double>(c + 1);
      }
      table.add_row({order.name, TablePrinter::fmt_ratio(agg.k_reduction()),
                     TablePrinter::fmt_ratio(agg.pruning_ratio(), 1),
                     TablePrinter::fmt(
                         chunks / static_cast<double>(agg.tokens_total), 2)});
    }
    std::printf("--- visit order (thr = 1e-3) ---\n%s\n",
                table.render().c_str());
    std::printf("Dominant tokens entering the denominator early is what "
                "makes early pruning possible; chronological order defers "
                "them and fetches more chunks.\n\n");
  }

  // --- 2. denominator policy --------------------------------------------
  {
    TablePrinter table({"denominator policy", "V pruning ratio",
                        "K reduction"});
    for (const auto policy : {DenominatorPolicy::remove_on_prune,
                              DenominatorPolicy::keep_stale}) {
      AccessStats agg;
      Rng rng(0xab1b);
      for (int i = 0; i < kInstances; ++i) {
        const auto inst = sample_instance(rng);
        TokenPickerConfig config;
        config.estimator.threshold = kThr;
        config.estimator.policy = policy;
        agg.merge(run_functional(inst, config));
      }
      table.add_row({policy == DenominatorPolicy::remove_on_prune
                         ? "remove-on-prune (paper)"
                         : "keep-stale (cheaper in HW)",
                     TablePrinter::fmt_ratio(agg.pruning_ratio(), 1),
                     TablePrinter::fmt_ratio(agg.k_reduction())});
    }
    std::printf("--- denominator policy (both provably conservative) ---\n%s\n",
                table.render().c_str());
  }

  // --- 3. chunk width -----------------------------------------------------
  {
    TablePrinter table({"chunk width", "chunks", "K reduction",
                        "V pruning ratio"});
    for (const int bits : {2, 4, 6}) {
      AccessStats agg;
      Rng rng(0xab1c);
      for (int i = 0; i < kInstances; ++i) {
        const auto inst = sample_instance(rng);
        TokenPickerConfig config;
        config.estimator.threshold = kThr;
        config.quant.chunk_bits = bits;
        agg.merge(run_functional(inst, config));
      }
      table.add_row({std::to_string(bits) + "-bit",
                     std::to_string((12 + bits - 1) / bits),
                     TablePrinter::fmt_ratio(agg.k_reduction()),
                     TablePrinter::fmt_ratio(agg.pruning_ratio(), 1)});
    }
    std::printf("--- chunk width (12-bit operands) ---\n%s\n",
                table.render().c_str());
    std::printf("Narrow chunks give finer early-exit points but more "
                "round-trips; 4-bit (paper) balances the two at DRAM "
                "granule size.\n\n");
  }

  // --- 4. scoreboard capacity --------------------------------------------
  {
    TablePrinter table({"scoreboard entries", "cycles", "stall cycles",
                        "peak occupancy"});
    Rng rng(0xab1d);
    const auto inst = sample_instance(rng, 512);
    const auto hw = accel::make_instance(inst.q, inst.view());

    for (const int entries : {4, 8, 16, 32, 64}) {
      accel::AccelConfig config;
      config.design = accel::DesignPoint::topick_ooo;
      config.estimator.threshold = kThr;
      config.scoreboard_entries = entries;
      config.dram.enable_refresh = false;
      accel::Engine engine(config);
      const auto result = engine.run(hw);
      table.add_row({std::to_string(entries),
                     std::to_string(result.core_cycles),
                     std::to_string(result.lane_stall_cycles),
                     std::to_string(result.scoreboard_peak)});
    }
    std::printf("--- scoreboard capacity (context 512, thr = 1e-3) ---\n%s\n",
                table.render().c_str());
    std::printf("Table 1's 32 entries are sized so stalls vanish at the "
                "paper's pruning rates.\n\n");
  }

  // --- 5. scale headroom at long context ----------------------------------
  // QuantizedKvCache headroom > 1 holds the shared scale inside a hysteresis
  // band: record-setting appends inside the band cost no whole-head rescale,
  // at the price of a coarser grid. A 2k-token single-head decode with the
  // stream's rows as the rescale source, so every rescale re-reads floats
  // and the error column is grid coarseness alone.
  {
    TablePrinter table({"headroom", "whole-head rescales", "rms quant error",
                        "tok/s"});
    wl::DecodeStreamParams sp;
    sp.head_dim = 64;
    const std::size_t prompt = 1536, decode = 512;
    const auto stream =
        wl::make_decode_stream(sp, prompt, decode, 1, 1, /*seed=*/0xab1e);
    const wl::HeadRows rows = wl::materialize(stream, 0, 0);
    const KvHeadView all = rows.view();
    const ViewRescaleSource source(all);
    TokenPickerConfig config;
    config.estimator.threshold = kThr;
    config.compute_oracle_mass = false;

    for (const float headroom : {1.0f, 1.25f, 1.5f, 2.0f}) {
      QuantizedKvCache cache(64, {config.quant, headroom});
      TokenPickerAttention op(config);
      TokenPickerResult result;
      const auto start = std::chrono::steady_clock::now();
      cache.append_rows(rows.keys.data(), rows.values.data(), prompt, 0,
                        source);
      for (std::size_t step = 0; step < decode; ++step) {
        const std::size_t pos = prompt + step;
        cache.append(all.key(pos), all.value(pos), pos, source);
        op.attend_cached(stream.query(0, 0, step), cache, &result);
      }
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();

      // Reconstruction RMS over the final grid vs the original floats (no
      // evictions here, so row t is token t).
      const QuantizedKvView view = cache.view();
      const double ks = view.key_params.scale, vs = view.value_params.scale;
      double se = 0.0;
      std::int16_t key[64], value[64];
      for (std::size_t t = 0; t < view.len; ++t) {
        view.key_row(t, key);
        view.value_row(t, value);
        for (std::size_t d = 0; d < 64; ++d) {
          const double ke = static_cast<double>(key[d]) * ks -
                            static_cast<double>(rows.keys[t * 64 + d]);
          const double ve = static_cast<double>(value[d]) * vs -
                            static_cast<double>(rows.values[t * 64 + d]);
          se += ke * ke + ve * ve;
        }
      }
      const double rms =
          std::sqrt(se / (static_cast<double>(view.len) * 2.0 * 64.0));
      char head_buf[16], rms_buf[24];
      std::snprintf(head_buf, sizeof head_buf, "%.2f", headroom);
      std::snprintf(rms_buf, sizeof rms_buf, "%.2e", rms);
      table.add_row(
          {head_buf,
           std::to_string(cache.key_rescales() + cache.value_rescales()),
           rms_buf,
           TablePrinter::fmt(static_cast<double>(decode) / seconds, 0)});
    }
    std::printf("--- scale headroom (context 2048, single head, rescales "
                "from floats) ---\n%s\n",
                table.render().c_str());
    std::printf("Headroom trades grid fineness for rescale count; past the "
                "point where rescales stop mattering to throughput, extra "
                "slack only buys error.\n");
  }
  return 0;
}
