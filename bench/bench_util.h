// Shared plumbing for the experiment harnesses: one trained tiny LM cached on
// disk, held-out evaluation sets, perplexity measurement under pruning
// backends, and threshold calibration for the paper's operating points.
#pragma once

#include <string>
#include <vector>

#include "core/attention_backends.h"
#include "model/transformer.h"
#include "train/corpus.h"
#include "train/trainer.h"

namespace topick::bench {

// Model/train/corpus configuration shared by every harness (so the cached
// checkpoint is valid across binaries).
ModelConfig bench_lm_config();
train::TrainConfig bench_train_config();
train::CorpusConfig bench_corpus_config();

// Loads the cached checkpoint from assets/tiny_lm_v2.ckpt (relative to the
// working directory), training and saving it on first use. Prints progress
// to stdout because training takes ~1-2 minutes on one core.
const TransformerWeights& shared_tiny_lm();

// Held-out documents (deterministic; disjoint seed from training).
std::vector<std::vector<int>> heldout_docs(int count);

// Perplexity of the tiny LM over docs using the given attention backend
// (nullptr = exact float attention).
double measured_ppl(const TransformerWeights& weights,
                    AttentionBackend* backend,
                    const std::vector<std::vector<int>>& docs);

struct OperatingPoint {
  std::string name;       // "ToPick", "ToPick-0.3", "ToPick-0.5"
  double threshold = 0.0;
  double measured_ppl = 0.0;
  double delta_ppl = 0.0;  // vs the quantized no-pruning reference
};

// Calibrates the three paper operating points on the tiny LM: the largest
// thresholds whose measured PPL deltas stay within +0.05 / +0.3 / +0.5.
std::vector<OperatingPoint> calibrate_operating_points(
    const TransformerWeights& weights,
    const std::vector<std::vector<int>>& docs);

// Reference (quantized, no pruning) PPL used as the baseline for deltas.
double quantized_baseline_ppl(const TransformerWeights& weights,
                              const std::vector<std::vector<int>>& docs);

}  // namespace topick::bench
