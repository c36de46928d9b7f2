// Workload presets for the paper's model zoo (Fig. 8/9/10 setups).
//
// Hardware evaluations use context length 1024 for GPT2 models and 2048 for
// OPT / LLaMa-2 (paper §5.1.3); head dims follow the model shapes.
#pragma once

#include <string>
#include <vector>

#include "model/config.h"
#include "workload/generator.h"

namespace topick::wl {

struct ZooEntry {
  ModelConfig model;
  WorkloadParams workload;
  int eval_context = 1024;  // §5.1.3 hardware evaluation context
  // Paper-reported Wikitext-2 baseline PPL (reference column), read off the
  // Fig. 8 line series. The two LLaMa-2 values are approximate: the source
  // PDF's text for them is garbled.
  double reference_ppl = 0.0;
};

// The 8 models of Figs. 8 and 10, in paper order.
std::vector<ZooEntry> workload_zoo();

// Fig. 9's comparison model.
ZooEntry gpt2_medium_entry();

}  // namespace topick::wl
