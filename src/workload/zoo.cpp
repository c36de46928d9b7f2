#include "workload/zoo.h"

namespace topick::wl {

namespace {

ZooEntry make_entry(const std::string& name, int eval_context,
                    double reference_ppl) {
  ZooEntry entry;
  entry.model = zoo_config(name);
  entry.eval_context = eval_context;
  entry.reference_ppl = reference_ppl;
  entry.workload.context_len = static_cast<std::size_t>(eval_context);
  entry.workload.head_dim = entry.model.head_dim();
  return entry;
}

}  // namespace

std::vector<ZooEntry> workload_zoo() {
  // Reference PPLs parsed from the Fig. 8 line series (baseline config);
  // the LLaMa values are approximate (the source PDF's text is garbled).
  return {
      make_entry("GPT2-Large", 1024, 19.47),
      make_entry("GPT2-XL", 1024, 17.45),
      make_entry("OPT-1.3B", 2048, 14.63),
      make_entry("OPT-2.7B", 2048, 12.47),
      make_entry("OPT-6.7B", 2048, 10.85),
      make_entry("OPT-13B", 2048, 10.12),
      make_entry("LLaMa-2-7B", 2048, 5.99),
      make_entry("LLaMa-2-13B", 2048, 5.62),
  };
}

ZooEntry gpt2_medium_entry() { return make_entry("GPT2-Medium", 1024, 22.5); }

}  // namespace topick::wl
