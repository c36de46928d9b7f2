#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "model/config.h"
#include "model/kv_cache.h"
#include "model/sampler.h"
#include "model/transformer.h"

namespace topick {
namespace {

TEST(Config, PresetsValidate) {
  EXPECT_NO_THROW(tiny_lm_config().validate());
  EXPECT_NO_THROW(test_lm_config().validate());
  for (const auto& c : paper_zoo()) EXPECT_NO_THROW(c.validate());
}

TEST(Config, ZooHasEightModels) { EXPECT_EQ(paper_zoo().size(), 8u); }

TEST(Config, Gpt2XlParameterCountNearPublished) {
  const auto c = zoo_config("GPT2-XL");
  const double billions = static_cast<double>(c.total_params()) / 1e9;
  EXPECT_NEAR(billions, 1.56, 0.1);  // 1.5B published
}

TEST(Config, Opt67bParameterCountNearPublished) {
  const auto c = zoo_config("OPT-6.7B");
  const double billions = static_cast<double>(c.total_params()) / 1e9;
  EXPECT_NEAR(billions, 6.7, 0.3);
}

TEST(Config, Llama7bParameterCountNearPublished) {
  const auto c = zoo_config("LLaMa-2-7B");
  const double billions = static_cast<double>(c.total_params()) / 1e9;
  EXPECT_NEAR(billions, 6.7, 0.4);
}

TEST(Config, KvCacheBytesFormula) {
  const auto c = zoo_config("OPT-6.7B");
  // 2 * 32 layers * 4096 dmodel * 2048 ctx * 16 bits = 1.07 GB.
  EXPECT_EQ(c.kv_cache_bytes(16, 2048), 2ULL * 32 * 4096 * 2048 * 2);
}

TEST(Config, UnknownZooNameThrows) {
  EXPECT_THROW(zoo_config("GPT-5"), std::logic_error);
}

TEST(Config, InvalidShapeThrows) {
  ModelConfig c = tiny_lm_config();
  c.d_model = 63;  // not divisible by n_head = 4
  EXPECT_THROW(c.validate(), std::logic_error);
}

TEST(KvCacheTest, AppendGrowsPerLayerLengths) {
  KvCache cache(2, 2, 4, 8);
  std::vector<float> k(8, 1.0f), v(8, 2.0f);
  cache.append(0, k, v);
  EXPECT_EQ(cache.len(0), 1u);
  EXPECT_EQ(cache.len(1), 0u);
  cache.append(1, k, v);
  EXPECT_EQ(cache.len(1), 1u);
  EXPECT_EQ(cache.len(), 1u);
}

TEST(KvCacheTest, HeadViewSlicesPerHead) {
  KvCache cache(1, 2, 2, 4);
  std::vector<float> k{1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> v{5.0f, 6.0f, 7.0f, 8.0f};
  cache.append(0, k, v);
  const auto h0 = cache.head_view(0, 0);
  const auto h1 = cache.head_view(0, 1);
  EXPECT_EQ(h0.len, 1u);
  EXPECT_FLOAT_EQ(h0.key(0)[0], 1.0f);
  EXPECT_FLOAT_EQ(h0.key(0)[1], 2.0f);
  EXPECT_FLOAT_EQ(h1.key(0)[0], 3.0f);
  EXPECT_FLOAT_EQ(h1.value(0)[1], 8.0f);
}

TEST(KvCacheTest, MidStepLayerLengthsDifferByOne) {
  // During a decode step layer L appends before attending, so its length
  // leads deeper layers by one until the step completes.
  KvCache cache(3, 1, 2, 8);
  std::vector<float> kv(2, 1.0f);
  for (int l = 0; l < 3; ++l) cache.append(l, kv, kv);  // step 0 complete
  cache.append(0, kv, kv);                              // step 1, mid-step
  cache.append(1, kv, kv);
  EXPECT_EQ(cache.len(0), 2u);
  EXPECT_EQ(cache.len(1), 2u);
  EXPECT_EQ(cache.len(2), 1u);
  EXPECT_EQ(cache.len(), 2u);  // max over layers
}

TEST(KvCacheTest, OverflowThrows) {
  KvCache cache(1, 1, 2, 1);
  std::vector<float> kv(2, 0.0f);
  cache.append(0, kv, kv);
  EXPECT_THROW(cache.append(0, kv, kv), std::logic_error);
}

TEST(KvCacheTest, ClearResetsLengths) {
  KvCache cache(1, 1, 2, 4);
  std::vector<float> kv(2, 0.0f);
  cache.append(0, kv, kv);
  cache.clear();
  EXPECT_EQ(cache.len(), 0u);
}

TEST(TransformerTest, DecodeProducesVocabLogits) {
  Rng rng(10);
  const auto weights = TransformerWeights::random_init(test_lm_config(), rng);
  Transformer model(&weights);
  model.begin_sequence();
  const auto logits = model.decode_step(3);
  EXPECT_EQ(logits.size(), static_cast<std::size_t>(test_lm_config().vocab));
  for (float v : logits) EXPECT_FALSE(std::isnan(v));
}

TEST(TransformerTest, DecodeIsDeterministic) {
  Rng rng(11);
  const auto weights = TransformerWeights::random_init(test_lm_config(), rng);
  Transformer a(&weights), b(&weights);
  a.begin_sequence();
  b.begin_sequence();
  for (int t = 0; t < 5; ++t) {
    const auto la = a.decode_step(t + 1);
    const auto lb = b.decode_step(t + 1);
    for (std::size_t i = 0; i < la.size(); ++i) EXPECT_FLOAT_EQ(la[i], lb[i]);
  }
}

TEST(TransformerTest, CacheGrowsWithSteps) {
  Rng rng(12);
  const auto weights = TransformerWeights::random_init(test_lm_config(), rng);
  Transformer model(&weights);
  model.begin_sequence();
  model.decode_step(1);
  model.decode_step(2);
  EXPECT_EQ(model.cache().len(), 2u);
  EXPECT_EQ(model.position(), 2u);
}

TEST(TransformerTest, BeginSequenceResets) {
  Rng rng(13);
  const auto weights = TransformerWeights::random_init(test_lm_config(), rng);
  Transformer model(&weights);
  model.begin_sequence();
  const auto first = model.decode_step(5);
  model.decode_step(6);
  model.begin_sequence();
  const auto again = model.decode_step(5);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_FLOAT_EQ(first[i], again[i]);
  }
}

TEST(TransformerTest, RandomWeightsNllNearUniform) {
  // An untrained model should score roughly ln(vocab) nats/token.
  Rng rng(14);
  const auto cfg = test_lm_config();
  const auto weights = TransformerWeights::random_init(cfg, rng);
  Transformer model(&weights);
  std::vector<int> tokens;
  for (int i = 0; i < 32; ++i) {
    tokens.push_back(static_cast<int>(rng.uniform_index(
        static_cast<std::uint64_t>(cfg.vocab))));
  }
  const double nll = model.sequence_nll(tokens);
  EXPECT_NEAR(nll, std::log(static_cast<double>(cfg.vocab)), 1.0);
}

TEST(TransformerTest, RejectsOutOfVocabToken) {
  Rng rng(15);
  const auto weights = TransformerWeights::random_init(test_lm_config(), rng);
  Transformer model(&weights);
  model.begin_sequence();
  EXPECT_THROW(model.decode_step(test_lm_config().vocab), std::logic_error);
}

TEST(SamplerTest, GreedyPicksArgmax) {
  const std::vector<float> logits{0.1f, 3.0f, -1.0f};
  EXPECT_EQ(sample_greedy(logits), 1);
}

TEST(SamplerTest, TopKRespectsSupport) {
  Rng rng(16);
  const std::vector<float> logits{10.0f, 9.5f, -100.0f, -100.0f};
  for (int i = 0; i < 100; ++i) {
    const int tok = sample_topk(logits, rng, 1.0f, 2);
    EXPECT_TRUE(tok == 0 || tok == 1);
  }
}

TEST(SamplerTest, LowTemperatureApproachesGreedy) {
  Rng rng(17);
  const std::vector<float> logits{1.0f, 1.5f, 0.5f};
  int hits = 0;
  for (int i = 0; i < 200; ++i) {
    hits += (sample_topk(logits, rng, 0.05f, 0) == 1);
  }
  EXPECT_GT(hits, 195);
}

}  // namespace
}  // namespace topick
