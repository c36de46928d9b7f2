// Serve-level invariant and determinism suite.
//
// * PagedKvPool property test: ~10k randomized alloc/append/mark-dead/sweep/
//   release ops over concurrent sequences against a shadow model, asserting
//   the page-accounting invariants (free + resident == pool size, exclusive
//   page ownership, reclaim never frees a live token's page, every live id
//   reads its own sequence's bound row).
// * Determinism: two ServeEngine runs from an identical config + seed yield
//   bit-identical FleetMetrics and per-request token streams, for every
//   scheduling policy — the guard against iteration-order nondeterminism in
//   the scheduler refactor.
// * Equivalence: the engine's cached decode step (per-(layer, head)
//   QuantizedKvCache, quantize once at append, coherent eviction on
//   reclaim) is bit-identical to quantizing each step's post-reclaim live
//   set from scratch.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/token_picker.h"
#include "model/kv_cache.h"
#include "serve/paged_kv_pool.h"
#include "serve/paged_sequence.h"
#include "serve/scheduling_policy.h"
#include "serve/serve_engine.h"
#include "serve_identity.h"
#include "workload/arrivals.h"

namespace topick::serve {
namespace {

// ---- PagedKvPool / PagedSequence property test ------------------------------

constexpr std::size_t kHeadDim = 2;
constexpr std::size_t kPageTokens = 4;

// Shadow of one sequence: every appended token's liveness, and which logical
// pages an earlier sweep already returned to the pool.
struct ShadowSeq {
  std::vector<bool> live;
  std::vector<bool> page_freed;  // by logical page index
  std::size_t live_count = 0;
};

float encode(std::size_t seq, std::size_t token) {
  return static_cast<float>(seq * 100000 + token);
}

// Full pages whose live count is zero and that are still held — exactly what
// the next sweep() must free (the partial tail page never counts, even when
// fully dead; already-swept pages don't free twice).
std::vector<std::size_t> sweepable_pages(const ShadowSeq& shadow) {
  const std::size_t full_pages = shadow.live.size() / kPageTokens;
  std::vector<std::size_t> dead_pages;
  for (std::size_t p = 0; p < full_pages; ++p) {
    if (p < shadow.page_freed.size() && shadow.page_freed[p]) continue;
    bool any_live = false;
    for (std::size_t t = p * kPageTokens; t < (p + 1) * kPageTokens; ++t) {
      any_live |= shadow.live[t];
    }
    if (!any_live) dead_pages.push_back(p);
  }
  return dead_pages;
}

TEST(PagedKvPoolProperty, RandomizedOpsPreserveAccountingAndOwnership) {
  constexpr std::size_t kPoolPages = 24;  // small: exhaustion must happen
  constexpr std::size_t kSeqs = 6;
  constexpr int kOps = 10000;

  // Every append takes the next row, so kOps rows per sequence can never
  // run out. Row t of sequence s carries encode(s, t) in its first element.
  constexpr std::size_t kRows = kOps;
  std::vector<std::vector<float>> keys(kSeqs), values(kSeqs);
  PagedKvPool pool({kPoolPages, kPageTokens});
  std::vector<PagedSequence> seqs;
  seqs.reserve(kSeqs);
  for (std::size_t s = 0; s < kSeqs; ++s) {
    for (std::size_t t = 0; t < kRows; ++t) {
      keys[s].insert(keys[s].end(), {encode(s, t), 0.5f});
      values[s].insert(values[s].end(), {-encode(s, t), 1.5f});
    }
    seqs.emplace_back(&pool, KvHeadView{keys[s].data(), values[s].data(),
                                        kRows, kHeadDim});
  }
  std::vector<ShadowSeq> shadow(kSeqs);
  // Swept full pages leave the sequence but their token ids stay dead
  // forever; shadow.live keeps tracking them as dead, so views must match.

  Rng rng(0xfeedface);
  std::uint64_t appends_refused = 0;

  for (int op = 0; op < kOps; ++op) {
    const std::size_t s = rng.uniform_index(kSeqs);
    auto& seq = seqs[s];
    auto& sh = shadow[s];
    const double dice = rng.uniform();

    if (dice < 0.62) {
      // Append the next bound row.
      if (seq.append()) {
        sh.live.push_back(true);
        ++sh.live_count;
      } else {
        // Refusal is only legal on genuine exhaustion, and changes nothing.
        EXPECT_EQ(pool.pages_free(), 0u);
        ++appends_refused;
      }
    } else if (dice < 0.82) {
      // Kill a random live token.
      if (sh.live_count > 0) {
        std::size_t pick = rng.uniform_index(sh.live_count);
        for (std::size_t t = 0; t < sh.live.size(); ++t) {
          if (!sh.live[t]) continue;
          if (pick-- == 0) {
            seq.mark_dead(t);
            sh.live[t] = false;
            --sh.live_count;
            break;
          }
        }
      }
    } else if (dice < 0.95) {
      // Sweep: must free exactly the still-held fully-dead full pages, never
      // a page holding a live token (verified below by the view re-read).
      const auto dead_pages = sweepable_pages(sh);
      const std::size_t freed = seq.sweep();
      EXPECT_EQ(freed, dead_pages.size()) << "op " << op << " seq " << s;
      for (const std::size_t p : dead_pages) {
        if (p >= sh.page_freed.size()) sh.page_freed.resize(p + 1, false);
        sh.page_freed[p] = true;
      }
    } else {
      // Retire/preempt: everything returns to the pool.
      seq.release_all();
      sh.live.clear();
      sh.page_freed.clear();
      sh.live_count = 0;
      EXPECT_EQ(seq.appended_tokens(), 0u);
      EXPECT_EQ(seq.pages_held(), 0u);
    }

    // Invariant 1: free + resident page accounting always sums to the pool.
    std::size_t held_total = 0;
    for (const auto& q : seqs) held_total += q.pages_held();
    EXPECT_EQ(pool.pages_free() + held_total, kPoolPages) << "op " << op;
    EXPECT_EQ(pool.pages_in_use(), held_total) << "op " << op;

    // Invariants 2+3, checked through the row lookups: every sequence holds
    // exactly its shadow-live tokens, each reading its own bound row (a
    // reclaimed live page would make a live id's lookup throw), and the
    // pages held across sequences are distinct (invariant 1 already equates
    // their sum with the pool's in-use count, so a page counted twice would
    // show).
    const bool full_audit = op % 250 == 0 || op == kOps - 1;
    if (full_audit) {
      for (std::size_t q = 0; q < kSeqs; ++q) {
        const auto& shq = shadow[q];
        ASSERT_EQ(seqs[q].appended_tokens(), shq.live.size())
            << "op " << op << " seq " << q;
        EXPECT_EQ(seqs[q].live_tokens(), shq.live_count);
        for (std::size_t t = 0; t < shq.live.size(); ++t) {
          ASSERT_EQ(seqs[q].live(t), shq.live[t])
              << "op " << op << " seq " << q << " token " << t;
          if (!shq.live[t]) continue;
          EXPECT_FLOAT_EQ(seqs[q].key_row(t)[0], encode(q, t));
          EXPECT_FLOAT_EQ(seqs[q].value_row(t)[0], -encode(q, t));
          EXPECT_EQ(seqs[q].key_row(t), keys[q].data() + t * kHeadDim);
          EXPECT_EQ(seqs[q].value_row(t), values[q].data() + t * kHeadDim);
        }
      }
    }
  }
  // The scenario actually exercised exhaustion-and-recovery.
  EXPECT_GT(appends_refused, 0u);
  EXPECT_GT(pool.reuses(), 0u);
}

// ---- determinism ------------------------------------------------------------

ServeConfig determinism_config(PolicyKind policy) {
  ServeConfig config;
  config.n_layer = 1;
  config.n_head = 2;
  config.head_dim = 16;
  config.max_batch = 6;
  config.pool_pages = 56;  // tight enough that preemption/self-preemption run
  config.page_tokens = 4;
  config.backend = BackendKind::token_picker;
  config.picker.estimator.threshold = 1e-3;
  config.persistence_window = 2;
  config.reclaim = true;
  config.capture_outputs = true;
  config.simulate_dram = true;
  config.prefill_chunk_tokens = 8;
  config.policy = policy;
  config.policy_params.aging_steps = 16;
  return config;
}

TEST(ServeEngineDeterminism, IdenticalConfigAndSeedGiveBitIdenticalRuns) {
  wl::PriorityMixParams mix;
  mix.arrivals.rate = 0.9;
  // Short, mixed-class requests; lengths small so three policies x two runs
  // stay fast.
  for (auto& m : mix.mix) {
    m.prompt_min = 4;
    m.prompt_max = 24;
    m.decode_min = 8;
    m.decode_max = 24;
  }

  for (const PolicyKind policy :
       {PolicyKind::fifo_youngest_first, PolicyKind::priority_slack,
        PolicyKind::cost_aware_victim}) {
    SCOPED_TRACE(policy_kind_name(policy));
    Rng trace_rng(2026);
    const auto trace = wl::make_priority_mix_trace(mix, 18, trace_rng);

    const ServeConfig config = determinism_config(policy);
    ServeEngine a(config);
    a.submit_trace(trace);
    a.run();
    ServeEngine b(config);
    b.submit_trace(trace);
    b.run();

    // The scenario must actually exercise the scheduler's contended paths
    // for the determinism claim to mean anything.
    EXPECT_GT(a.metrics().preemptions, 0u);

    expect_runs_identical(a, b);
  }
}

// Threads never change bits: the engine's parallel attention phase fans
// per-(slot, layer, head) work across workers, but outputs, FleetMetrics,
// per-step traffic, and token sets must be bit-identical to the sequential
// engine for every thread count and every scheduling policy — the PR 3
// determinism suite re-run at threads ∈ {1, 2, 8} (acceptance criterion).
TEST(ServeEngineDeterminism, ThreadFanOutIsBitIdenticalToSequential) {
  wl::PriorityMixParams mix;
  mix.arrivals.rate = 0.9;
  for (auto& m : mix.mix) {
    m.prompt_min = 4;
    m.prompt_max = 24;
    m.decode_min = 8;
    m.decode_max = 24;
  }

  for (const PolicyKind policy :
       {PolicyKind::fifo_youngest_first, PolicyKind::priority_slack,
        PolicyKind::cost_aware_victim}) {
    SCOPED_TRACE(policy_kind_name(policy));
    Rng trace_rng(2026);
    const auto trace = wl::make_priority_mix_trace(mix, 18, trace_rng);

    const ServeConfig reference_config = determinism_config(policy);
    ASSERT_EQ(reference_config.threads, 1u);
    ServeEngine reference(reference_config);
    reference.submit_trace(trace);
    reference.run();
    EXPECT_GT(reference.metrics().preemptions, 0u);

    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(threads);
      ServeConfig config = determinism_config(policy);
      config.threads = threads;
      ServeEngine fanned(config);
      fanned.submit_trace(trace);
      fanned.run();
      expect_runs_identical(reference, fanned);
    }
  }
}

// The exact-quantized backend takes the same (pending, instance) fan-out as
// Token-Picker — the thread-identity contract must hold there too.
TEST(ServeEngineDeterminism, ExactBackendThreadFanOutIsBitIdentical) {
  wl::PriorityMixParams mix;
  mix.arrivals.rate = 0.9;
  for (auto& m : mix.mix) {
    m.prompt_min = 4;
    m.prompt_max = 24;
    m.decode_min = 8;
    m.decode_max = 24;
  }
  Rng trace_rng(2027);
  const auto trace = wl::make_priority_mix_trace(mix, 14, trace_rng);

  ServeConfig base = determinism_config(PolicyKind::fifo_youngest_first);
  base.backend = BackendKind::exact_quantized;
  base.reclaim = false;  // reclamation is Token-Picker-driven
  ServeEngine reference(base);
  reference.submit_trace(trace);
  reference.run();

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    ServeConfig config = base;
    config.threads = threads;
    ServeEngine fanned(config);
    fanned.submit_trace(trace);
    fanned.run();
    expect_runs_identical(reference, fanned);
  }
}

// Pipelined-executor acceptance: the cross-step replay lane must leave
// outputs, FleetMetrics (cycle-domain latency samples included), and token
// sets bit-identical to the sequential engine — for every policy, at threads {1, 2, 8}, under the same
// contended scenario the barrier suite uses.
TEST(ServeEngineDeterminism, PipelinedExecutorIsBitIdenticalToSequential) {
  wl::PriorityMixParams mix;
  mix.arrivals.rate = 0.9;
  for (auto& m : mix.mix) {
    m.prompt_min = 4;
    m.prompt_max = 24;
    m.decode_min = 8;
    m.decode_max = 24;
  }

  for (const PolicyKind policy :
       {PolicyKind::fifo_youngest_first, PolicyKind::priority_slack,
        PolicyKind::cost_aware_victim}) {
    SCOPED_TRACE(policy_kind_name(policy));
    Rng trace_rng(2026);
    const auto trace = wl::make_priority_mix_trace(mix, 18, trace_rng);

    const ServeConfig reference_config = determinism_config(policy);
    ServeEngine reference(reference_config);
    reference.submit_trace(trace);
    reference.run();
    EXPECT_GT(reference.metrics().preemptions, 0u);

    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(threads);
      ServeConfig config = determinism_config(policy);
      config.threads = threads;
      config.pipeline = true;
      ServeEngine pipelined(config);
      pipelined.submit_trace(trace);
      pipelined.run();
      expect_runs_identical(reference, pipelined);
    }
  }
}

// Slots read K/V straight from their request's stream rows, which live in the
// engine's request vector. Submitting while slots are live can reallocate
// that vector; the rows must survive the move, so submitting arrivals one at
// a time as the engine reaches their step must be bit-identical to
// submitting the whole trace up front — with reclaim evicting tokens and
// record-setting rows forcing whole-head rescales that re-read the rows,
// under both executors.
TEST(ServeEngineDeterminism, SubmitWhileSlotsLiveKeepsBoundRowsValid) {
  wl::PriorityMixParams mix;
  mix.arrivals.rate = 0.9;
  for (auto& m : mix.mix) {
    m.prompt_min = 4;
    m.prompt_max = 24;
    m.decode_min = 8;
    m.decode_max = 24;
  }
  Rng trace_rng(2031);
  auto trace = wl::make_priority_mix_trace(mix, 40, trace_rng);
  // An engine with nothing submitted cannot step, so the first arrival
  // opens the run.
  const std::size_t first_step = trace.front().step;
  for (auto& event : trace) event.step -= first_step;

  const ServeConfig base = determinism_config(PolicyKind::fifo_youngest_first);
  ASSERT_TRUE(base.reclaim);
  ServeEngine reference(base);
  reference.submit_trace(trace);
  reference.run();

  // Whole-head rescales re-read every stored row through the slot's bound
  // rows; appending a row whose max |v| beats every earlier row of its head
  // forces one.
  auto value_records_from = [](const wl::DecodeStream& stream,
                               std::size_t from) {
    std::size_t records = 0;
    for (const auto& hs : stream.heads) {
      float best = 0.0f;
      for (std::size_t t = 0; t < stream.total_tokens(); ++t) {
        float amax = 0.0f;
        for (int d = 0; d < stream.head_dim; ++d) {
          amax = std::max(amax, std::abs(hs.values[t * stream.head_dim + d]));
        }
        if (amax > best && t > 0 && t >= from) ++records;
        best = std::max(best, amax);
      }
    }
    return records;
  };

  for (const bool pipeline : {false, true}) {
    SCOPED_TRACE(pipeline ? "pipelined" : "sequential");
    ServeConfig config = base;
    config.pipeline = pipeline;
    ServeEngine engine(config);
    std::size_t moves_under_live_slots = 0;
    std::size_t rescales_after_move = 0;
    std::size_t next = 0;
    while (next < trace.size()) {
      while (next < trace.size() && trace[next].step <= engine.now()) {
        const auto& requests = engine.requests();
        if (requests.size() == requests.capacity()) {
          // This submit reallocates: count the decoding slots that survive
          // it and the record rows they will append after it.
          for (const Request& r : requests) {
            if (r.state != RequestState::running) continue;
            ++moves_under_live_slots;
            rescales_after_move += value_records_from(
                r.stream, r.event.prompt_len + r.generated + 1);
          }
        }
        engine.submit(trace[next++]);
      }
      ASSERT_TRUE(engine.step()) << "engine drained before arrival " << next;
    }
    engine.run();

    EXPECT_GT(moves_under_live_slots, 0u);
    EXPECT_GT(rescales_after_move, 0u);
    EXPECT_GT(engine.metrics().pages_reclaimed, 0u);
    expect_runs_identical(reference, engine);
  }
}

// ---- cached decode vs quantize-from-scratch ----------------------------------

// Each decode step attended the previous step's post-reclaim view_tokens
// (the prompt ids at step 0) plus its own position. Gathering those stream
// rows into a contiguous view and quantizing it from scratch
// (TokenPickerAttention::attend) must reproduce the engine's output bits and
// kept ids exactly — the whole-head rescales that eviction triggers
// included — at every thread count.
TEST(ServeEngineEquivalence, CachedDecodeMatchesQuantizeFromScratch) {
  ServeConfig config;
  config.n_layer = 2;
  config.n_head = 2;
  config.head_dim = 64;
  config.max_batch = 1;
  config.pool_pages = 4096;
  config.page_tokens = 8;
  config.backend = BackendKind::token_picker;
  config.picker.estimator.threshold = 1e-3;
  config.prefill_chunk_tokens = 0;
  config.simulate_dram = false;
  config.capture_outputs = true;
  ASSERT_TRUE(config.reclaim);

  wl::ArrivalEvent event;
  event.prompt_len = 192;
  event.decode_len = 64;
  event.stream_seed = 0x40b7;

  const auto n_inst = static_cast<std::size_t>(config.n_layer) * config.n_head;
  const auto head_dim = static_cast<std::size_t>(config.head_dim);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(threads);
    config.threads = threads;
    ServeEngine engine(config);
    engine.submit(event);
    engine.run();
    const Request& req = engine.requests().front();
    ASSERT_EQ(req.state, RequestState::finished);
    ASSERT_EQ(req.outputs.size(), event.decode_len);

    TokenPickerAttention reference(config.picker);
    std::vector<std::size_t> ids;
    std::vector<float> keys, values;
    std::size_t instances = 0;
    std::size_t reclaimed = 0;  // instances whose live set lost a token
    for (std::size_t s = 0; s < req.outputs.size(); ++s) {
      const StepOutput& step = req.outputs[s];
      for (std::size_t inst = 0; inst < n_inst; ++inst) {
        const int layer = static_cast<int>(inst) / config.n_head;
        const int head = static_cast<int>(inst) % config.n_head;
        if (s == 0) {
          ids.resize(event.prompt_len);
          std::iota(ids.begin(), ids.end(), std::size_t{0});
        } else {
          ids = req.outputs[s - 1].view_tokens[inst];
        }
        ids.push_back(step.position);
        if (ids.size() < step.position + 1) ++reclaimed;
        keys.clear();
        values.clear();
        for (const std::size_t id : ids) {
          const auto k = req.stream.key(layer, head, id);
          const auto v = req.stream.value(layer, head, id);
          keys.insert(keys.end(), k.begin(), k.end());
          values.insert(values.end(), v.begin(), v.end());
        }
        const KvHeadView live{keys.data(), values.data(), ids.size(),
                              head_dim};
        const TokenPickerResult result =
            reference.attend(req.stream.query(layer, head, s), live);

        ASSERT_EQ(result.output.size(), step.out[inst].size());
        EXPECT_EQ(std::memcmp(result.output.data(), step.out[inst].data(),
                              head_dim * sizeof(float)),
                  0)
            << "step " << s << " instance " << inst;
        std::vector<std::size_t> kept;
        for (const TokenDecision& decision : result.decisions) {
          if (decision.kept) kept.push_back(ids[decision.token]);
        }
        EXPECT_EQ(kept, step.kept_tokens[inst])
            << "step " << s << " instance " << inst;
        ++instances;
      }
    }
    EXPECT_EQ(instances, event.decode_len * n_inst);
    // The scenario must really reclaim for the comparison to cover eviction.
    EXPECT_GT(reclaimed, instances / 2);
  }
}

}  // namespace
}  // namespace topick::serve
