// QoS scheduling-policy suite: pure policy picks over hand-built candidate
// lists (no engine needed), queue re-entry positions, engine-level victim
// edge cases, priority protection, SLO attainment accounting, and the
// aging-based starvation guard.
#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "serve/request.h"
#include "serve/scheduling_policy.h"
#include "serve/serve_engine.h"
#include "workload/arrivals.h"

namespace topick::serve {
namespace {

AdmissionCandidate queued(std::size_t request, wl::Priority priority,
                          std::size_t queue_pos,
                          long long slack = AdmissionCandidate::kNoSlack,
                          std::size_t wait_steps = 0) {
  AdmissionCandidate c;
  c.request = request;
  c.priority = priority;
  c.queue_pos = queue_pos;
  c.wait_steps = wait_steps;
  c.slack_steps = slack;
  return c;
}

VictimCandidate running(std::size_t request, wl::Priority priority,
                        std::size_t admit_order, std::size_t pages = 1,
                        std::uint64_t replay_bits = 100) {
  VictimCandidate c;
  c.request = request;
  c.priority = priority;
  c.admit_order = admit_order;
  c.pages_held = pages;
  c.replay_bits = replay_bits;
  return c;
}

// ---- FifoYoungestFirst: the baseline, priority-blind ------------------------

TEST(FifoYoungestFirst, AdmitsStrictlyByQueuePositionIgnoringPriority) {
  FifoYoungestFirst policy;
  const std::vector<AdmissionCandidate> q{
      queued(7, wl::Priority::best_effort, 0),
      queued(3, wl::Priority::interactive, 1, /*slack=*/1),
      queued(5, wl::Priority::batch, 2),
  };
  EXPECT_EQ(policy.pick_admission(q), 0u);
}

TEST(FifoYoungestFirst, EvictsYoungestEvenWhenHigherClass) {
  FifoYoungestFirst policy;
  const std::vector<VictimCandidate> cands{
      running(1, wl::Priority::best_effort, /*admit_order=*/0),
      running(2, wl::Priority::interactive, /*admit_order=*/5),
      running(3, wl::Priority::batch, /*admit_order=*/3),
  };
  std::size_t victim = 99;
  ASSERT_TRUE(policy.pick_victim(cands, wl::Priority::best_effort, &victim));
  EXPECT_EQ(cands[victim].request, 2u);  // youngest, priority ignored
}

// ---- PrioritySlack admission ------------------------------------------------

TEST(PrioritySlack, AdmitsByClassThenSlackThenQueueOrder) {
  PrioritySlack policy;
  {
    // Class dominates queue order.
    const std::vector<AdmissionCandidate> q{
        queued(1, wl::Priority::best_effort, 0),
        queued(2, wl::Priority::batch, 1),
        queued(3, wl::Priority::interactive, 2),
    };
    EXPECT_EQ(q[policy.pick_admission(q)].request, 3u);
  }
  {
    // Within a class, the tighter TTFT-SLO slack goes first; a request with
    // no SLO (kNoSlack) sorts after any deadline-carrying peer.
    const std::vector<AdmissionCandidate> q{
        queued(1, wl::Priority::interactive, 0),  // no SLO
        queued(2, wl::Priority::interactive, 1, /*slack=*/10),
        queued(3, wl::Priority::interactive, 2, /*slack=*/-4),  // blown: most urgent
    };
    EXPECT_EQ(q[policy.pick_admission(q)].request, 3u);
  }
  {
    // Class and slack equal: FIFO position decides (preempted re-entries sit
    // at position 0, so they resume before equal peers).
    const std::vector<AdmissionCandidate> q{
        queued(8, wl::Priority::batch, 1, /*slack=*/5),
        queued(9, wl::Priority::batch, 0, /*slack=*/5),
    };
    EXPECT_EQ(q[policy.pick_admission(q)].request, 9u);
  }
}

TEST(PrioritySlack, AgingPromotesStarvedRequestsPastFreshInteractive) {
  PrioritySlack policy(PrioritySlackParams{/*aging_steps=*/4});
  // best_effort (class 2) waited 12 steps -> promoted 3 classes -> -1, which
  // outranks a fresh interactive (class 0) regardless of its tight slack.
  const std::vector<AdmissionCandidate> q{
      queued(1, wl::Priority::interactive, 0, /*slack=*/1, /*wait=*/0),
      queued(2, wl::Priority::best_effort, 1, AdmissionCandidate::kNoSlack,
             /*wait=*/12),
  };
  EXPECT_EQ(q[policy.pick_admission(q)].request, 2u);
  // Not yet aged far enough (wait 8 -> class 0, ties on class, loses on
  // slack): the interactive request still goes first.
  const std::vector<AdmissionCandidate> q2{
      queued(1, wl::Priority::interactive, 0, /*slack=*/1, /*wait=*/0),
      queued(2, wl::Priority::best_effort, 1, AdmissionCandidate::kNoSlack,
             /*wait=*/8),
  };
  EXPECT_EQ(q2[policy.pick_admission(q2)].request, 1u);
}

// ---- PrioritySlack / CostAwareVictim victim selection -----------------------

TEST(PrioritySlack, EvictsLowestClassYoungestFirst) {
  PrioritySlack policy;
  const std::vector<VictimCandidate> cands{
      running(1, wl::Priority::interactive, 0),
      running(2, wl::Priority::best_effort, 1),
      running(3, wl::Priority::best_effort, 4),
      running(4, wl::Priority::batch, 5),
  };
  std::size_t victim = 99;
  ASSERT_TRUE(policy.pick_victim(cands, wl::Priority::interactive, &victim));
  EXPECT_EQ(cands[victim].request, 3u);  // lowest class, youngest within it
}

TEST(PrioritySlack, AllHigherPriorityMeansNoVictim) {
  PrioritySlack policy;
  const std::vector<VictimCandidate> cands{
      running(1, wl::Priority::interactive, 0),
      running(2, wl::Priority::interactive, 1),
      running(3, wl::Priority::batch, 2),
  };
  std::size_t victim = 99;
  // best_effort may not evict interactive or batch: refuse outright.
  EXPECT_FALSE(policy.pick_victim(cands, wl::Priority::best_effort, &victim));
  // A batch request may evict its own class (the batch peer), never the
  // interactive ones.
  ASSERT_TRUE(policy.pick_victim(cands, wl::Priority::batch, &victim));
  EXPECT_EQ(cands[victim].request, 3u);
}

TEST(CostAwareVictim, PicksCheapestReplayPerPageWithinLowestClass) {
  CostAwareVictim policy;
  const std::vector<VictimCandidate> cands{
      // interactive: protected from a batch-needy preemption entirely.
      running(1, wl::Priority::interactive, 0, /*pages=*/1, /*replay=*/1),
      // batch class: 6000/2 = 3000 bits per freed page...
      running(2, wl::Priority::batch, 1, /*pages=*/2, /*replay=*/6000),
      // ...vs 8000/8 = 1000 bits per freed page: cheaper per refund, wins
      // even though its absolute replay is larger.
      running(3, wl::Priority::batch, 2, /*pages=*/8, /*replay=*/8000),
  };
  std::size_t victim = 99;
  ASSERT_TRUE(policy.pick_victim(cands, wl::Priority::batch, &victim));
  EXPECT_EQ(cands[victim].request, 3u);

  // Exact cost tie: fall back to youngest.
  const std::vector<VictimCandidate> tie{
      running(5, wl::Priority::batch, 1, /*pages=*/2, /*replay=*/4000),
      running(6, wl::Priority::batch, 3, /*pages=*/4, /*replay=*/8000),
  };
  ASSERT_TRUE(policy.pick_victim(tie, wl::Priority::batch, &victim));
  EXPECT_EQ(tie[victim].request, 6u);

  // Class still dominates cost: a dirt-cheap interactive replay is never
  // chosen over an expensive best_effort one.
  const std::vector<VictimCandidate> classy{
      running(7, wl::Priority::interactive, 0, /*pages=*/50, /*replay=*/1),
      running(8, wl::Priority::best_effort, 1, /*pages=*/1, /*replay=*/1u << 20),
  };
  ASSERT_TRUE(policy.pick_victim(classy, wl::Priority::interactive, &victim));
  EXPECT_EQ(classy[victim].request, 8u);
}

TEST(CostAwareVictim, PrefersVictimsWithMoreDeadlineSlack) {
  CostAwareVictim policy;
  const auto with_slack = [](VictimCandidate c, long long slack) {
    c.slack_steps = slack;
    return c;
  };
  std::size_t victim = 99;

  // Slack dominates cost within a class: the near-deadline request (slack 2)
  // keeps running even though its replay is dirt cheap — preempting it would
  // turn its remaining work into a guaranteed deadline miss.
  const std::vector<VictimCandidate> slacky{
      with_slack(running(1, wl::Priority::batch, 0, /*pages=*/1, /*replay=*/1),
                 /*slack=*/2),
      with_slack(
          running(2, wl::Priority::batch, 1, /*pages=*/1, /*replay=*/1u << 20),
          /*slack=*/500),
  };
  ASSERT_TRUE(policy.pick_victim(slacky, wl::Priority::batch, &victim));
  EXPECT_EQ(slacky[victim].request, 2u);

  // A candidate with no deadline at all (kNoSlack) is sacrificed ahead of any
  // deadline-bearing peer, however loose that peer's deadline is.
  const std::vector<VictimCandidate> mixed{
      with_slack(running(3, wl::Priority::batch, 0), /*slack=*/100000),
      running(4, wl::Priority::batch, 1),  // no deadline
  };
  ASSERT_TRUE(policy.pick_victim(mixed, wl::Priority::batch, &victim));
  EXPECT_EQ(mixed[victim].request, 4u);

  // Equal slack falls through to the replay-bits-per-page cost order — the
  // deadline tiebreak never scrambles the deadline-free ordering (every
  // candidate at kNoSlack is exactly the pre-deadline comparator).
  const std::vector<VictimCandidate> equal{
      with_slack(running(5, wl::Priority::batch, 0, /*pages=*/2, /*replay=*/6000),
                 /*slack=*/8),
      with_slack(running(6, wl::Priority::batch, 1, /*pages=*/8, /*replay=*/8000),
                 /*slack=*/8),
  };
  ASSERT_TRUE(policy.pick_victim(equal, wl::Priority::batch, &victim));
  EXPECT_EQ(equal[victim].request, 6u);  // 1000 bits/page < 3000 bits/page

  // Class still dominates slack: a blown-deadline best_effort request is
  // preempted before a comfortable batch one.
  const std::vector<VictimCandidate> classy{
      with_slack(running(7, wl::Priority::batch, 0), /*slack=*/1000),
      with_slack(running(8, wl::Priority::best_effort, 1), /*slack=*/-5),
  };
  ASSERT_TRUE(policy.pick_victim(classy, wl::Priority::batch, &victim));
  EXPECT_EQ(classy[victim].request, 8u);
}

// ---- queue re-entry position ------------------------------------------------

TEST(RequestQueue, PreemptedReentersAtTheFront) {
  RequestQueue queue;
  queue.push_arrival(1);
  queue.push_arrival(2);
  queue.push_preempted(3);
  ASSERT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.at(0), 3u);  // preempted ahead of earlier arrivals
  EXPECT_EQ(queue.at(1), 1u);
  EXPECT_EQ(queue.at(2), 2u);
  queue.erase_at(1);  // policy admitted from the middle
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.at(0), 3u);
  EXPECT_EQ(queue.at(1), 2u);
}

TEST(Scheduling, ReentryOrderDependsOnPolicy) {
  // Queue state after a preemption: the preempted batch request sits at
  // position 0, a later interactive arrival behind it. FIFO resumes the
  // preempted request first; PrioritySlack lets the interactive one jump it.
  const std::vector<AdmissionCandidate> q{
      queued(10, wl::Priority::batch, 0),
      queued(11, wl::Priority::interactive, 1, /*slack=*/8),
  };
  FifoYoungestFirst fifo;
  PrioritySlack slack;
  EXPECT_EQ(q[fifo.pick_admission(q)].request, 10u);
  EXPECT_EQ(q[slack.pick_admission(q)].request, 11u);
}

// ---- engine-level edge cases ------------------------------------------------

wl::ArrivalEvent event(std::uint64_t id, std::size_t step,
                       std::size_t prompt_len, std::size_t decode_len,
                       wl::Priority priority = wl::Priority::interactive,
                       std::size_t slo_ttft = 0, std::size_t slo_latency = 0) {
  wl::ArrivalEvent e;
  e.request_id = id;
  e.step = step;
  e.prompt_len = prompt_len;
  e.decode_len = decode_len;
  e.stream_seed = 1000 + id;
  e.priority = priority;
  e.slo_ttft_steps = slo_ttft;
  e.slo_latency_steps = slo_latency;
  return e;
}

ServeConfig tiny_config() {
  ServeConfig config;
  config.n_layer = 1;
  config.n_head = 1;
  config.head_dim = 8;
  config.page_tokens = 4;
  config.backend = BackendKind::exact_quantized;
  config.reclaim = false;  // page demand stays exactly predictable
  config.capture_outputs = false;
  config.simulate_dram = false;
  return config;
}

TEST(ServeEngineScheduling, SingleRunningRequestPoolExhaustionThrows) {
  // The needy request is never its own victim: once it is the only running
  // request and the pool is exhausted, there is no candidate at all and the
  // engine reports the config error instead of self-deadlocking.
  ServeConfig config = tiny_config();
  config.pool_pages = 2;  // fits the prompt + a couple of decode tokens only
  ServeEngine engine(config);
  engine.submit(event(0, 0, /*prompt=*/4, /*decode=*/20));
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(ServeEngineScheduling, FifoPressureEvictsTheOtherRequestNotTheNeedy) {
  // Two identical requests; the first (processed first each step) hits the
  // page boundary first and triggers pressure — the victim must be the
  // *other* (youngest) request, and both still finish.
  ServeConfig config = tiny_config();
  config.pool_pages = 6;
  ServeEngine engine(config);
  engine.submit(event(0, 0, /*prompt=*/8, /*decode=*/8));
  engine.submit(event(1, 0, /*prompt=*/8, /*decode=*/8));
  engine.run();
  EXPECT_EQ(engine.metrics().requests_retired, 2u);
  EXPECT_GT(engine.metrics().preemptions, 0u);
  EXPECT_EQ(engine.requests()[0].preemptions, 0);  // the needy was excluded
  EXPECT_GE(engine.requests()[1].preemptions, 1);
}

TEST(ServeEngineScheduling, PrioritySlackShieldsHigherClassesUnderPressure) {
  // Interactive + best_effort contend for a pool that can't hold everyone.
  // Whichever side trips the pressure, only the best_effort request may be
  // preempted (victim pick or self-preemption) — interactive never pays.
  ServeConfig config = tiny_config();
  config.policy = PolicyKind::priority_slack;
  config.pool_pages = 12;
  ServeEngine engine(config);
  engine.submit(event(0, 0, 8, 16, wl::Priority::best_effort));
  engine.submit(event(1, 0, 8, 16, wl::Priority::interactive));
  engine.submit(event(2, 0, 8, 16, wl::Priority::interactive));
  engine.run();
  const auto& m = engine.metrics();
  EXPECT_EQ(m.requests_retired, 3u);
  EXPECT_GT(m.preemptions, 0u);
  EXPECT_EQ(m.for_class(wl::Priority::interactive).preemptions, 0u);
  EXPECT_EQ(m.for_class(wl::Priority::best_effort).preemptions, m.preemptions);
}

TEST(ServeEngineScheduling, PriorityAdmissionOrdersClassesAndSlack) {
  // One slot: admission order is directly visible in admit_step. Submission
  // order is deliberately inverted (best_effort first) and the two
  // interactive requests carry different TTFT SLOs.
  ServeConfig config = tiny_config();
  config.policy = PolicyKind::priority_slack;
  config.max_batch = 1;
  config.pool_pages = 64;
  ServeEngine engine(config);
  engine.submit(event(0, 0, 4, 4, wl::Priority::best_effort));
  engine.submit(event(1, 0, 4, 4, wl::Priority::batch));
  engine.submit(event(2, 0, 4, 4, wl::Priority::interactive, /*slo_ttft=*/64));
  engine.submit(event(3, 0, 4, 4, wl::Priority::interactive, /*slo_ttft=*/8));
  engine.run();
  EXPECT_EQ(engine.metrics().requests_retired, 4u);
  const auto& reqs = engine.requests();
  EXPECT_LT(reqs[3].admit_step, reqs[2].admit_step);  // tighter SLO first
  EXPECT_LT(reqs[2].admit_step, reqs[1].admit_step);  // interactive < batch
  EXPECT_LT(reqs[1].admit_step, reqs[0].admit_step);  // batch < best_effort
}

TEST(ServeEngineScheduling, StarvationGuardAdmitsBestEffortUnderSustainedLoad) {
  // Sustained interactive arrivals keep the single slot busy and the queue
  // nonempty for the whole run. Under strict priority the best_effort
  // request waits for the entire interactive backlog; with aging it is
  // promoted past fresh interactive arrivals and admits mid-load.
  struct RunSummary {
    std::size_t retired = 0;
    std::size_t scavenger_admit = 0;
    std::size_t last_interactive_admit = 0;
  };
  const auto run_with_aging = [](std::size_t aging_steps) {
    ServeConfig config;
    config.n_layer = 1;
    config.n_head = 1;
    config.head_dim = 8;
    config.page_tokens = 4;
    config.backend = BackendKind::exact_quantized;
    config.reclaim = false;
    config.capture_outputs = false;
    config.simulate_dram = false;
    config.max_batch = 1;
    config.pool_pages = 64;
    config.policy = PolicyKind::priority_slack;
    config.policy_params.aging_steps = aging_steps;
    ServeEngine engine(config);
    // Request 0: the best_effort scavenger, in the queue from step 0.
    engine.submit(event(0, 0, 4, 4, wl::Priority::best_effort));
    // Sustained interactive load: one arrival per step, each ~5 steps of
    // service — the backlog only grows while arrivals continue.
    for (std::size_t i = 0; i < 20; ++i) {
      engine.submit(event(1 + i, i, 4, 4, wl::Priority::interactive,
                          /*slo_ttft=*/64));
    }
    engine.run();
    RunSummary summary;
    summary.retired = engine.metrics().requests_retired;
    summary.scavenger_admit = engine.requests()[0].admit_step;
    for (std::size_t i = 1; i < engine.requests().size(); ++i) {
      summary.last_interactive_admit = std::max(
          summary.last_interactive_admit, engine.requests()[i].admit_step);
    }
    return summary;
  };

  const RunSummary strict = run_with_aging(/*aging_steps=*/0);
  const RunSummary aged = run_with_aging(/*aging_steps=*/3);
  ASSERT_EQ(strict.retired, 21u);
  ASSERT_EQ(aged.retired, 21u);
  // Strict priority starves the scavenger until the interactive backlog is
  // done; aging admits it while interactive requests are still queued.
  EXPECT_LT(aged.scavenger_admit, strict.scavenger_admit);
  EXPECT_LT(aged.scavenger_admit, aged.last_interactive_admit);
}

TEST(ServeEngineScheduling, SloAttainmentAccountsPerClass) {
  // prompt 32 with 16-token chunks = 2 prefill steps, first token at step 2:
  // a 1-step TTFT SLO misses, a 50-step one holds. Latency SLOs likewise.
  ServeConfig config = tiny_config();
  config.prefill_chunk_tokens = 16;
  config.pool_pages = 128;
  ServeEngine engine(config);
  engine.submit(event(0, 0, 32, 4, wl::Priority::interactive, /*slo_ttft=*/1,
                      /*slo_latency=*/50));
  engine.submit(event(1, 0, 32, 4, wl::Priority::interactive, /*slo_ttft=*/50,
                      /*slo_latency=*/1));
  engine.submit(event(2, 0, 32, 4, wl::Priority::batch, /*slo_ttft=*/50,
                      /*slo_latency=*/50));
  engine.submit(event(3, 0, 32, 4, wl::Priority::best_effort));  // no SLO
  engine.run();

  const auto& m = engine.metrics();
  ASSERT_EQ(m.requests_retired, 4u);
  const auto& interactive = m.for_class(wl::Priority::interactive);
  EXPECT_EQ(interactive.submitted, 2u);
  EXPECT_EQ(interactive.retired, 2u);
  EXPECT_EQ(interactive.slo_ttft_tracked, 2u);
  EXPECT_EQ(interactive.slo_ttft_met, 1u);
  EXPECT_EQ(interactive.slo_latency_tracked, 2u);
  EXPECT_EQ(interactive.slo_latency_met, 1u);
  EXPECT_DOUBLE_EQ(interactive.slo_ttft_attainment(), 0.5);
  EXPECT_DOUBLE_EQ(interactive.slo_latency_attainment(), 0.5);
  const auto& batch = m.for_class(wl::Priority::batch);
  EXPECT_DOUBLE_EQ(batch.slo_ttft_attainment(), 1.0);
  EXPECT_DOUBLE_EQ(batch.slo_latency_attainment(), 1.0);
  const auto& scavenger = m.for_class(wl::Priority::best_effort);
  EXPECT_EQ(scavenger.slo_ttft_tracked, 0u);
  EXPECT_DOUBLE_EQ(scavenger.slo_ttft_attainment(), 1.0);  // vacuous
  EXPECT_EQ(interactive.tokens_generated + batch.tokens_generated +
                scavenger.tokens_generated,
            m.tokens_generated);
}

// ---- the QoS policy verdict -------------------------------------------------

wl::PriorityMixParams qos_mix() {
  wl::PriorityMixParams mix;
  mix.arrivals.kind = wl::ArrivalKind::bursty;
  mix.arrivals.rate = 0.5;
  mix.arrivals.burst_factor = 6.0;
  // interactive: short, tight TTFT/latency deadlines in engine steps.
  mix.mix[0] = wl::PriorityClassMix{0.5, 16, 48, 16, 48, 24, 320};
  // batch: long prompts, loose deadlines.
  mix.mix[1] = wl::PriorityClassMix{0.3, 96, 224, 24, 64, 128, 1024};
  // best_effort: no SLO at all.
  mix.mix[2] = wl::PriorityClassMix{0.2, 32, 96, 16, 48, 0, 0};
  return mix;
}

double interactive_p99_latency(PolicyKind policy,
                               const std::vector<wl::ArrivalEvent>& trace) {
  ServeConfig config;
  config.n_layer = 2;
  config.n_head = 2;
  config.head_dim = 64;
  config.max_batch = 10;
  config.pool_pages = 384;  // tight: preemption policy actually decides
  config.page_tokens = 8;
  config.backend = BackendKind::token_picker;
  config.picker.estimator.threshold = 1e-3;
  config.persistence_window = 4;
  config.reclaim = true;
  config.capture_outputs = false;
  config.prefill_chunk_tokens = 16;
  config.policy = policy;
  config.policy_params.aging_steps = 96;  // starvation guard for best_effort
  ServeEngine engine(config);
  engine.submit_trace(trace);
  engine.run();
  return engine.metrics().for_class(wl::Priority::interactive)
      .p99_latency_cycles();
}

// Identical offered load under the three policies: the QoS-aware ones shield
// the interactive class from admission queueing behind long batch prompts
// and from preemption, so its p99 latency comes in strictly below FIFO's.
TEST(ServeEngineScheduling, QosPoliciesBeatFifoOnInteractiveP99Latency) {
  Rng rng(41);
  const auto trace = wl::make_priority_mix_trace(qos_mix(), 40, rng);
  const double fifo =
      interactive_p99_latency(PolicyKind::fifo_youngest_first, trace);
  EXPECT_LT(interactive_p99_latency(PolicyKind::priority_slack, trace), fifo);
  EXPECT_LT(interactive_p99_latency(PolicyKind::cost_aware_victim, trace),
            fifo);
}

// ---- the priority-mix trace generator ---------------------------------------

TEST(PriorityMixTrace, DrawsAllClassesWithPerClassShapesAndSlos) {
  wl::PriorityMixParams params;
  params.arrivals.rate = 1.2;
  Rng rng(321);
  const auto trace = wl::make_priority_mix_trace(params, 200, rng);
  ASSERT_EQ(trace.size(), 200u);
  std::array<std::size_t, wl::kPriorityCount> counts{};
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& e = trace[i];
    EXPECT_EQ(e.request_id, i);
    if (i > 0) {
      EXPECT_GE(e.step, trace[i - 1].step);
    }
    const auto cls = static_cast<std::size_t>(e.priority);
    ASSERT_LT(cls, wl::kPriorityCount);
    ++counts[cls];
    const auto& mix = params.mix[cls];
    EXPECT_GE(e.prompt_len, mix.prompt_min);
    EXPECT_LE(e.prompt_len, mix.prompt_max);
    EXPECT_GE(e.decode_len, mix.decode_min);
    EXPECT_LE(e.decode_len, mix.decode_max);
    EXPECT_EQ(e.slo_ttft_steps, mix.slo_ttft_steps);
    EXPECT_EQ(e.slo_latency_steps, mix.slo_latency_steps);
  }
  // All three classes actually occur, roughly per the 0.5/0.3/0.2 weights.
  for (const auto count : counts) EXPECT_GT(count, 10u);
  EXPECT_GT(counts[0], counts[2]);
}

TEST(PriorityMixTrace, DeterministicFromSeed) {
  wl::PriorityMixParams params;
  Rng a(7), b(7);
  const auto ta = wl::make_priority_mix_trace(params, 64, a);
  const auto tb = wl::make_priority_mix_trace(params, 64, b);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].step, tb[i].step);
    EXPECT_EQ(ta[i].priority, tb[i].priority);
    EXPECT_EQ(ta[i].prompt_len, tb[i].prompt_len);
    EXPECT_EQ(ta[i].decode_len, tb[i].decode_len);
    EXPECT_EQ(ta[i].stream_seed, tb[i].stream_seed);
  }
}

}  // namespace
}  // namespace topick::serve
