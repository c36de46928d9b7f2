// Fault-tolerance & graceful-degradation suite (src/fault/).
//
// The two halves of the determinism contract:
//   * faults OFF (null or empty plan, controller disabled) is bit-identical
//     to a fault-free engine — for every policy, thread count, and executor;
//   * faults ON (fixed plan + seeds) replays bit-identically run over run,
//     again at every thread count and in both executors.
// Plus the resilience invariants: aborts/retries/rejections never leak pool
// pages, a mid-prefill abort releases its cursor and charged traffic exactly
// once, and the degradation controller walks its ladder deterministically.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fault/degradation.h"
#include "fault/fault_plan.h"
#include "memsim/hbm.h"
#include "serve/serve_engine.h"
#include "serve_identity.h"
#include "workload/arrivals.h"

namespace topick::serve {
namespace {

// ---- memsim channel faults --------------------------------------------------

// Streams `n` sequential transactions through one channel and returns the
// drain cycle plus stats.
std::pair<std::uint64_t, mem::DramStats> stream_channel(
    const mem::ChannelFault* fault, std::size_t n) {
  mem::DramConfig config;
  config.channels = 1;
  config.enable_refresh = false;
  mem::Hbm hbm(config);
  if (fault != nullptr) hbm.set_channel_fault(0, fault);
  std::size_t sent = 0;
  while (sent < n || hbm.pending() > 0) {
    if (sent < n) {
      mem::MemRequest req;
      req.addr = static_cast<std::uint64_t>(sent) *
                 static_cast<std::uint64_t>(config.transaction_bytes);
      req.id = sent;
      if (hbm.try_enqueue(req)) ++sent;
    }
    hbm.tick();
  }
  return {hbm.cycle(), hbm.stats()};
}

TEST(ChannelFault, BurstMultiplierStretchesTheDataBus) {
  const auto [healthy_cycles, healthy] = stream_channel(nullptr, 256);
  mem::ChannelFault fault;
  fault.burst_multiplier = 4.0;
  const auto [degraded_cycles, degraded] = stream_channel(&fault, 256);
  // Same work, same request count — the degraded bus just takes longer.
  EXPECT_EQ(healthy.requests, degraded.requests);
  EXPECT_GT(degraded_cycles, healthy_cycles);
  EXPECT_GT(degraded.data_bus_busy_cycles, healthy.data_bus_busy_cycles);
  EXPECT_EQ(healthy.fault_stall_cycles, 0u);
}

TEST(ChannelFault, StallWindowsBlockIssueAndAreCounted) {
  mem::ChannelFault fault;
  fault.stall_period = 64;
  fault.stall_cycles = 16;
  const auto [healthy_cycles, healthy] = stream_channel(nullptr, 256);
  const auto [stalled_cycles, stalled] = stream_channel(&fault, 256);
  EXPECT_GT(stalled.fault_stall_cycles, 0u);
  EXPECT_GT(stalled_cycles, healthy_cycles);
  EXPECT_EQ(healthy.requests, stalled.requests);
  // Deterministic: the same faulted stream replays to the same cycle.
  const auto [again_cycles, again] = stream_channel(&fault, 256);
  EXPECT_EQ(stalled_cycles, again_cycles);
  EXPECT_EQ(stalled.fault_stall_cycles, again.fault_stall_cycles);
}

// ---- FaultInjector / FaultPlan ----------------------------------------------

TEST(FaultInjector, DisabledAndEmptyPlansNeverFire) {
  fault::FaultInjector none;
  EXPECT_FALSE(none.enabled());
  EXPECT_FALSE(none.alloc_fault(0));
  EXPECT_FALSE(none.should_abort(0, 0));

  const fault::FaultPlan empty;
  fault::FaultInjector injector(&empty);
  EXPECT_FALSE(injector.enabled());
  for (std::size_t step = 0; step < 32; ++step) {
    EXPECT_FALSE(injector.alloc_fault(step));
    EXPECT_FALSE(injector.should_abort(step, step));
  }
  EXPECT_EQ(injector.alloc_faults_fired(), 0u);
}

TEST(FaultInjector, AllocWindowFiresEveryPeriodThCheckInsideTheWindow) {
  fault::FaultPlan plan;
  plan.alloc_faults.push_back(fault::AllocFaultSpec{10, 20, 3});
  fault::FaultInjector injector(&plan);
  ASSERT_TRUE(injector.enabled());
  // Outside the window: never fires, counter does not advance.
  for (std::size_t step = 0; step < 10; ++step) {
    EXPECT_FALSE(injector.alloc_fault(step));
  }
  EXPECT_EQ(injector.alloc_checks(), 0u);
  // Inside: every 3rd check fails, regardless of which step it lands on.
  int fired = 0;
  for (int check = 0; check < 9; ++check) {
    if (injector.alloc_fault(15)) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(injector.alloc_faults_fired(), 3u);
  EXPECT_FALSE(injector.alloc_fault(20));  // end_step is exclusive
}

TEST(FaultInjector, AbortsFireExactlyOnceAtOrAfterTheirStep) {
  fault::FaultPlan plan;
  plan.aborts.push_back(fault::AbortFaultSpec{7, 5});
  fault::FaultInjector injector(&plan);
  EXPECT_FALSE(injector.should_abort(7, 4));   // too early
  EXPECT_FALSE(injector.should_abort(3, 9));   // wrong request
  EXPECT_TRUE(injector.should_abort(7, 6));    // fires late is fine
  EXPECT_FALSE(injector.should_abort(7, 7));   // once only
}

TEST(FaultPlan, ChaosPlansAreSeedDeterministicAndBounded) {
  const fault::ChaosParams params;
  const auto a = fault::make_chaos_plan(99, params, 8, 20, 400);
  const auto b = fault::make_chaos_plan(99, params, 8, 20, 400);
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (std::size_t i = 0; i < a.channels.size(); ++i) {
    EXPECT_EQ(a.channels[i].channel, b.channels[i].channel);
    EXPECT_EQ(a.channels[i].fault.burst_multiplier,
              b.channels[i].fault.burst_multiplier);
    EXPECT_EQ(a.channels[i].fault.stall_period, b.channels[i].fault.stall_period);
    EXPECT_EQ(a.channels[i].fault.stall_cycles, b.channels[i].fault.stall_cycles);
    EXPECT_LT(a.channels[i].channel, 8);
  }
  ASSERT_EQ(a.alloc_faults.size(), b.alloc_faults.size());
  for (std::size_t i = 0; i < a.alloc_faults.size(); ++i) {
    EXPECT_EQ(a.alloc_faults[i].start_step, b.alloc_faults[i].start_step);
    EXPECT_EQ(a.alloc_faults[i].end_step, b.alloc_faults[i].end_step);
    EXPECT_EQ(a.alloc_faults[i].period, b.alloc_faults[i].period);
    EXPECT_GE(a.alloc_faults[i].period, 1u);
  }
  ASSERT_EQ(a.aborts.size(), b.aborts.size());
  for (std::size_t i = 0; i < a.aborts.size(); ++i) {
    EXPECT_EQ(a.aborts[i].request_id, b.aborts[i].request_id);
    EXPECT_EQ(a.aborts[i].at_step, b.aborts[i].at_step);
    EXPECT_LT(a.aborts[i].request_id, 20u);
  }
  EXPECT_LE(a.channels.size(), params.max_channel_faults);
  EXPECT_LE(a.alloc_faults.size(), params.max_alloc_windows);
  EXPECT_LE(a.aborts.size(), params.max_aborts);
}

TEST(FaultPlan, ZeroAllocPeriodMaxThrowsWhenAllocWindowsAreDrawn) {
  // The period draw was uniform_index(alloc_period_max): a modulo by zero
  // that killed the process with SIGFPE.
  fault::ChaosParams params;
  params.alloc_period_max = 0;
  EXPECT_THROW(fault::make_chaos_plan(99, params, 8, 20, 400),
               std::logic_error);
  // Unused, the value is harmless: no windows, or no horizon to place them.
  params.max_alloc_windows = 0;
  EXPECT_TRUE(fault::make_chaos_plan(99, params, 8, 20, 400)
                  .alloc_faults.empty());
  params.max_alloc_windows = 2;
  EXPECT_TRUE(fault::make_chaos_plan(99, params, 8, 20, 0)
                  .alloc_faults.empty());
}

// ---- DegradationController ladder -------------------------------------------

TEST(DegradationController, WalksTheLadderWithHysteresisAndDwell) {
  fault::DegradationConfig config;
  config.enabled = true;
  config.evaluate_every_steps = 1;
  config.hold_steps = 4;
  fault::DegradationController ctl(config);

  // Healthy signals: stays at L0 forever.
  EXPECT_FALSE(ctl.observe(0, 0.3, 1.0));
  EXPECT_EQ(ctl.level(), 0);

  // Pool pressure escalates — but only once per dwell.
  EXPECT_TRUE(ctl.observe(1, 0.95, 1.0));
  EXPECT_EQ(ctl.level(), 1);
  EXPECT_FALSE(ctl.observe(2, 0.95, 1.0));  // dwell
  EXPECT_TRUE(ctl.observe(5, 0.95, 1.0));
  EXPECT_TRUE(ctl.observe(9, 0.95, 1.0));
  EXPECT_EQ(ctl.level(), 3);
  EXPECT_TRUE(ctl.shed_best_effort());
  EXPECT_FALSE(ctl.observe(13, 0.95, 1.0));  // clamped at kMaxLevel

  // Ladder order: best_effort first, then batch, then interactive.
  EXPECT_EQ(ctl.notches(wl::Priority::best_effort), 3);
  EXPECT_EQ(ctl.notches(wl::Priority::batch), 2);
  EXPECT_EQ(ctl.notches(wl::Priority::interactive), 1);
  EXPECT_GT(ctl.threshold_scale(wl::Priority::best_effort),
            ctl.threshold_scale(wl::Priority::interactive));
  EXPECT_GT(ctl.headroom(wl::Priority::best_effort), 1.0f);

  // Recovery needs the pool *and* SLO bands clear; then de-escalates one
  // level per dwell.
  EXPECT_FALSE(ctl.observe(17, 0.2, 0.5));  // SLO still hurting
  EXPECT_TRUE(ctl.observe(21, 0.2, 1.0));
  EXPECT_EQ(ctl.level(), 2);
  // An empty SLO window (< 0) is neutral: does not block recovery.
  EXPECT_TRUE(ctl.observe(25, 0.2, -1.0));
  EXPECT_EQ(ctl.level(), 1);
}

// ---- engine-level determinism ----------------------------------------------

ServeConfig fault_config(PolicyKind policy) {
  ServeConfig config;
  config.n_layer = 1;
  config.n_head = 2;
  config.head_dim = 16;
  config.max_batch = 6;
  config.pool_pages = 56;  // tight: preemption and pool pressure both run
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

wl::PriorityMixParams fault_mix() {
  wl::PriorityMixParams mix;
  mix.arrivals.rate = 0.9;
  for (auto& m : mix.mix) {
    m.prompt_min = 4;
    m.prompt_max = 24;
    m.decode_min = 8;
    m.decode_max = 24;
  }
  return mix;
}

std::vector<wl::ArrivalEvent> fault_trace(std::size_t n = 18) {
  Rng trace_rng(2026);
  return wl::make_priority_mix_trace(fault_mix(), n, trace_rng);
}

// A plan that exercises all three fault mechanisms plus deadlines, retry,
// admission control, and the controller in one contended scenario.
fault::FaultPlan active_plan() {
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::ChannelFaultSpec ch;
  ch.channel = 0;
  ch.fault.burst_multiplier = 2.0;
  ch.fault.stall_period = 2048;
  ch.fault.stall_cycles = 256;
  plan.channels.push_back(ch);
  plan.alloc_faults.push_back(fault::AllocFaultSpec{6, 60, 5});
  plan.aborts.push_back(fault::AbortFaultSpec{3, 4});
  plan.aborts.push_back(fault::AbortFaultSpec{7, 9});
  return plan;
}

void arm_resilience(ServeConfig* config, const fault::FaultPlan* plan) {
  config->faults = plan;
  config->enforce_deadlines = true;
  config->retry.max_retries = 2;
  config->retry.backoff_base_steps = 2;
  config->admission.reject_best_effort_utilization = 0.9;
  config->degradation.enabled = true;
  config->degradation.evaluate_every_steps = 4;
  config->degradation.hold_steps = 8;
  config->degradation.pool_hi = 0.60;
  config->degradation.pool_lo = 0.35;
}

// Faults off ⇒ bit-identical: an engine holding a null plan, an engine
// holding an *empty* plan, and an engine with the whole resilience config
// left at defaults must all reproduce the same bits — per policy, at threads
// {1, 2, 8}, in both executors.
TEST(ServeEngineFaults, FaultsOffIsBitIdenticalToBaseline) {
  const auto trace = fault_trace();
  const fault::FaultPlan empty;

  for (const PolicyKind policy :
       {PolicyKind::fifo_youngest_first, PolicyKind::priority_slack,
        PolicyKind::cost_aware_victim}) {
    SCOPED_TRACE(policy_kind_name(policy));
    ServeEngine baseline(fault_config(policy));
    baseline.submit_trace(trace);
    baseline.run();
    EXPECT_GT(baseline.metrics().preemptions, 0u);
    EXPECT_EQ(baseline.metrics().aborts, 0u);
    EXPECT_EQ(baseline.metrics().requests_failed, 0u);

    for (const bool pipeline : {false, true}) {
      for (const std::size_t threads :
           {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        SCOPED_TRACE(::testing::Message()
                     << (pipeline ? "pipelined" : "sequential") << " threads "
                     << threads);
        ServeConfig config = fault_config(policy);
        config.faults = &empty;  // wired but empty: must stay inert
        config.threads = threads;
        config.pipeline = pipeline;
        ServeEngine armed(config);
        armed.submit_trace(trace);
        armed.run();
        expect_runs_identical(baseline, armed);
      }
    }
  }
}

// Fixed seed + fixed plan ⇒ the same failure story, bit for bit, at every
// thread count and in both executors.
TEST(ServeEngineFaults, ActiveFaultPlanReplaysBitIdentically) {
  const auto trace = fault_trace();
  const fault::FaultPlan plan = active_plan();

  ServeConfig reference_config = fault_config(PolicyKind::cost_aware_victim);
  arm_resilience(&reference_config, &plan);
  ServeEngine reference(reference_config);
  reference.submit_trace(trace);
  reference.run();

  // The scenario must actually exercise the machinery it claims to test.
  const FleetMetrics& m = reference.metrics();
  EXPECT_GT(m.aborts, 0u);
  EXPECT_GT(m.retries, 0u);
  EXPECT_EQ(m.requests_retired + m.requests_failed, m.requests_submitted);
  // Zero page leaks across aborts/retries/cancellations.
  EXPECT_EQ(reference.pool().pages_free(), reference.pool().pages_total());

  for (const bool pipeline : {false, true}) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(::testing::Message()
                   << (pipeline ? "pipelined" : "sequential") << " threads "
                   << threads);
      ServeConfig config = fault_config(PolicyKind::cost_aware_victim);
      arm_resilience(&config, &plan);
      config.threads = threads;
      config.pipeline = pipeline;
      ServeEngine rerun(config);
      rerun.submit_trace(trace);
      rerun.run();
      expect_runs_identical(reference, rerun);
    }
  }
}

// Satellite regression: a request aborted *mid-prefill* must release its
// pages and prefill cursor exactly once, charge replay traffic once per kept
// chunk, and complete cleanly on retry.
TEST(ServeEngineFaults, MidPrefillAbortReleasesCursorAndPagesExactlyOnce) {
  wl::ArrivalEvent event;
  event.request_id = 0;
  event.step = 0;
  event.prompt_len = 40;  // 5 chunks of 8: aborted at step 2, mid-prefill
  event.decode_len = 4;
  event.stream_seed = 0x5eed;
  event.priority = wl::Priority::interactive;

  fault::FaultPlan plan;
  plan.aborts.push_back(fault::AbortFaultSpec{0, 2});

  ServeConfig config = fault_config(PolicyKind::fifo_youngest_first);
  config.pool_pages = 128;  // no pressure: the abort is the only disruption
  config.faults = &plan;
  config.retry.max_retries = 1;
  config.retry.backoff_base_steps = 3;

  ServeEngine engine(config);
  engine.submit(event);
  engine.run();

  const Request& req = engine.requests()[0];
  EXPECT_EQ(req.state, RequestState::finished);
  EXPECT_EQ(req.generated, event.decode_len);
  EXPECT_EQ(req.attempts, 1);
  const FleetMetrics& m = engine.metrics();
  EXPECT_EQ(m.aborts, 1u);
  EXPECT_EQ(m.retries, 1u);
  EXPECT_EQ(m.requests_retired, 1u);
  EXPECT_EQ(m.requests_failed, 0u);
  // Abort fires in step 2's fault phase: steps 0 and 1 appended one 8-token
  // chunk each (admission and first chunk share step 0), both charged; the
  // retry replays the full 40-token prompt. Exactly once each — no chunk
  // vanishes, none is double-charged.
  EXPECT_EQ(m.prefill_tokens, 16u + 40u);
  // Exactly-once release: every page is back in the pool.
  EXPECT_EQ(engine.pool().pages_free(), engine.pool().pages_total());

  // And the whole story replays bit-identically.
  ServeEngine again(config);
  again.submit(event);
  again.run();
  expect_runs_identical(engine, again);
}

// Admission control sheds best_effort picks past the utilization threshold.
// A best_effort request can still land when the pool is completely idle
// (utilization 0 passes any positive threshold), so the assertions are the
// invariants: rejections happen, only best_effort pays, everything conserves.
TEST(ServeEngineFaults, AdmissionControlRejectsBestEffortUnderPressure) {
  const auto trace = fault_trace();
  ServeConfig config = fault_config(PolicyKind::priority_slack);
  config.admission.reject_best_effort_utilization = 1e-9;  // any usage rejects
  config.retry.max_retries = 1;
  config.retry.backoff_base_steps = 2;
  ServeEngine engine(config);
  engine.submit_trace(trace);
  engine.run();

  const FleetMetrics& m = engine.metrics();
  const ClassMetrics& be = m.for_class(wl::Priority::best_effort);
  ASSERT_GT(be.submitted, 0u);
  EXPECT_GT(m.rejections, 0u);
  EXPECT_EQ(m.rejections, be.rejections);  // rejection is best_effort-only
  EXPECT_EQ(be.retired + be.failed, be.submitted);
  // No faults and no deadlines here: the SLO-carrying classes cannot fail.
  EXPECT_EQ(m.for_class(wl::Priority::interactive).failed, 0u);
  EXPECT_EQ(m.for_class(wl::Priority::batch).failed, 0u);
  EXPECT_EQ(m.requests_retired + m.requests_failed, m.requests_submitted);
  EXPECT_EQ(engine.pool().pages_free(), engine.pool().pages_total());

  // Deterministic: the whole rejection/retry story replays.
  ServeEngine again(config);
  again.submit_trace(trace);
  again.run();
  expect_runs_identical(engine, again);
}

// Randomized fault matrix: seeded chaos plans must always terminate every
// request (finished or failed) and hand every page back — the pool-shadow
// leak check across aborts, retries, rejections, and deadline cancels.
TEST(ServeEngineFaults, RandomizedFaultMatrixLeaksNothing) {
  const auto trace = fault_trace(16);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "chaos seed " << seed);
    const fault::FaultPlan plan = fault::make_chaos_plan(
        seed, fault::ChaosParams{}, 8, trace.size(), 200);
    ServeConfig config = fault_config(PolicyKind::cost_aware_victim);
    arm_resilience(&config, &plan);
    config.capture_outputs = false;  // keep the sweep lean
    // Alternate executors across seeds so the matrix covers both.
    config.threads = seed % 2 == 0 ? 8 : 1;
    config.pipeline = seed % 2 == 0;
    ServeEngine engine(config);
    engine.submit_trace(trace);
    engine.run();

    const FleetMetrics& m = engine.metrics();
    EXPECT_EQ(m.requests_retired + m.requests_failed, m.requests_submitted);
    for (const Request& req : engine.requests()) {
      EXPECT_TRUE(req.state == RequestState::finished ||
                  req.state == RequestState::failed);
    }
    EXPECT_EQ(engine.pool().pages_free(), engine.pool().pages_total());
  }
}

// The degradation controller must engage under sustained overload and its
// effects (tightened thresholds => degraded tokens; L3 => shed best_effort)
// must be visible in the metrics — deterministically.
TEST(ServeEngineFaults, DegradationControllerEngagesUnderOverload) {
  wl::PriorityMixParams mix = fault_mix();
  mix.arrivals.rate = 1.5;  // past saturation for this pool
  Rng trace_rng(31);
  const auto trace = wl::make_priority_mix_trace(mix, 24, trace_rng);

  ServeConfig config = fault_config(PolicyKind::priority_slack);
  config.capture_outputs = false;
  config.degradation.enabled = true;
  config.degradation.evaluate_every_steps = 2;
  config.degradation.hold_steps = 4;
  config.degradation.pool_hi = 0.50;
  config.degradation.pool_lo = 0.30;
  ServeEngine engine(config);
  engine.submit_trace(trace);
  engine.run();

  const FleetMetrics& m = engine.metrics();
  EXPECT_GT(m.degradation_level_changes, 0u);
  EXPECT_GT(m.degraded_tokens, 0u);
  EXPECT_EQ(engine.pool().pages_free(), engine.pool().pages_total());

  ServeEngine again(config);
  again.submit_trace(trace);
  again.run();
  EXPECT_EQ(m.degradation_level_changes,
            again.metrics().degradation_level_changes);
  EXPECT_EQ(m.degraded_tokens, again.metrics().degraded_tokens);
  EXPECT_EQ(m.tokens_generated, again.metrics().tokens_generated);
}

// ---- the overload resilience verdict ----------------------------------------

// One degraded channel: 3x burst stretch plus periodic stall windows — the
// fleet's aggregate bandwidth drops and channel-0 traffic queues behind it.
fault::FaultPlan resilience_plan() {
  fault::FaultPlan plan;
  plan.seed = 11;
  fault::ChannelFaultSpec spec;
  spec.channel = 0;
  spec.fault.burst_multiplier = 3.0;
  spec.fault.stall_period = 4096;
  spec.fault.stall_cycles = 512;
  plan.channels.push_back(spec);
  return plan;
}

// Offered load past saturation for the resilience pool: the queue only grows
// while arrivals continue, so without intervention deadlines start blowing.
wl::PriorityMixParams resilience_mix() {
  wl::PriorityMixParams mix;
  mix.arrivals.rate = 2.0;
  // interactive: short, tight step-domain deadlines — queue wait past ~2
  // service generations blows them.
  mix.mix[0] = wl::PriorityClassMix{0.5, 16, 48, 16, 48, 40, 128};
  // batch: long prompts, deadlines loose enough to survive either arm.
  mix.mix[1] = wl::PriorityClassMix{0.3, 64, 160, 16, 48, 384, 2048};
  // best_effort: no SLO — the controller's first sacrifice.
  mix.mix[2] = wl::PriorityClassMix{0.2, 32, 96, 16, 48, 0, 0};
  return mix;
}

// Both arms share the faulted channel, deadlines, retry/backoff, and
// admission control — the *only* difference is the closed-loop controller.
ServeConfig resilience_config(bool controller, const fault::FaultPlan& plan) {
  ServeConfig config;
  config.n_layer = 2;
  config.n_head = 2;
  config.head_dim = 64;
  config.max_batch = 8;
  config.pool_pages = 192;  // tight enough that overload shows in occupancy
  config.page_tokens = 8;
  config.backend = BackendKind::token_picker;
  config.picker.estimator.threshold = 1e-3;
  config.persistence_window = 4;
  config.reclaim = true;
  config.capture_outputs = false;
  config.prefill_chunk_tokens = 16;
  config.policy = PolicyKind::cost_aware_victim;
  config.policy_params.aging_steps = 96;
  config.faults = &plan;
  config.enforce_deadlines = true;
  config.retry.max_retries = 2;
  config.retry.backoff_base_steps = 4;
  config.admission.reject_best_effort_utilization = 0.95;
  if (controller) {
    config.degradation.enabled = true;
    config.degradation.evaluate_every_steps = 4;
    config.degradation.hold_steps = 12;
    config.degradation.pool_hi = 0.60;
    config.degradation.pool_lo = 0.40;
  }
  return config;
}

// Rate past saturation with channel 0 degraded: the DegradationController
// must buy the interactive class strictly better latency-SLO attainment than
// the same fleet without it, and give up no TTFT attainment.
TEST(ServeEngineFaults, ControllerImprovesInteractiveSloUnderOverload) {
  const fault::FaultPlan plan = resilience_plan();
  Rng rng(53);
  const auto trace = wl::make_priority_mix_trace(resilience_mix(), 48, rng);

  ServeEngine baseline(resilience_config(/*controller=*/false, plan));
  baseline.submit_trace(trace);
  baseline.run();
  ServeEngine controlled(resilience_config(/*controller=*/true, plan));
  controlled.submit_trace(trace);
  controlled.run();

  const ClassMetrics& base =
      baseline.metrics().for_class(wl::Priority::interactive);
  const ClassMetrics& ctl =
      controlled.metrics().for_class(wl::Priority::interactive);
  EXPECT_GT(ctl.slo_latency_attainment(), base.slo_latency_attainment());
  EXPECT_GE(ctl.slo_ttft_attainment(), base.slo_ttft_attainment());
}

}  // namespace
}  // namespace topick::serve
