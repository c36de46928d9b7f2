#include "accel/engine.h"

#include <algorithm>
#include <optional>

#include "common/require.h"

namespace topick::accel {

namespace {

// Request-id encoding: | token | phase(1) | chunk(3) | granule(4) |.
constexpr std::uint64_t kGranuleBits = 4;
constexpr std::uint64_t kChunkBits = 3;
constexpr std::uint64_t kPhaseShift = kGranuleBits + kChunkBits;
constexpr std::uint64_t kTokenShift = kPhaseShift + 1;

std::uint64_t encode_id(std::size_t token, bool value_phase, int chunk,
                        int granule) {
  return (static_cast<std::uint64_t>(token) << kTokenShift) |
         (static_cast<std::uint64_t>(value_phase) << kPhaseShift) |
         (static_cast<std::uint64_t>(chunk) << kGranuleBits) |
         static_cast<std::uint64_t>(granule);
}

struct DecodedId {
  std::size_t token;
  bool value_phase;
  int chunk;
  int granule;
};

DecodedId decode_id(std::uint64_t id) {
  DecodedId d;
  d.token = static_cast<std::size_t>(id >> kTokenShift);
  d.value_phase = ((id >> kPhaseShift) & 1u) != 0;
  d.chunk = static_cast<int>((id >> kGranuleBits) & ((1u << kChunkBits) - 1u));
  d.granule = static_cast<int>(id & ((1u << kGranuleBits) - 1u));
  return d;
}

enum class TokenPhase { unresolved, pruned, kept };

struct TokenState {
  TokenPhase phase = TokenPhase::unresolved;
  int chunks_done = 0;
  std::int64_t partial = 0;     // streaming modes keep partials here (the
                                // on-chip score buffer); OoO uses the
                                // scoreboard entries instead
  double final_score = 0.0;
};

constexpr std::uint64_t kMaxCoreCycles = 50'000'000;
constexpr std::size_t kTimelineCap = 20'000;

}  // namespace

std::string event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::request: return "request";
    case EventKind::arrive: return "arrive";
    case EventKind::compute: return "compute";
    case EventKind::prune: return "prune";
    case EventKind::keep: return "keep";
    case EventKind::value_fetch: return "value_fetch";
  }
  return "?";
}

AccelInstance make_instance(std::span<const float> q, const KvHeadView& kv,
                            const fx::QuantParams& base) {
  AccelInstance out;
  out.kv = quantize_kv(kv, base);
  out.score_scale = quantize_query(q, base, out.kv.keys.params.scale, &out.q);
  return out;
}

Engine::Engine(const AccelConfig& config) : config_(config) {
  require(config.pe_lanes > 0, "AccelConfig: pe_lanes must be positive");
  require(config.scoreboard_entries > 0,
          "AccelConfig: scoreboard_entries must be positive");
  require(config.dram_clocks_per_core > 0,
          "AccelConfig: dram_clocks_per_core must be positive");
}

SimResult Engine::run(const AccelInstance& instance, bool record_timeline) {
  const QuantizedKvView kv = instance.kv.view();
  const std::size_t len = kv.len;
  require(len > 0, "Engine: instance has no tokens");
  require(instance.q.size() == kv.head_dim,
          "Engine: K/V row width differs from the query");
  const auto head_dim = static_cast<int>(kv.head_dim);
  const fx::QuantParams kparams = kv.key_params;
  const int num_chunks = kparams.num_chunks();
  require(num_chunks < (1 << kChunkBits), "Engine: too many chunks for id");

  const KvLayout layout(config_, instance.base_addr, len, head_dim);
  const int gpc = layout.granules_per_chunk();
  const int gpv = layout.granules_per_value();
  require(gpc <= (1 << kGranuleBits) && gpv <= (1 << kGranuleBits),
          "Engine: granule count exceeds id field");
  const std::uint64_t granule_bits =
      static_cast<std::uint64_t>(config_.dram.transaction_bytes) * 8;

  const bool estimation = config_.design != DesignPoint::baseline;
  const bool on_demand = config_.design == DesignPoint::topick_ooo ||
                         config_.design == DesignPoint::topick_stalled;
  const bool stall_mode = config_.design == DesignPoint::topick_stalled;
  const auto lanes_n = static_cast<std::size_t>(config_.pe_lanes);

  mem::Hbm hbm(config_.dram);
  hbm.enable_trace(config_.trace_dram);
  // The Denominator Aggregation module (Fig. 6): one estimator shared by
  // every lane.
  ProbabilityEstimator dag(config_.estimator);
  dag.reset(len);
  const fx::MarginTable margins(instance.q, kparams);
  // Each key's partial starts at the offset-binary correction and gains one
  // masked nibble-plane dot per chunk (core/quantized_kv_cache.h): exactly
  // the two's-complement partial dot at every level.
  const std::int16_t* qd = instance.q.values.data();
  const std::int64_t offset_dot = kv.key_offset_dot(qd);

  std::vector<PeLane> lanes;
  lanes.reserve(lanes_n);
  for (std::size_t l = 0; l < lanes_n; ++l) {
    lanes.emplace_back(static_cast<int>(l),
                       static_cast<std::size_t>(config_.scoreboard_entries));
  }

  std::vector<TokenState> tokens(len);
  SimResult result;
  result.kept.assign(len, false);

  auto emit = [&](std::uint64_t cycle, int lane, EventKind kind,
                  std::size_t token, int chunk) {
    if (record_timeline && result.timeline.size() < kTimelineCap) {
      result.timeline.push_back(TimelineEvent{cycle, lane, kind, token, chunk});
    }
  };

  // ---- request generation state -------------------------------------
  // OoO: per-lane first-chunk queues in visit order.
  Rng order_rng(0x70c4);
  const auto order = make_visit_order(
      len, config_.order,
      config_.order == OrderingPolicy::random_order ? &order_rng : nullptr);
  std::vector<std::vector<std::size_t>> lane_first_queue(lanes_n);
  for (const auto token : order) {
    lane_first_queue[token % lanes_n].push_back(token);
  }
  std::vector<std::size_t> first_index(lanes_n, 0);  // next token in queue
  std::vector<int> first_granule(lanes_n, 0);        // next granule of it

  // Streaming: global plane-major cursor over all K granules.
  std::uint64_t stream_cursor = 0;
  const std::uint64_t total_k_granules =
      static_cast<std::uint64_t>(len) * num_chunks * gpc;

  // Pending first-chunk insert per lane (keep decision awaiting scoreboard).
  struct PendingInsert {
    std::size_t token;
    std::int64_t partial;
    double s_min;
    int next_chunk;
  };
  std::vector<std::optional<PendingInsert>> pending(lanes_n);

  std::size_t unresolved = len;
  std::uint64_t k_granules_fetched = 0;
  std::uint64_t cycle = 0;
  // Stalled design: at most one outstanding request per lane.
  std::vector<int> outstanding(lanes_n, 0);
  // Denominator priming: the visit order front-loads the dominant tokens
  // (most recent + attention sink); the flood of remaining first chunks is
  // held until those have registered, so early decisions do not run against
  // a near-empty denominator (§3.1: "prioritize dominant tokens within the
  // subset").
  std::size_t primed_decisions = 0;
  // Bounded by what the lanes can have in flight before the gate opens
  // (two tokens per lane), or the gate would deadlock on small configs.
  const std::size_t priming_target =
      std::min({len / 2, std::size_t{24}, 2 * lanes_n});

  // Finishes a keep-decision: registers with the DAG and (OoO) requests the
  // next chunk. Returns false when the scoreboard has no room.
  auto commit_keep = [&](PeLane& lane, std::size_t token, std::int64_t partial,
                         double s_min, int next_chunk) -> bool {
    if (on_demand) {
      if (lane.scoreboard().full()) return false;
      lane.scoreboard().insert(
          ScoreboardEntry{token, next_chunk, partial, s_min});
      for (int g = 0; g < gpc; ++g) {
        lane.push_request(
            mem::MemRequest{layout.key_chunk_addr(token, next_chunk, g),
                            encode_id(token, false, next_chunk, g)});
      }
      emit(cycle, lane.id(), EventKind::request, token, next_chunk);
    } else {
      tokens[token].partial = partial;
    }
    dag.update_token(token, s_min);
    return true;
  };

  // Evaluates the RPDU decision for an assembled chunk. Returns false when
  // the decision could not complete (scoreboard full on a first-chunk keep).
  auto decide = [&](PeLane& lane, std::size_t token, int chunk,
                    std::int64_t partial) -> bool {
    auto& state = tokens[token];
    const int level = chunk + 1;
    const auto& margin = margins.at_level(level);
    const double s_max =
        static_cast<double>(partial + margin.max_margin) * instance.score_scale;
    const double s_min =
        static_cast<double>(partial + margin.min_margin) * instance.score_scale;

    if (level == 1) ++primed_decisions;
    if (dag.should_prune(s_max)) {
      dag.mark_pruned(token);
      state.phase = TokenPhase::pruned;
      state.chunks_done = level;
      --unresolved;
      emit(cycle, lane.id(), EventKind::prune, token, chunk);
      return true;
    }
    if (level == num_chunks) {
      state.phase = TokenPhase::kept;
      state.chunks_done = level;
      state.final_score = static_cast<double>(partial) * instance.score_scale;
      result.kept[token] = true;
      dag.update_token(token, state.final_score);
      --unresolved;
      emit(cycle, lane.id(), EventKind::keep, token, chunk);
      return true;
    }
    if (!commit_keep(lane, token, partial, s_min, level)) {
      pending[static_cast<std::size_t>(lane.id())] =
          PendingInsert{token, partial, s_min, level};
      return false;
    }
    state.chunks_done = level;
    return true;
  };

  // ---- step 0: score calculation -------------------------------------
  auto step0_done = [&]() -> bool {
    if (estimation) return unresolved == 0;
    // Baseline: every granule fetched and consumed.
    if (stream_cursor < total_k_granules) return false;
    for (auto& lane : lanes) {
      if (lane.has_ready() || !lane.compute_free(cycle)) return false;
    }
    return hbm.idle();
  };

  while (!step0_done()) {
    require(cycle < kMaxCoreCycles, "Engine: step 0 exceeded cycle cap");

    // DRAM advances dram_clocks_per_core per core cycle; route responses.
    for (int k = 0; k < config_.dram_clocks_per_core; ++k) {
      for (const auto& resp : hbm.tick()) {
        const auto d = decode_id(resp.id);
        auto& lane = lanes[d.token % lanes_n];
        --outstanding[d.token % lanes_n];
        if (lane.deliver_granule(d.token, d.chunk, gpc)) {
          emit(cycle, lane.id(), EventKind::arrive, d.token, d.chunk);
        }
      }
    }

    // Lane compute + decisions.
    for (auto& lane : lanes) {
      const auto lane_idx = static_cast<std::size_t>(lane.id());

      // Retry a pending first-chunk insert before anything else.
      if (pending[lane_idx].has_value()) {
        const auto& p = *pending[lane_idx];
        if (commit_keep(lane, p.token, p.partial, p.s_min, p.next_chunk)) {
          tokens[p.token].chunks_done = p.next_chunk;
          pending[lane_idx].reset();
        }
      }

      if (!lane.compute_free(cycle)) continue;  // adder tree busy

      // Discard data for already-resolved tokens (streamed chunks of pruned
      // tokens): dropped at the buffer, no compute cost.
      while (lane.has_ready() &&
             tokens[lane.peek_ready().token].phase != TokenPhase::unresolved) {
        lane.pop_ready();
      }

      if (!lane.has_ready()) continue;

      // A stalled lane may only process downstream chunks (they free their
      // own scoreboard entry); new first chunks wait.
      std::optional<ReadyChunk> work;
      if (!pending[lane_idx].has_value()) {
        work = lane.pop_ready();
      } else {
        // Scan the FIFO for a downstream chunk.
        std::size_t scan = 0;
        std::vector<ReadyChunk> skipped;
        while (lane.has_ready()) {
          ReadyChunk rc = lane.pop_ready();
          if (rc.chunk > 0) {
            work = rc;
            break;
          }
          skipped.push_back(rc);
          if (++scan > len) break;
        }
        // Re-queue skipped first chunks in order (we only peeked).
        for (auto it = skipped.rbegin(); it != skipped.rend(); ++it) {
          lane.push_front_ready(*it);
        }
        if (!work.has_value()) {
          lane.stats().stall_cycles++;
          continue;
        }
      }

      const auto [token, chunk] = *work;
      lane.occupy_compute(cycle + static_cast<std::uint64_t>(gpc));
      lane.stats().busy_cycles += static_cast<std::uint64_t>(gpc);
      emit(cycle, lane.id(), EventKind::compute, token, chunk);

      if (!estimation) {
        tokens[token].chunks_done = chunk + 1;
        continue;  // baseline: plain accumulation, no decisions
      }

      std::int64_t partial = kv.key_chunk_dot(qd, token, chunk);
      if (chunk == 0) {
        partial += offset_dot;
      } else if (on_demand) {
        auto entry = lane.scoreboard().take(token);
        require(entry.has_value(), "Engine: downstream chunk without entry");
        partial += entry->partial_score;
      } else {
        partial += tokens[token].partial;
      }
      decide(lane, token, chunk, partial);
    }

    // Request issue.
    if (on_demand) {
      for (auto& lane : lanes) {
        const auto lane_idx = static_cast<std::size_t>(lane.id());
        // Stalled design: wait for the outstanding request to return before
        // issuing anything else — the §3.2 under-utilization strawman.
        if (stall_mode && outstanding[lane_idx] > 0) continue;
        // Next-chunk requests first (they unblock scoreboard entries).
        if (lane.has_request()) {
          if (hbm.try_enqueue(lane.front_request())) {
            lane.pop_request();
            ++k_granules_fetched;
            ++outstanding[lane_idx];
          }
          continue;
        }
        // Then the next first-chunk granule in visit order — but only under
        // scoreboard flow control: when the lane is saturated with tokens
        // awaiting downstream chunks, admitting more first chunks only
        // creates keeps it cannot store (RPDU back-pressure).
        if (pending[lane_idx].has_value() || lane.scoreboard().full()) {
          continue;
        }
        auto& queue = lane_first_queue[lane_idx];
        auto& idx = first_index[lane_idx];
        // Hold the bulk until the priming set has registered.
        if (idx >= 2 && primed_decisions < priming_target) continue;
        // Skip tokens resolved before their first chunk was even requested
        // (cannot happen in practice, but keeps the cursor safe).
        while (idx < queue.size() && first_granule[lane_idx] == 0 &&
               tokens[queue[idx]].phase != TokenPhase::unresolved) {
          ++idx;
        }
        if (idx >= queue.size()) continue;
        const std::size_t token = queue[idx];
        const int g = first_granule[lane_idx];
        if (hbm.try_enqueue(
                mem::MemRequest{layout.key_chunk_addr(token, 0, g),
                                encode_id(token, false, 0, g)})) {
          ++k_granules_fetched;
          ++outstanding[lane_idx];
          if (g == 0) emit(cycle, lane.id(), EventKind::request, token, 0);
          if (g + 1 == gpc) {
            first_granule[lane_idx] = 0;
            ++idx;
          } else {
            first_granule[lane_idx] = g + 1;
          }
        }
      }
    } else {
      // Streaming: issue up to pe_lanes granules per core cycle, plane-major.
      for (int slot = 0; slot < config_.pe_lanes; ++slot) {
        if (stream_cursor >= total_k_granules) break;
        const std::uint64_t gi = stream_cursor;
        const int chunk = static_cast<int>(gi / (len * gpc));
        const std::uint64_t within = gi % (len * gpc);
        const auto token = static_cast<std::size_t>(within / gpc);
        const int g = static_cast<int>(within % gpc);
        if (!hbm.try_enqueue(
                mem::MemRequest{layout.key_chunk_addr(token, chunk, g),
                                encode_id(token, false, chunk, g)})) {
          break;
        }
        ++stream_cursor;
        ++k_granules_fetched;
      }
    }

    ++cycle;
  }

  result.step0_cycles = cycle;

  // Baseline keeps everything; fill exact survivor scores.
  if (!estimation) {
    for (std::size_t t = 0; t < len; ++t) {
      tokens[t].phase = TokenPhase::kept;
      tokens[t].final_score =
          static_cast<double>(kv.key_dot(qd, t, offset_dot)) *
          instance.score_scale;
      result.kept[t] = true;
    }
    unresolved = 0;
  }

  // ---- step 1: softmax + V accumulation ------------------------------
  std::vector<std::vector<std::size_t>> lane_value_queue(lanes_n);
  std::size_t survivor_granules_left = 0;
  for (std::size_t t = 0; t < len; ++t) {
    if (tokens[t].phase == TokenPhase::kept) {
      lane_value_queue[t % lanes_n].push_back(t);
      survivor_granules_left += static_cast<std::size_t>(gpv);
    }
  }
  std::vector<std::size_t> value_index(lanes_n, 0);
  std::vector<int> value_granule(lanes_n, 0);

  const std::uint64_t step1_start = cycle;
  while (survivor_granules_left > 0) {
    require(cycle < kMaxCoreCycles, "Engine: step 1 exceeded cycle cap");

    for (int k = 0; k < config_.dram_clocks_per_core; ++k) {
      for (const auto& resp : hbm.tick()) {
        const auto d = decode_id(resp.id);
        auto& lane = lanes[d.token % lanes_n];
        if (lane.deliver_granule(d.token, num_chunks, gpv)) {
          emit(cycle, lane.id(), EventKind::value_fetch, d.token, num_chunks);
        }
      }
    }

    for (auto& lane : lanes) {
      const auto lane_idx = static_cast<std::size_t>(lane.id());
      // Consume one completed V vector: gpv MAC cycles.
      if (lane.compute_free(cycle) && lane.has_ready()) {
        lane.pop_ready();
        lane.occupy_compute(cycle + static_cast<std::uint64_t>(gpv));
        lane.stats().busy_cycles += static_cast<std::uint64_t>(gpv);
        survivor_granules_left -= static_cast<std::size_t>(gpv);
      }
      // Issue one V granule per cycle.
      auto& queue = lane_value_queue[lane_idx];
      auto& idx = value_index[lane_idx];
      if (idx < queue.size()) {
        const std::size_t token = queue[idx];
        const int g = value_granule[lane_idx];
        if (hbm.try_enqueue(mem::MemRequest{
                layout.value_addr(token, g), encode_id(token, true, 0, g)})) {
          if (g + 1 == gpv) {
            value_granule[lane_idx] = 0;
            ++idx;
          } else {
            value_granule[lane_idx] = g + 1;
          }
        }
      }
    }
    ++cycle;
  }

  result.step1_cycles = cycle - step1_start;
  result.core_cycles = cycle;

  // ---- bookkeeping ----------------------------------------------------
  result.access.tokens_total = len;
  result.access.k_bits_baseline =
      static_cast<std::uint64_t>(len) * num_chunks * gpc * granule_bits;
  result.access.v_bits_baseline =
      static_cast<std::uint64_t>(len) * gpv * granule_bits;
  result.access.k_bits_fetched = k_granules_fetched * granule_bits;
  for (std::size_t t = 0; t < len; ++t) {
    const auto& state = tokens[t];
    if (state.phase == TokenPhase::kept) {
      ++result.access.tokens_kept;
      result.access.v_bits_fetched += static_cast<std::uint64_t>(gpv) *
                                      granule_bits;
    }
    const int fetched =
        estimation ? std::max(state.chunks_done, 1) : num_chunks;
    result.access.record_chunk_fetch(fetched);
  }
  result.survivors = result.access.tokens_kept;

  for (const auto& lane : lanes) {
    result.lane_busy_cycles += lane.stats().busy_cycles;
    result.lane_stall_cycles += lane.stats().stall_cycles;
    result.scoreboard_peak =
        std::max(result.scoreboard_peak, lane.scoreboard().peak_occupancy());
  }
  result.dram = hbm.stats();
  result.dram_energy_pj = hbm.energy_pj();
  if (config_.trace_dram) result.dram_trace = hbm.trace();

  // Output: renormalized softmax over survivors (probability generator).
  std::vector<std::size_t> survivors;
  std::vector<double> survivor_scores;
  survivors.reserve(result.survivors);
  survivor_scores.reserve(result.survivors);
  for (std::size_t t = 0; t < len; ++t) {
    if (!result.kept[t]) continue;
    survivors.push_back(t);
    survivor_scores.push_back(tokens[t].final_score);
  }
  survivor_softmax(survivors, survivor_scores, kv.values, kv.head_dim,
                   kv.value_params.scale, &result.output);

  return result;
}

}  // namespace topick::accel
