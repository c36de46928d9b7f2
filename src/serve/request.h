// Request lifecycle types for the continuous-batching runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/access_stats.h"
#include "workload/arrivals.h"
#include "workload/decode_stream.h"

namespace topick::serve {

// `prefilling` requests hold a slot and append prompt K/V in chunks
// (ServeConfig::prefill_chunk_tokens per step) before their first decode.
// `backoff` requests were aborted by a fault or rejected by admission control
// and are waiting out their retry backoff (not in the queue, holding no
// pages). `failed` is terminal: deadline cancel, or retries exhausted.
enum class RequestState {
  queued,
  prefilling,
  running,
  preempted,
  backoff,
  finished,
  failed,
};

// Captured per decode step when ServeConfig::capture_outputs is set — the
// evidence the acceptance test checks against shadow exact attention.
struct StepOutput {
  std::size_t position = 0;  // query token index (== context len - 1)
  // Per (layer, head), layer-major: attention output and the stable token ids
  // of this step.
  //   * view_tokens: ids still live in the quantized cache *after* this
  //     step's pruning/reclamation — the context the next decode step
  //     extends. Eviction and the page sweep run within the step, so this is
  //     captured post-reclaim (the pre-reclaim attention view is view_tokens
  //     plus the ids the step itself retired).
  //   * kept_tokens: ids the backend kept (fully attended) at this step.
  //     A kept verdict resets the token's prune streak, so kept_tokens is
  //     always a subset of view_tokens.
  std::vector<std::vector<float>> out;
  std::vector<std::vector<std::size_t>> view_tokens;
  std::vector<std::vector<std::size_t>> kept_tokens;
};

struct Request {
  wl::ArrivalEvent event;
  // The request's K/V row checkpoints and f32 queries for every (layer,
  // head); rows are regenerated when appended or rescaled, never stored.
  // Empty until the first admission builds it; kept while prefilling,
  // running, preempted or in backoff (replay regenerates the same rows);
  // released (capacity 0) once the request is finished or failed. Rebuild a
  // retired request's stream with wl::make_decode_stream(engine
  // config().stream, ...) from its event.
  wl::DecodeStream stream;
  RequestState state = RequestState::queued;

  std::size_t generated = 0;  // decode steps completed
  std::size_t admit_step = 0;
  std::size_t finish_step = 0;
  int preemptions = 0;

  // Fault/retry bookkeeping (src/fault/): attempts consumed by aborts or
  // admission rejections, and — while in RequestState::backoff — the earliest
  // step the request may re-enter the queue. Progress (generated tokens) is
  // retained across retries; re-admission replays prompt+generated exactly
  // like preemption-recompute, so aborted work is charged once per attempt.
  int attempts = 0;
  std::size_t retry_at_step = 0;

  // Queue-wait bookkeeping for the scheduler's aging guard: the step the
  // current queued stint began (arrival step, or the preemption step after
  // an eviction) and the steps accumulated over *completed* queued stints.
  // Aging must see time spent queued only — not time spent running — or a
  // long-running preempted request would re-enter pre-promoted.
  std::size_t enqueue_step = 0;
  std::size_t queued_steps_accum = 0;

  // Chunked-prefill cursor: tokens the current (re)prefill must append
  // (prompt plus, after preemption, the already-generated replay) and how
  // many of them have been appended so far.
  std::size_t prefill_target = 0;
  std::size_t prefilled = 0;
  std::uint64_t prefill_bits = 0;  // prompt K/V write traffic, replays included

  // Request-level latency checkpoints. Steps are engine steps; cycles read
  // the simulated DRAM clock (meaningful when ServeConfig::simulate_dram),
  // stamped *after* the step's traffic drains so queue wait, prefill, and
  // batch contention are all visible.
  std::size_t first_token_step = 0;
  bool first_token_recorded = false;
  std::uint64_t arrival_cycle = 0;      // joined the admission queue
  std::uint64_t first_token_cycle = 0;  // first decode token produced
  std::uint64_t finish_cycle = 0;       // retired

  AccessStats stats;
  std::uint64_t dram_cycles = 0;  // summed per-step latency proxy
  std::vector<StepOutput> outputs;

  bool done() const { return generated >= event.decode_len; }
  wl::Priority priority() const { return event.priority; }
  // Steps spent queued as of `now`: the completed stints plus the current
  // one (clamped at 0 before the stint's start step).
  std::size_t queued_steps(std::size_t now) const {
    return queued_steps_accum + (now >= enqueue_step ? now - enqueue_step : 0);
  }
  // 0 until first admission sets admit_step (admit_step defaults to 0, which
  // can sit below event.step — don't underflow for not-yet-admitted requests).
  std::size_t queue_wait_steps() const {
    return admit_step >= event.step ? admit_step - event.step : 0;
  }
  // Zero until the checkpoint exists (no token yet / not finished) — a
  // zero-decode request retired at arrival reports both as 0.
  std::uint64_t ttft_cycles() const {
    return first_token_recorded ? first_token_cycle - arrival_cycle : 0;
  }
  std::uint64_t latency_cycles() const {
    return state == RequestState::finished ? finish_cycle - arrival_cycle : 0;
  }
};

// FIFO-ordered admission queue; preempted requests re-enter at the front so
// FIFO position already encodes "preempted before queued arrivals". The
// scheduling policy (scheduling_policy.h) may admit from any position —
// position is exposed as AdmissionCandidate::queue_pos, discovered by an
// O(size) handle walk (first()/next()), and the pick is removed in O(1) by
// its handle.
//
// Storage is a stable-index free-list: nodes live in an arena that only
// grows, linked into FIFO order, with erased nodes recycled through a
// free-list head. A handle (arena index) stays valid until its node is
// erased — unlike the previous std::deque, whose erase both cost O(n)
// element moves and invalidated every outstanding position. Iteration order
// is exactly the old deque order: push_arrival appends, push_preempted
// prepends, erase unlinks in place. Micro-benchmark (g++ -O2, this node
// shape): handle erase measures ~4 ns/op flat, vs the deque's ~110 ns/op at
// 256 queued ids growing linearly with depth — and policies re-walk the
// whole queue per admission anyway, so the walk itself stays O(size), now
// without the per-erase shift on top.
class RequestQueue {
 public:
  using Handle = std::size_t;
  static constexpr Handle kNone = static_cast<Handle>(-1);

  void push_arrival(std::size_t request) { link(alloc(request), tail_, kNone); }
  void push_preempted(std::size_t request) {
    link(alloc(request), kNone, head_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // FIFO-order traversal: first() is the front, next() walks toward the back.
  Handle first() const { return head_; }
  Handle next(Handle h) const { return nodes_[h].next; }
  std::size_t request_of(Handle h) const { return nodes_[h].request; }

  // O(1) unlink; the handle (and only it) is invalidated and recycled.
  void erase(Handle h) {
    Node& node = nodes_[h];
    (node.prev == kNone ? head_ : nodes_[node.prev].next) = node.next;
    (node.next == kNone ? tail_ : nodes_[node.next].prev) = node.prev;
    node.next = free_head_;
    free_head_ = h;
    --size_;
  }

  // Positional conveniences (O(pos) walk) for tests and one-off callers; the
  // engine's admission loop uses the handle walk directly.
  std::size_t at(std::size_t pos) const { return nodes_[handle_at(pos)].request; }
  void erase_at(std::size_t pos) { erase(handle_at(pos)); }

 private:
  struct Node {
    std::size_t request = 0;
    Handle prev = kNone;
    Handle next = kNone;
  };

  Handle alloc(std::size_t request) {
    Handle h;
    if (free_head_ != kNone) {
      h = free_head_;
      free_head_ = nodes_[h].next;
    } else {
      h = nodes_.size();
      nodes_.emplace_back();
    }
    nodes_[h].request = request;
    return h;
  }

  void link(Handle h, Handle prev, Handle next) {
    nodes_[h].prev = prev;
    nodes_[h].next = next;
    (prev == kNone ? head_ : nodes_[prev].next) = h;
    (next == kNone ? tail_ : nodes_[next].prev) = h;
    ++size_;
  }

  Handle handle_at(std::size_t pos) const {
    Handle h = head_;
    while (pos-- > 0) h = nodes_[h].next;
    return h;
  }

  std::vector<Node> nodes_;
  Handle head_ = kNone;
  Handle tail_ = kNone;
  Handle free_head_ = kNone;
  std::size_t size_ = 0;
};

}  // namespace topick::serve
