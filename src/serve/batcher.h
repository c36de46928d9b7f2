// Continuous batching: requests join and leave the running set per decode
// step (no batch barriers), bounded by slots and by pool pages.
//
// The batcher is pure bookkeeping — queue, running set, prefilling subset.
// *Which* queued request admits next and *which* running request is
// preempted under pool pressure are decided by the pluggable
// SchedulingPolicy (scheduling_policy.h); the engine snapshots this
// bookkeeping into candidate lists and applies the policy's pick. Common
// invariants hold for every policy: an admission needs a slot, a prefill
// slot (max_prefill caps concurrent chunked prefills so prompt writes can't
// starve running decodes of DRAM bandwidth), and every page its (re)prefill
// needs; a preempted request frees all its pages (recompute-on-resume) and
// re-enters the queue at the front.
#pragma once

#include <cstddef>
#include <vector>

#include "serve/request.h"

namespace topick::serve {

struct BatcherConfig {
  std::size_t max_batch = 16;  // concurrent slots (prefilling + decoding)
  // Cap on concurrently *prefilling* requests (0 = uncapped). Chunked prefill
  // charges prompt-write traffic into the same step as running decodes, so
  // this bounds how much of a step's DRAM budget new admissions can claim.
  std::size_t max_prefill = 0;
};

class ContinuousBatcher {
 public:
  explicit ContinuousBatcher(const BatcherConfig& config) : config_(config) {}

  RequestQueue& queue() { return queue_; }
  const RequestQueue& queue() const { return queue_; }

  // Running requests in admission order (the step loop iterates this order);
  // includes requests still prefilling.
  const std::vector<std::size_t>& running() const { return running_; }
  bool has_slot() const { return running_.size() < config_.max_batch; }
  bool has_prefill_slot() const {
    return config_.max_prefill == 0 || prefilling_.size() < config_.max_prefill;
  }

  // Admission with no prefill work left (zero-length prompt, or legacy use).
  void admit(std::size_t request) { running_.push_back(request); }
  // Admission into the prefilling set; begin_decode() moves the request to
  // plain decoding once its prefill cursor reaches the target.
  void admit_prefill(std::size_t request) {
    running_.push_back(request);
    prefilling_.push_back(request);
  }
  void begin_decode(std::size_t request) { erase_from(prefilling_, request); }
  // Drops a request from the running (and prefilling) set; a preemption
  // then re-queues it with queue().push_preempted().
  void retire(std::size_t request) {
    erase_from(running_, request);
    erase_from(prefilling_, request);
  }

  const BatcherConfig& config() const { return config_; }

 private:
  // O(n) by design. running_ is bounded by max_batch and must preserve
  // admission order (the engine's step loop and the policies' age/recency
  // tie-breaks iterate it in order), so an id->index side map would still pay
  // the O(n) element shift on every erase while adding map upkeep to admit/
  // retire/preempt. Micro-benchmark (g++ -O2, this container shape):
  // scan+erase over 256 running ids measures ~120 ns/op — vs ≥ 1 ms per
  // engine step for a 256-slot batch's attention + DRAM replay, 4-5 orders
  // of magnitude below the work per event it bounds. Revisit only if
  // max_batch grows past tens of thousands.
  static void erase_from(std::vector<std::size_t>& list, std::size_t request) {
    for (auto it = list.begin(); it != list.end(); ++it) {
      if (*it == request) {
        list.erase(it);
        return;
      }
    }
  }

  BatcherConfig config_;
  RequestQueue queue_;
  std::vector<std::size_t> running_;
  std::vector<std::size_t> prefilling_;  // subset of running_
};

}  // namespace topick::serve
