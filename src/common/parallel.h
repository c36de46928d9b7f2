// Deterministic persistent thread pool (std::thread + a shared index counter,
// no dependencies) — the concurrency primitive behind ServeEngine's
// decode/prefill fan-out and bench_hotpath's threads sweep — plus SerialLane,
// the in-order background executor behind the engine's pipelined DRAM-replay
// stage.
//
// Determinism contract: a batch of n tasks runs fn(i, worker) exactly once
// for every i in [0, n). Task i's *inputs and outputs* must not depend on
// which worker ran it or in what order tasks interleave — workers may only
// use `worker`-indexed scratch whose contents do not leak between tasks.
// Under that contract the results are bit-identical for any thread count,
// including 1 (which runs inline on the calling thread with no pool
// machinery at all).
//
// The calling thread participates as worker 0; the pool spawns at most
// threads-1 workers with ids 1..threads-1 — capped to the host's hardware
// concurrency, because oversubscribing cores only adds context-switch and
// wake-up cost to a compute-bound fan-out (`threads()` still reports the
// requested width; `workers_spawned()` reports what actually got threads).
// Per-batch, the effective fan-out is further capped to the task count and
// an optional grain (min tasks per participant), so tiny batches never pay
// a wake-up they cannot amortize.
//
// One dispatch shape: parallel_for(n, fn[, grain]) — fork-join. It blocks
// until every task completed (a throwing task does not stop the others) and
// then rethrows the exception of the lowest-index task that threw, so the
// error a caller sees is the same at every width.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace topick {

class ThreadPool {
 public:
  // `threads` counts the calling thread: 1 (or 0) means no workers are
  // spawned and every dispatch degenerates to a sequential loop. Requests
  // beyond the hardware concurrency spawn only hardware-1 workers.
  explicit ThreadPool(std::size_t threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // The requested width (worker ids and caller-side per-worker scratch are
  // sized to this), not the spawned width.
  std::size_t threads() const { return threads_; }
  // Workers actually backed by an OS thread (0 when the pool runs inline).
  std::size_t workers_spawned() const;
  // Participants (caller included) a batch of n tasks with the given grain
  // engages: clamp(n / grain, 1, min(workers_spawned() + 1, n)).
  std::size_t fanout(std::size_t n, std::size_t grain = 1) const;

  // Blocks until fn(i, worker) has completed for every i in [0, n).
  // worker is in [0, threads()); reentrant calls from inside a task are not
  // supported. `grain` is the minimum tasks per participant before another
  // worker is engaged (1 = fan out as wide as the task count allows). Every
  // task runs; then the lowest-index task's exception (if any) is rethrown
  // and the pool is ready for the next dispatch.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t task,
                                             std::size_t worker)>& fn,
                    std::size_t grain = 1);

 private:
  struct Impl;
  std::size_t threads_;
  std::unique_ptr<Impl> impl_;  // null when threads_ <= 1 or no cores spare
};

// SerialLane: a single background thread executing submitted jobs strictly
// in submission order — the ordered, cross-step work queue behind the serve
// engine's pipelined DRAM replay (ServeConfig::pipeline). The engine hands the lane everything that
// depends on the simulated DRAM clock (the memsim replay of step t, the
// cycle checkpoints that read its result, the cycle-stamped trace events),
// then moves straight on to step t+1's admit/append/attention: replay(t)
// overlaps the next step's compute, and because jobs run in order on one
// thread, every clock read a job performs sees exactly the state the
// sequential engine would have seen.
//
// Disabled (enabled=false), submit() runs the job inline — the sequential
// fallback with identical semantics and no thread.
class SerialLane {
 public:
  explicit SerialLane(bool enabled);
  ~SerialLane();  // drains remaining jobs, then joins

  SerialLane(const SerialLane&) = delete;
  SerialLane& operator=(const SerialLane&) = delete;

  bool enabled() const { return impl_ != nullptr; }

  // Enqueues a job (runs it inline when disabled). Jobs run in submission
  // order; a job's exception is captured and rethrown by the next
  // wait_depth_below() or drain(), whichever comes first.
  void submit(std::function<void()> job);
  // Jobs submitted but not yet completed.
  std::size_t depth() const;
  // Back-pressure: blocks until depth() < max_depth (0 = no bound), then
  // rethrows the first captured job exception (then clears it). Returns the
  // ns spent blocked (0 when the lane is disabled or already below the
  // bound).
  std::uint64_t wait_depth_below(std::size_t max_depth);
  // Blocks until every submitted job completed; rethrows the first captured
  // job exception (then clears it).
  void drain();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;  // null when disabled
};

}  // namespace topick
