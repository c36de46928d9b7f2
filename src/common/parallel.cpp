#include "common/parallel.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "common/require.h"

namespace topick {

namespace {

// Brief busy-wait before falling back to the condition variable: a serve
// step dispatches every few hundred microseconds, so a parked worker that
// spins through the inter-batch gap saves a futex round-trip per step. The
// budget is small enough that an idle pool still goes to sleep promptly.
constexpr int kSpinIters = 1 << 14;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(_M_X64)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

#if defined(__cpp_lib_hardware_interference_size)
constexpr std::size_t kCacheLine = std::hardware_destructive_interference_size;
#else
constexpr std::size_t kCacheLine = 64;
#endif

}  // namespace

struct ThreadPool::Impl {
  // One wakeup slot per spawned worker: the dispatcher posts a batch to, and
  // notifies, only the workers the batch actually engages, instead of a
  // shared notify_all that drags every parked thread through the scheduler.
  // A worker reads shared batch state only after its own slot's `batch`
  // moves, so a worker left out of a narrow batch never touches that batch
  // (or the next one's) fields.
  struct alignas(kCacheLine) WorkerSlot {
    std::mutex mutex;
    std::condition_variable cv;
    // Number of the last batch posted to this worker; the release store
    // publishes the batch state written before it.
    std::atomic<std::uint64_t> batch{0};
  };

  std::vector<std::thread> workers;
  std::deque<WorkerSlot> slots;  // deque: WorkerSlot is immovable

  // Batch state, written by the dispatcher before it posts the batch to the
  // engaged workers' slots.
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::uint64_t batches = 0;  // fanned-out batches so far (dispatcher only)
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> active{0};  // engaged workers not yet done
  std::atomic<bool> stop{false};

  std::mutex done_mutex;
  std::condition_variable done_cv;

  // The lowest-index task exception of the current batch.
  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_task = 0;

  void run_tasks(std::size_t worker) {
    while (true) {
      const std::size_t task = next.fetch_add(1, std::memory_order_relaxed);
      if (task >= n) break;
      try {
        (*fn)(task, worker);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error || task < error_task) {
          error = std::current_exception();
          error_task = task;
        }
      }
    }
  }

  void worker_loop(std::size_t worker) {
    std::uint64_t seen = 0;
    WorkerSlot& slot = slots[worker - 1];
    const auto posted = [&] {
      return slot.batch.load(std::memory_order_acquire) != seen ||
             stop.load(std::memory_order_relaxed);
    };
    while (true) {
      for (int spin = 0; spin < kSpinIters && !posted(); ++spin) cpu_relax();
      if (!posted()) {
        std::unique_lock<std::mutex> lock(slot.mutex);
        slot.cv.wait(lock, posted);
      }
      if (stop.load(std::memory_order_relaxed)) return;
      // The dispatcher posts again only after this batch's `active` count
      // reaches zero, so exactly one new batch is waiting here.
      seen = slot.batch.load(std::memory_order_acquire);
      run_tasks(worker);
      if (active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(done_mutex);
        done_cv.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads == 0 ? 1 : threads) {
  if (threads_ <= 1) return;
  // Cap to the host: oversubscribing a compute-bound fan-out only adds
  // context-switch cost. hardware_concurrency() may report 0 (unknown) —
  // then take the request at face value.
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = threads_;
  const std::size_t spawn = (threads_ < hw ? threads_ : hw) - 1;
  if (spawn == 0) return;
  impl_ = std::make_unique<Impl>();
  impl_->slots.resize(spawn);
  impl_->workers.reserve(spawn);
  for (std::size_t w = 1; w <= spawn; ++w) {
    impl_->workers.emplace_back([this, w] { impl_->worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  if (!impl_) return;
  impl_->stop.store(true, std::memory_order_release);
  for (auto& slot : impl_->slots) {
    std::lock_guard<std::mutex> lock(slot.mutex);
    slot.cv.notify_one();
  }
  for (auto& worker : impl_->workers) worker.join();
}

std::size_t ThreadPool::workers_spawned() const {
  return impl_ ? impl_->workers.size() : 0;
}

std::size_t ThreadPool::fanout(std::size_t n, std::size_t grain) const {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  std::size_t want = n / grain;
  if (want == 0) want = 1;
  std::size_t cap = workers_spawned() + 1;
  if (cap > n) cap = n;
  return want < cap ? want : cap;
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) {
  const std::size_t width = fanout(n, grain);
  if (width <= 1) {
    // Sequential batch on the caller; no worker wakes.
    std::exception_ptr error;
    for (std::size_t task = 0; task < n; ++task) {
      try {
        fn(task, 0);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  require(impl_->fn == nullptr,
          "ThreadPool: a batch is already open (reentrant dispatch?)");
  const std::size_t engaged = width - 1;  // the caller is the last one
  impl_->fn = &fn;
  impl_->n = n;
  impl_->next.store(0, std::memory_order_relaxed);
  impl_->active.store(engaged, std::memory_order_relaxed);
  const std::uint64_t batch = ++impl_->batches;
  for (std::size_t w = 0; w < engaged; ++w) {
    Impl::WorkerSlot& slot = impl_->slots[w];
    {
      std::lock_guard<std::mutex> lock(slot.mutex);
      slot.batch.store(batch, std::memory_order_release);
    }
    slot.cv.notify_one();
  }
  impl_->run_tasks(0);
  // Stragglers: spin briefly (batches are short), then sleep.
  bool done = impl_->active.load(std::memory_order_acquire) == 0;
  for (int spin = 0; !done && spin < kSpinIters; ++spin) {
    cpu_relax();
    done = impl_->active.load(std::memory_order_acquire) == 0;
  }
  if (!done) {
    std::unique_lock<std::mutex> lock(impl_->done_mutex);
    impl_->done_cv.wait(lock, [&] {
      return impl_->active.load(std::memory_order_acquire) == 0;
    });
  }
  impl_->fn = nullptr;
  impl_->n = 0;
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(impl_->error_mutex);
    std::swap(error, impl_->error);
  }
  if (error) std::rethrow_exception(error);
}

// ---- SerialLane -------------------------------------------------------------

struct SerialLane::Impl {
  std::mutex mutex;
  std::condition_variable submitted;  // worker waits for jobs
  std::condition_variable completed;  // drain/backpressure waiters
  std::deque<std::function<void()>> jobs;
  std::atomic<std::size_t> pending{0};  // submitted, not yet completed
  bool stop = false;
  std::exception_ptr error;
  std::thread thread;

  void loop() {
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      submitted.wait(lock, [&] { return stop || !jobs.empty(); });
      if (jobs.empty()) return;  // stop requested and queue drained
      std::function<void()> job = std::move(jobs.front());
      jobs.pop_front();
      lock.unlock();
      std::exception_ptr thrown;
      try {
        job();
      } catch (...) {
        thrown = std::current_exception();
      }
      lock.lock();
      if (thrown && !error) error = thrown;
      pending.fetch_sub(1, std::memory_order_release);
      completed.notify_all();
    }
  }
};

SerialLane::SerialLane(bool enabled) {
  if (!enabled) return;
  impl_ = std::make_unique<Impl>();
  impl_->thread = std::thread([this] { impl_->loop(); });
}

SerialLane::~SerialLane() {
  if (!impl_) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->submitted.notify_one();
  impl_->thread.join();
}

void SerialLane::submit(std::function<void()> job) {
  if (!impl_) {
    job();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->jobs.push_back(std::move(job));
    impl_->pending.fetch_add(1, std::memory_order_relaxed);
  }
  impl_->submitted.notify_one();
}

std::size_t SerialLane::depth() const {
  return impl_ ? impl_->pending.load(std::memory_order_acquire) : 0;
}

std::uint64_t SerialLane::wait_depth_below(std::size_t max_depth) {
  if (!impl_ || max_depth == 0) return 0;
  if (impl_->pending.load(std::memory_order_acquire) < max_depth) return 0;
  const auto start = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->completed.wait(lock, [&] {
      return impl_->pending.load(std::memory_order_acquire) < max_depth;
    });
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

void SerialLane::drain() {
  if (!impl_) return;
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->completed.wait(lock, [&] {
      return impl_->pending.load(std::memory_order_acquire) == 0;
    });
    std::swap(error, impl_->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace topick
