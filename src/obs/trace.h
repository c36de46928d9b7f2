// Cycle-domain + wall-clock tracing for the serve engine, exported as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// Design constraints, in priority order:
//   1. Tracing must never change engine bits. The recorder only reads the
//      steady clock and appends to per-track buffers — it touches no RNG, no
//      ordering, no engine state. The determinism suite runs the engine with
//      tracing on and off and asserts bit-identical outputs/metrics.
//   2. The parallel attention phase must record without synchronization:
//      each worker thread owns exactly one event buffer (track == worker id),
//      so recording is a plain vector push_back with no locks and no atomics.
//      Buffers are registered before the fan-out starts (ensure_tracks) and
//      never move (unique_ptr indirection).
//   3. Two time domains coexist: engine spans carry wall-clock nanoseconds
//      AND the simulated DRAM-cycle stamp at which they ran; memsim events
//      (per-channel occupancy, replay windows) live purely in DRAM cycles.
//      The exporter maps them to separate trace processes — pid 1 "engine
//      (wall clock)", pid 2 "memsim (DRAM cycles, 1 cycle = 1us)", pid 3
//      "requests (wall clock)" — so Perfetto renders both timelines without
//      conflating the clocks.
//
// Span structure per engine step (pid 1): "step" encloses the sequential
// "admit"/"append" phases, the parallel "attention" phase (one
// "unit:attend" span per (slot, layer, head) unit on the worker thread's
// track, with slot/layer/head/context args), the slot-ordered
// "reduce", and "dram_replay". Request lifecycles (pid 3) are async spans
// keyed by request id: "request" brackets the whole life, with nested
// "queued"/"prefill"/"decode" state spans, "preempt"/"first_token" instants,
// and per-chunk "prefill_chunk" instants carrying the token count.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace topick::obs {

// Which trace process (and clock) an event belongs to.
enum class TraceDomain : std::uint8_t {
  engine = 0,   // wall clock (ns internally, exported as us)
  memsim = 1,   // simulated DRAM cycles (exported 1 cycle = 1 us)
  request = 2,  // wall clock; async request-lifecycle events
};

struct TraceArg {
  const char* key = nullptr;
  double value = 0.0;
};

// One trace event. Names and categories are interned string literals (or
// otherwise outlive the recorder) — events never own heap strings, keeping
// record() allocation-free once a buffer's capacity is warm.
struct TraceEvent {
  static constexpr std::size_t kMaxArgs = 8;

  const char* name = nullptr;
  const char* cat = "engine";
  char phase = 'X';  // X=span, C=counter, i=instant, b/e=async, n=async inst
  TraceDomain domain = TraceDomain::engine;
  std::uint64_t ts = 0;     // ns (wall domains) or DRAM cycles (memsim)
  std::uint64_t dur = 0;    // 'X' only, same unit as ts
  std::uint64_t id = 0;     // async event id (request index)
  std::uint64_t cycle = 0;  // DRAM-cycle stamp for wall-domain events
  std::array<TraceArg, kMaxArgs> args{};
  std::uint8_t n_args = 0;

  void arg(const char* key, double value) {
    if (n_args < kMaxArgs) args[n_args++] = TraceArg{key, value};
  }
};

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t tracks = 1);

  // Grows the buffer set to at least `n` tracks. NOT thread-safe: call
  // before handing tracks to worker threads (the engine does this at
  // construction, sized to its thread pool).
  void ensure_tracks(std::size_t n);
  std::size_t tracks() const { return buffers_.size(); }

  // Monotonic nanoseconds since recorder construction.
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  // Appends to track `track`'s buffer. Lock-free under the ownership rule:
  // at most one thread records to a given track at a time.
  void record(std::size_t track, const TraceEvent& event) {
    buffers_[track]->push_back(event);
  }

  // Convenience emitters (all on `track`'s buffer, same ownership rule).
  void instant(std::size_t track, TraceDomain domain, const char* name,
               const char* cat, std::uint64_t ts);
  void counter(std::size_t track, TraceDomain domain, const char* name,
               std::uint64_t ts, const char* key, double value);
  void async_begin(std::size_t track, const char* name, const char* cat,
                   std::uint64_t id, std::uint64_t ts);
  void async_end(std::size_t track, const char* name, const char* cat,
                 std::uint64_t id, std::uint64_t ts);
  void async_instant(std::size_t track, const char* name, const char* cat,
                     std::uint64_t id, std::uint64_t ts);

  std::size_t event_count() const;
  const std::vector<TraceEvent>& track_events(std::size_t track) const {
    return *buffers_[track];
  }

  // Run-level metadata exported as the top-level "otherData" object (the
  // trace-event format's side channel; Perfetto shows it in trace info).
  // Used for attribution that applies to the whole trace — e.g. which kernel
  // ISA the runtime dispatch selected. NOT thread-safe: set before or after
  // the recorded run, not during.
  void set_metadata(const std::string& key, const std::string& value);
  const std::vector<std::pair<std::string, std::string>>& metadata() const {
    return metadata_;
  }

  // Chrome trace-event JSON ("traceEvents" array form + metadata records).
  void write_chrome_json(std::ostream& out) const;
  // Returns false (with *error set) when the file cannot be written.
  bool write_chrome_json_file(const std::string& path,
                              std::string* error = nullptr) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  // unique_ptr indirection: ensure_tracks growth never moves a buffer a
  // worker thread may be holding a reference to.
  std::vector<std::unique_ptr<std::vector<TraceEvent>>> buffers_;
  std::vector<std::pair<std::string, std::string>> metadata_;
};

// RAII complete-span helper: stamps ts at construction, records an 'X' event
// with the measured duration at destruction. A null recorder makes every
// operation a no-op, so instrumented code needs no branches at call sites.
class TraceSpan {
 public:
  TraceSpan(TraceRecorder* recorder, std::size_t track, const char* name,
            const char* cat = "engine",
            TraceDomain domain = TraceDomain::engine)
      : recorder_(recorder) {
    if (recorder_ == nullptr) return;
    track_ = track;
    event_.name = name;
    event_.cat = cat;
    event_.phase = 'X';
    event_.domain = domain;
    event_.ts = recorder_->now_ns();
  }
  ~TraceSpan() {
    if (recorder_ == nullptr) return;
    event_.dur = recorder_->now_ns() - event_.ts;
    recorder_->record(track_, event_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void arg(const char* key, double value) {
    if (recorder_ != nullptr) event_.arg(key, value);
  }
  // DRAM-cycle stamp carried alongside the wall-clock span.
  void cycle(std::uint64_t c) {
    if (recorder_ != nullptr) event_.cycle = c;
  }

 private:
  TraceRecorder* recorder_;
  std::size_t track_ = 0;
  TraceEvent event_;
};

}  // namespace topick::obs
