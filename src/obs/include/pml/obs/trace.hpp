#pragma once
// Scoped-span tracer emitting Chrome trace-event JSON.
//
// Load the output of Tracer::write (or any bench's `--trace out.json`)
// into chrome://tracing or https://ui.perfetto.dev to see the evaluation
// pipeline laid out on a timeline: one track per thread — or, for tasks
// on the shared util::TaskPool, one track per task (TaskTrack below) —
// so the TaskPool::run_group fan-outs (verification, power replay, fault
// campaigns, precision search) are visible as parallel worker spans under
// the phase that spawned them even though the pool reuses OS threads.
//
// Cost model:
//   * No tracer installed (the default): PML_OBS_SPAN is one relaxed
//     atomic load and a not-taken branch — near-free, proven by the
//     overhead leg of bench_batch_sim and gated in CI.
//   * Tracer installed: span begin reads the steady clock; span end reads
//     it again and appends one event under the tracer mutex.  Spans are
//     phase/pass/worker-grained (microseconds to seconds), never
//     per-cell, so the mutex is uncontended in practice.
//   * -DPML_OBS_DISABLED compiles the macros out entirely (embedded
//     builds; see metrics.hpp).
//
// Span nesting needs no explicit parent links: Chrome "X" (complete)
// events nest by time containment per thread track, and the tests verify
// containment directly.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "pml/obs/json.hpp"

namespace pml::obs {

/// Dense per-process track id used as the Chrome "tid": normally stable
/// for the thread's lifetime (0 = first thread to ask, usually main),
/// but overridden for the extent of a TaskTrack so pooled threads render
/// one track per task instead of one stale track per OS thread.
[[nodiscard]] std::uint32_t current_thread_id();

/// Name the calling thread's *current* track in trace output
/// ("verify-worker-3") — inside a TaskTrack this names the task's track,
/// not the OS thread's.  Last writer wins; unnamed tracks render as
/// "thread-N".
void set_thread_name(const std::string& name);

/// RAII per-task track attribution for pooled threads.  util::TaskPool
/// threads are reused across drivers, so a spawn-time thread name goes
/// stale the moment the thread serves a different fan-out; instead every
/// pool task body runs under a TaskTrack, which (only while a tracer is
/// enabled) allocates a fresh track id from the same dense counter as
/// thread ids, points current_thread_id() at it, and names it `label`.
/// Nests (a service task fanning out opens inner tracks) and restores
/// the previous track on destruction.  Free when tracing is off.
class TaskTrack {
 public:
  explicit TaskTrack(const char* label);
  ~TaskTrack();
  TaskTrack(const TaskTrack&) = delete;
  TaskTrack& operator=(const TaskTrack&) = delete;

 private:
  std::uint32_t saved_tid_ = 0;
  bool saved_active_ = false;
  bool engaged_ = false;
};

struct TraceEvent {
  std::string name;
  std::uint64_t start_ns = 0;  ///< since process trace epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
};

/// An in-memory span sink.  Construct one, install() it, run the
/// workload, uninstall() (or let RAII via ScopedTracer do both), then
/// write() the Chrome trace JSON.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Make `t` the process-wide sink and enable span recording.  Only one
  /// tracer can be installed at a time (throws std::logic_error
  /// otherwise); the tracer is borrowed and must stay alive until
  /// uninstall().
  static void install(Tracer* t);
  static void uninstall();
  /// Hot-path guard: relaxed load, safe from any thread.
  static bool enabled() noexcept {
    return g_enabled.load(std::memory_order_relaxed);
  }
  [[nodiscard]] static Tracer* current() noexcept {
    return g_current.load(std::memory_order_acquire);
  }

  /// Append one completed span (called by ScopedSpan's destructor).
  void record(std::string name, std::uint64_t start_ns, std::uint64_t dur_ns,
              std::uint32_t tid);

  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// The trace document: {"traceEvents": [...], "otherData": {...}}.
  /// `other_data` (may be null) is stamped into "otherData" — benches put
  /// the RunManifest there.
  [[nodiscard]] Json trace_json(Json other_data = Json()) const;
  void write(std::ostream& os, Json other_data = Json()) const;

 private:
  static std::atomic<bool> g_enabled;
  static std::atomic<Tracer*> g_current;

  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// Nanoseconds since the process trace epoch (steady clock).
[[nodiscard]] std::uint64_t trace_now_ns();

/// RAII span: samples the clock only when a tracer is enabled at entry,
/// records on destruction.  A tracer installed mid-span records nothing
/// for that span (the enable check is at entry, by design).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (Tracer::enabled()) begin(name);
  }
  explicit ScopedSpan(const std::string& name) {
    if (Tracer::enabled()) begin(name.c_str());
  }
  ~ScopedSpan() {
    if (active_) end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(const char* name);
  void end();

  std::string name_;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

/// Install-on-construction, uninstall+write-on-destruction convenience
/// for benches and examples (`--trace <file>`).
class ScopedTracer {
 public:
  ScopedTracer() { Tracer::install(&tracer_); }
  ~ScopedTracer() { Tracer::uninstall(); }
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;
  [[nodiscard]] Tracer& tracer() { return tracer_; }

 private:
  Tracer tracer_;
};

}  // namespace pml::obs

#ifdef PML_OBS_DISABLED
#define PML_OBS_SPAN(name) ((void)0)
#else
#define PML_OBS_SPAN_CAT2(a, b) a##b
#define PML_OBS_SPAN_CAT(a, b) PML_OBS_SPAN_CAT2(a, b)
/// Open a span covering the rest of the enclosing scope.
#define PML_OBS_SPAN(name) \
  ::pml::obs::ScopedSpan PML_OBS_SPAN_CAT(pml_obs_span_, __LINE__)(name)
#endif
