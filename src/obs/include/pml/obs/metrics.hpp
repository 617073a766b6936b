#pragma once
// Process-wide metrics registry: named monotonic counters for the
// simulation/optimization hot paths.
//
// Design constraints (the sweep-service layer will hammer these):
//   * Hot path is one relaxed fetch_add on a cached Counter reference —
//     no locks, no lookups.  Call sites use the PML_OBS_COUNT macro, which
//     caches the registry lookup in a function-local static.
//   * Registered metrics live forever at stable addresses (deque-backed
//     registry); snapshot() walks them under the registry lock.
//   * Counter totals for a fixed workload are deterministic — they count
//     work items (lane-words evaluated, batches dispatched, passes
//     applied), never time — so tests can assert exact values via
//     snapshot diffs.  Wall time lives in trace spans (trace.hpp), which
//     are never part of determinism contracts.
//   * Compiling with -DPML_OBS_DISABLED turns every macro into `(void)0`
//     (for embedded builds; see trace.hpp for the span macros).  The
//     classes themselves are unchanged, so there is no ODR hazard when
//     only some translation units disable instrumentation.
//
// Naming convention (enforced by review, not code): dotted lowercase
// `subsystem.noun[.detail]`, e.g. "sim.batch.lane_words",
// "opt.pass.accepted", "fault.campaign.batches".  Counters count events;
// `.lane_words` counts 64-lane SWAR words evaluated (multiply by 64 for
// per-sample cell evaluations).

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pml::obs {

/// Monotonic counter.  add() is lock-free and safe from any thread.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Find-or-create a counter by name.  The returned reference is valid for
/// the life of the process.  Linear scan under a mutex — cache it (see
/// PML_OBS_COUNT).
[[nodiscard]] Counter& counter(std::string_view name);

/// Point-in-time copy of every registered counter, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
};

[[nodiscard]] MetricsSnapshot snapshot_metrics();

/// after - before, per counter (clamped at 0; counters registered only in
/// `after` keep their absolute value).  The deterministic-workload tests
/// are written against diffs so they hold regardless of what earlier
/// tests in the same process counted.
[[nodiscard]] MetricsSnapshot diff_metrics(const MetricsSnapshot& before,
                                           const MetricsSnapshot& after);

}  // namespace pml::obs

// --- instrumentation macros --------------------------------------------------
// The only sanctioned call sites: with PML_OBS_DISABLED every macro
// vanishes, taking the (already tiny) hot-path cost to exactly zero and
// guaranteeing all registry counters stay at zero (tested in
// tests/test_obs_disabled.cpp).

#ifdef PML_OBS_DISABLED
#define PML_OBS_COUNT(name, n) ((void)0)
#else
/// Bump the named counter by n.  Registry lookup happens once per call
/// site (function-local static), the steady-state cost is one relaxed
/// fetch_add.
#define PML_OBS_COUNT(name, n)                                    \
  do {                                                            \
    static ::pml::obs::Counter& pml_obs_counter_ =                \
        ::pml::obs::counter(name);                                \
    pml_obs_counter_.add(static_cast<std::uint64_t>(n));          \
  } while (0)
#endif
