#pragma once
// Deterministic fault injection for the sweep service — the chaos
// harness that proves the robustness machinery actually works.
//
// A FaultPlan is a map from *evaluation ordinal* (the service numbers
// every evaluation with a process-order counter) to one injected fault:
//
//   * kThrow      — throw chaos::InjectedFault (a TransientError, so the
//                   service does not cache the failure) before the
//                   evaluation runs;
//   * kAllocFail  — arm util::thread_alloc_fail_countdown() so the nth
//                   heap allocation *inside* the evaluation throws
//                   std::bad_alloc (requires the test binary to install
//                   PML_INSTALL_COUNTING_ALLOC_HOOK);
//   * kDelay      — stall via the service's injected util::Clock (a
//                   ManualClock advances virtual time instantly, so a
//                   "30 ms straggler" expires deadlines without any real
//                   sleeping).
//
// Plans are either built explicitly (throw_at / fail_alloc_at / ...) or
// drawn pseudo-randomly from a seed (FaultPlan::random) — either way the
// injected schedule is a pure function of the plan, so two same-seed
// runs of a single-worker service produce identical status sequences
// (asserted by tests/test_svc_chaos.cpp).
//
// Installation is test-only: a test fires before_evaluation() from the
// service's one injection seam, svc::SweepService::set_test_hook.  The
// pml library never constructs a plan itself.

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>

#include "pml/util/clock.hpp"

namespace pml::chaos {

/// Injected transient failure (kThrow).  svc::SweepService never caches
/// a TransientError outcome, so an identical resubmit re-runs.
class TransientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};
using InjectedFault = TransientError;

enum class FaultKind : std::uint8_t { kThrow, kAllocFail, kDelay };

class FaultPlan {
 public:
  struct Action {
    FaultKind kind = FaultKind::kThrow;
    std::uint64_t alloc_countdown = 1;  ///< kAllocFail: fail the nth alloc
    std::uint64_t delay_ns = 0;         ///< kDelay: stall duration
  };

  FaultPlan() = default;
  // The atomic fired-counter would otherwise delete moves; random() and
  // test fixtures move plans around before installing them in a hook
  // (never after — the installed plan must stay put).
  FaultPlan(FaultPlan&& other) noexcept
      : actions_(std::move(other.actions_)),
        fired_(other.fired_.load(std::memory_order_relaxed)) {}
  FaultPlan& operator=(FaultPlan&& other) noexcept {
    actions_ = std::move(other.actions_);
    fired_.store(other.fired_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  /// Builders: arm one action on the given evaluation ordinal (0-based).
  /// Later arms on the same ordinal overwrite earlier ones.
  FaultPlan& throw_at(std::uint64_t evaluation);
  FaultPlan& fail_alloc_at(std::uint64_t evaluation,
                           std::uint64_t alloc_countdown = 1);
  FaultPlan& delay_at(std::uint64_t evaluation, std::uint64_t delay_ns);

  /// Seeded pseudo-random plan over evaluations [0, evaluations): each
  /// ordinal gets a fault with probability `fault_rate`, drawn uniformly
  /// over {throw, alloc-fail, delay(delay_ns)}.  Deterministic
  /// in (seed, evaluations, fault_rate, delay_ns) alone.
  [[nodiscard]] static FaultPlan random(std::uint64_t seed,
                                        std::uint64_t evaluations,
                                        double fault_rate,
                                        std::uint64_t delay_ns = 0);

  /// Injection point, called from the service's test hook: fire whatever
  /// is armed for this ordinal (and count it).  May throw InjectedFault,
  /// arm an allocation failure, or stall on `clock`; a miss is a cheap
  /// hash lookup.  Thread-safe: the plan is immutable after installation
  /// and `fired` is atomic.
  void before_evaluation(std::uint64_t evaluation, util::Clock& clock) const;

  [[nodiscard]] std::uint64_t fired() const {
    return fired_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t size() const { return actions_.size(); }
  /// The armed action for an ordinal, or nullptr (test introspection).
  [[nodiscard]] const Action* action_at(std::uint64_t evaluation) const;

 private:
  std::unordered_map<std::uint64_t, Action> actions_;
  mutable std::atomic<std::uint64_t> fired_{0};
};

}  // namespace pml::chaos
