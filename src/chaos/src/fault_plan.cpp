#include "pml/chaos/fault_plan.hpp"

#include <string>

#include "pml/ml/rng.hpp"
#include "pml/util/alloc_hook.hpp"

namespace pml::chaos {

FaultPlan& FaultPlan::throw_at(std::uint64_t evaluation) {
  actions_[evaluation] = Action{FaultKind::kThrow, 1, 0};
  return *this;
}

FaultPlan& FaultPlan::fail_alloc_at(std::uint64_t evaluation,
                                    std::uint64_t alloc_countdown) {
  actions_[evaluation] =
      Action{FaultKind::kAllocFail, alloc_countdown == 0 ? 1 : alloc_countdown,
             0};
  return *this;
}

FaultPlan& FaultPlan::delay_at(std::uint64_t evaluation,
                               std::uint64_t delay_ns) {
  actions_[evaluation] = Action{FaultKind::kDelay, 1, delay_ns};
  return *this;
}

FaultPlan FaultPlan::random(std::uint64_t seed, std::uint64_t evaluations,
                            double fault_rate, std::uint64_t delay_ns) {
  FaultPlan plan;
  ml::Rng rng(seed);
  // One uniform draw per ordinal for the hit decision, one for the kind,
  // in a fixed order — the plan is a pure function of the arguments.
  for (std::uint64_t e = 0; e < evaluations; ++e) {
    const double roll = rng.uniform();
    const std::uint64_t kind = rng.below(3);
    if (roll >= fault_rate) continue;
    switch (kind) {
      case 0: plan.throw_at(e); break;
      case 1: plan.fail_alloc_at(e); break;
      default: plan.delay_at(e, delay_ns); break;
    }
  }
  return plan;
}

const FaultPlan::Action* FaultPlan::action_at(std::uint64_t evaluation) const {
  const auto it = actions_.find(evaluation);
  return it != actions_.end() ? &it->second : nullptr;
}

void FaultPlan::before_evaluation(std::uint64_t evaluation,
                                  util::Clock& clock) const {
  const Action* action = action_at(evaluation);
  if (action == nullptr) return;
  fired_.fetch_add(1, std::memory_order_relaxed);
  switch (action->kind) {
    case FaultKind::kThrow:
      throw InjectedFault("chaos: injected transient failure at evaluation " +
                          std::to_string(evaluation));
    case FaultKind::kAllocFail:
      // The evaluation itself trips the bad_alloc; the worker disarms
      // after every job so an unfired countdown cannot leak forward.
      util::arm_alloc_failure(action->alloc_countdown);
      return;
    case FaultKind::kDelay:
      clock.sleep_ns(action->delay_ns);
      return;
  }
}

}  // namespace pml::chaos
