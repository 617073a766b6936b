#include "pml/core/fault_campaign.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "backends/kernels.hpp"
#include "pml/ml/rng.hpp"
#include "pml/sim/backend.hpp"

namespace pml::core {

std::vector<FaultSet> enumerate_single_faults(const netlist::Module& module) {
  std::vector<FaultSet> sets;
  sets.reserve(module.cells().size() * 2);
  for (const netlist::Cell& c : module.cells()) {
    sets.push_back(FaultSet{{StuckAtFault{c.out, false}}});
    sets.push_back(FaultSet{{StuckAtFault{c.out, true}}});
  }
  return sets;
}

std::vector<FaultSet> sample_fault_sets(const netlist::Module& module,
                                        std::size_t faults_per_set,
                                        std::size_t num_sets,
                                        std::uint64_t seed) {
  if (module.cells().empty()) {
    throw std::invalid_argument("sample_fault_sets: module has no cells");
  }
  if (faults_per_set == 0) {
    throw std::invalid_argument("sample_fault_sets: zero faults per set");
  }
  const auto& cells = module.cells();
  ml::Rng rng(seed);
  std::vector<FaultSet> sets(num_sets);
  for (FaultSet& set : sets) {
    set.faults.reserve(faults_per_set);
    for (std::size_t f = 0; f < faults_per_set; ++f) {
      const auto idx = static_cast<std::size_t>(rng.below(cells.size()));
      set.faults.push_back(StuckAtFault{cells[idx].out, rng.below(2) == 1});
    }
  }
  return sets;
}

FaultCampaignResult run_fault_campaign(const netlist::Module& module,
                                       int cycles_per_inference,
                                       const CircuitWorkload& workload,
                                       const std::vector<FaultSet>& fault_sets,
                                       const FaultCampaignOptions& options) {
  constexpr const char* kWho = "run_fault_campaign";
  if (workload.feature_codes.size() != workload.expected_class.size()) {
    throw std::invalid_argument("run_fault_campaign: bad workload");
  }
  std::vector<const netlist::Port*> ports;
  backends::FaultJob job;
  backends::prepare_job(job, kWho, module, cycles_per_inference,
                        workload.feature_codes, ports, options.levelization,
                        options.cancel);
  job.class_port = backends::class_port(module, kWho);
  if (fault_sets.empty()) {
    throw std::invalid_argument("run_fault_campaign: no fault sets");
  }
  const std::size_t n =
      std::min(options.max_samples, workload.feature_codes.size());
  if (n == 0) {
    throw std::invalid_argument("run_fault_campaign: zero samples");
  }
  job.num_threads = options.num_threads;
  job.expected_class = &workload.expected_class;
  job.fault_sets = &fault_sets;
  job.num_samples = n;

  FaultCampaignResult result;
  result.variants.assign(fault_sets.size(), FaultVariantResult{0, n});
  result.golden.samples = n;
  // How many variants ride per pass (kLanes - 1) belongs to the selected
  // SIMD backend; per-variant counts are independent of the packing.
  backends::kernels_for(sim::resolve_backend(options.backend))
      .fault(job, result);
  return result;
}

std::vector<FaultCurvePoint> accuracy_vs_fault_count(
    const std::vector<FaultSet>& fault_sets, const FaultCampaignResult& result,
    double broken_threshold) {
  if (fault_sets.size() != result.variants.size()) {
    throw std::invalid_argument(
        "accuracy_vs_fault_count: fault_sets/result size mismatch");
  }
  // mean_accuracy holds a running sum until the division below; the
  // golden reference seeds the 0-fault bucket, where any empty fault sets
  // (legal: a variant with no faults is another golden replica) also land.
  std::map<std::size_t, FaultCurvePoint> by_count;
  FaultCurvePoint& zero = by_count[0];
  zero.variants = 1;
  zero.mean_accuracy = result.golden.accuracy();
  zero.broken = result.golden.accuracy() <= broken_threshold ? 1 : 0;
  for (std::size_t i = 0; i < fault_sets.size(); ++i) {
    FaultCurvePoint& p = by_count[fault_sets[i].faults.size()];
    const double acc = result.variants[i].accuracy();
    p.mean_accuracy += acc;
    ++p.variants;
    p.broken += acc <= broken_threshold ? 1 : 0;
  }
  std::vector<FaultCurvePoint> curve;
  curve.reserve(by_count.size());
  for (auto& [count, point] : by_count) {
    point.num_faults = count;
    point.mean_accuracy /= static_cast<double>(point.variants);
    curve.push_back(point);
  }
  return curve;
}

}  // namespace pml::core
