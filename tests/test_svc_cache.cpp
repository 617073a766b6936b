// Cache-key digest contract of svc::SweepService: keys are content hashes
// — every result-relevant difference moves the key, every cosmetic or
// result-irrelevant one does not — and a cache hit returns a report
// field-for-field identical to a fresh evaluation.

#include <gtest/gtest.h>

#include <memory>

#include "pml/arch/sequential_svm.hpp"
#include "pml/core/evaluate.hpp"
#include "pml/quant/svm_quant.hpp"
#include "pml/svc/sweep_service.hpp"
#include "report_test_util.hpp"

namespace pml::svc {
namespace {

quant::QuantizedSvm tiny_model() {
  quant::QuantizedSvm q;
  q.strategy = ml::MulticlassStrategy::kOneVsRest;
  q.num_classes = 3;
  q.input_format = quant::input_format(3);
  q.weight_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  q.classifiers = {quant::QuantizedClassifier{{3, -2}, 1},
                   quant::QuantizedClassifier{{-1, 4}, 0},
                   quant::QuantizedClassifier{{2, 2}, -3}};
  return q;
}

std::shared_ptr<const core::CircuitWorkload> tiny_workload(
    const quant::QuantizedSvm& q) {
  auto wl = std::make_shared<core::CircuitWorkload>();
  for (std::int64_t a = 0; a <= 7; ++a) {
    for (std::int64_t b = 0; b <= 7; ++b) {
      wl->feature_codes.push_back({a, b});
      wl->expected_class.push_back(q.predict_codes({a, b}));
    }
  }
  return wl;
}

SweepRequest tiny_request() {
  const auto q = tiny_model();
  auto circuit = arch::build_sequential_svm(q);
  SweepRequest req;
  req.module =
      std::make_shared<const netlist::Module>(std::move(circuit.module));
  req.cycles_per_inference = circuit.cycles_per_inference;
  req.workload = tiny_workload(q);
  return req;
}

/// A tiny hand-built two-gate module; the knobs select the structural
/// variations the digest must distinguish.
std::shared_ptr<const netlist::Module> two_gate_module(
    const std::string& name, bool swap_creation_order, bool use_or) {
  auto m = std::make_shared<netlist::Module>(name);
  const auto a = m->add_input_port("x0", 1);
  const auto b = m->add_input_port("x1", 1);
  netlist::NetId first, second;
  if (!swap_creation_order) {
    first = use_or ? m->or2(a[0], b[0]) : m->and2(a[0], b[0]);
    second = m->xor2(a[0], b[0]);
  } else {
    second = m->xor2(a[0], b[0]);
    first = use_or ? m->or2(a[0], b[0]) : m->and2(a[0], b[0]);
  }
  m->add_output_port("class", {first, second});
  return m;
}

SweepRequest raw_request(std::shared_ptr<const netlist::Module> module) {
  SweepRequest req;
  req.module = std::move(module);
  req.cycles_per_inference = 1;
  auto wl = std::make_shared<core::CircuitWorkload>();
  wl->feature_codes.push_back({0, 1});
  wl->expected_class.push_back(0);
  req.workload = std::move(wl);
  return req;
}

TEST(SvcCacheKey, IdenticalRequestsDigestIdentically) {
  const auto r1 = tiny_request();
  const auto r2 = tiny_request();  // independently rebuilt, same content
  EXPECT_EQ(SweepService::cache_key(r1), SweepService::cache_key(r2));
}

TEST(SvcCacheKey, ModuleNameIsCosmetic) {
  const auto k1 = SweepService::cache_key(
      raw_request(two_gate_module("top", false, false)));
  const auto k2 = SweepService::cache_key(
      raw_request(two_gate_module("renamed", false, false)));
  EXPECT_EQ(k1, k2);
}

TEST(SvcCacheKey, SingleGateChangesKey) {
  const auto k_and = SweepService::cache_key(
      raw_request(two_gate_module("top", false, false)));
  const auto k_or = SweepService::cache_key(
      raw_request(two_gate_module("top", false, true)));
  EXPECT_NE(k_and, k_or);
}

TEST(SvcCacheKey, NetOrderChangesKey) {
  // Same gates, created in a different order: the nets they drive get
  // different indices, so the structure (and the key) differs.
  const auto k1 = SweepService::cache_key(
      raw_request(two_gate_module("top", false, false)));
  const auto k2 = SweepService::cache_key(
      raw_request(two_gate_module("top", true, false)));
  EXPECT_NE(k1, k2);
}

TEST(SvcCacheKey, WorkloadSamplesChangeKey) {
  const auto base = tiny_request();
  auto altered = base;
  auto wl = std::make_shared<core::CircuitWorkload>(*base.workload);
  wl->feature_codes[0][0] ^= 1;  // one feature code of one sample
  altered.workload = std::move(wl);
  EXPECT_NE(SweepService::cache_key(base), SweepService::cache_key(altered));
}

TEST(SvcCacheKey, FlowNameChangesKey) {
  auto r1 = tiny_request();
  auto r2 = r1;
  r1.flow = "area";
  r2.flow = "energy";
  EXPECT_NE(SweepService::cache_key(r1), SweepService::cache_key(r2));
}

TEST(SvcCacheKey, ResultRelevantOptionsChangeKey) {
  auto r1 = tiny_request();
  auto r2 = r1;
  r2.options.power_samples += 1;
  EXPECT_NE(SweepService::cache_key(r1), SweepService::cache_key(r2));
}

TEST(SvcCacheKey, ThreadingKnobsDoNotChangeKey) {
  // evaluate_circuit's determinism contract: thread counts cannot change
  // any result field, so they must not fragment the cache.
  auto r1 = tiny_request();
  auto r2 = r1;
  r2.options.power_threads = 7;
  r2.options.verify.num_threads = 3;
  r2.options.validate_module = false;
  EXPECT_EQ(SweepService::cache_key(r1), SweepService::cache_key(r2));
}

TEST(SvcCacheKey, SimdBackendDoesNotChangeKey) {
  // Same contract as the threading knobs: every lane-word backend is
  // bit-identical to the u64 reference, so a request pinned to u64 must
  // share a cache entry with one evaluated under AVX2/AVX-512.
  auto r1 = tiny_request();
  auto r2 = r1;
  auto r3 = r1;
  r1.options.backend = sim::Backend::kU64;
  r2.options.backend = sim::Backend::kAvx2;
  r3.options.backend = sim::Backend::kAvx512;
  EXPECT_EQ(SweepService::cache_key(r1), SweepService::cache_key(r2));
  EXPECT_EQ(SweepService::cache_key(r1), SweepService::cache_key(r3));
}

TEST(SvcCache, CachedReportIdenticalToFreshEvaluation) {
  const auto lib = cells::CellLibrary::egfet();
  SweepService service(lib);
  const auto req = tiny_request();

  const core::HardwareReport first = service.evaluate(req);
  const core::HardwareReport cached = service.evaluate(req);

  const SweepStats stats = service.stats();
  EXPECT_EQ(stats.evaluated, 1u);
  EXPECT_GE(stats.cache_hits, 1u);

  // The cache hit is a copy of the one real evaluation...
  testutil::expect_reports_equal(first, cached);
  // ...and that evaluation matches a from-scratch evaluate_circuit.
  const core::HardwareReport fresh = core::evaluate_circuit(
      *req.module, req.cycles_per_inference, lib, *req.workload, req.options);
  testutil::expect_reports_equal(fresh, cached);
}

}  // namespace
}  // namespace pml::svc
