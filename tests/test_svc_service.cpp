// Job-queue behavior of svc::SweepService: async submit/wait, in-flight
// dedup, error caching, the sweep_flows driver's equivalence with direct
// evaluate_circuit calls, and the stats surface.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

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

std::shared_ptr<core::CircuitWorkload> tiny_workload(
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

TEST(SvcService, SubmitThenWaitProducesVerifiedReport) {
  const auto lib = cells::CellLibrary::egfet();
  SweepService service(lib);
  const auto req = tiny_request();
  const SweepTicket ticket = service.submit(req);
  EXPECT_EQ(ticket.key, SweepService::cache_key(req));
  const core::HardwareReport rep = service.wait(ticket);
  EXPECT_TRUE(rep.verified);
  EXPECT_EQ(rep.verified_samples, req.workload->feature_codes.size());
  EXPECT_GT(rep.energy_mj, 0.0);
}

TEST(SvcService, IdenticalSubmissionsShareOneEvaluation) {
  const auto lib = cells::CellLibrary::egfet();
  SweepService service(lib);
  const auto req = tiny_request();
  // Both tickets are issued before either job can be waited on, so the
  // second submit either dedups against the in-flight job or hits the
  // already-completed cache entry — never evaluates twice.
  const SweepTicket t1 = service.submit(req);
  const SweepTicket t2 = service.submit(req);
  EXPECT_EQ(t1.key, t2.key);
  const core::HardwareReport r1 = service.wait(t1);
  const core::HardwareReport r2 = service.wait(t2);
  EXPECT_EQ(r1.energy_mj, r2.energy_mj);

  const SweepStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.evaluated, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits + stats.inflight_deduped, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(SvcService, FailedEvaluationIsCachedAndRethrown) {
  const auto lib = cells::CellLibrary::egfet();
  SweepService service(lib);
  auto req = tiny_request();
  auto bad = std::make_shared<core::CircuitWorkload>(*req.workload);
  bad->expected_class[5] = (bad->expected_class[5] + 1) % 3;
  req.workload = std::move(bad);

  EXPECT_THROW((void)service.evaluate(req), std::runtime_error);
  // The failure is a cached outcome, not a retry: same exception again,
  // no second evaluation.
  EXPECT_THROW((void)service.evaluate(req), std::runtime_error);
  const SweepStats stats = service.stats();
  EXPECT_EQ(stats.evaluated, 1u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_GE(stats.cache_hits, 1u);
}

TEST(SvcService, InvalidModuleRejectedAtSubmit) {
  const auto lib = cells::CellLibrary::egfet();
  SweepService service(lib);
  auto broken = std::make_shared<netlist::Module>("broken");
  const auto in = broken->add_input_port("x0", 1);
  // An undriven fresh net in the output port: Module::validate() flags it.
  broken->add_output_port("class", {broken->new_net()});
  SweepRequest req;
  req.module = broken;
  req.workload = tiny_workload(tiny_model());
  EXPECT_THROW((void)service.submit(req), std::runtime_error);
  (void)in;
}

TEST(SvcService, NullRequestRejected) {
  const auto lib = cells::CellLibrary::egfet();
  SweepService service(lib);
  EXPECT_THROW((void)service.submit(SweepRequest{}), std::invalid_argument);
  EXPECT_THROW((void)service.wait(SweepTicket{0xdeadbeefULL, 0, nullptr}),
               std::invalid_argument);
}

TEST(SvcService, SweepFlowsMatchesDirectEvaluation) {
  const auto lib = cells::CellLibrary::egfet();
  const auto req = tiny_request();
  const std::vector<std::string> flows = {"none", "area", "energy"};
  core::EvaluateOptions base;

  SweepService service(lib);
  const auto svc_rows = service.sweep_flows(
      req.module, req.cycles_per_inference, req.workload, base, flows);

  // Each row is exactly evaluate_circuit with the optimizer forced on
  // under that row's recipe.
  ASSERT_EQ(svc_rows.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(svc_rows[i].flow, flows[i]);
    core::EvaluateOptions opts = base;
    opts.optimize.enabled = true;
    opts.optimize.flow = flows[i];
    const core::HardwareReport direct = core::evaluate_circuit(
        *req.module, req.cycles_per_inference, lib, *req.workload, opts);
    testutil::expect_reports_equal(svc_rows[i].hw, direct);
  }

  // A warm re-sweep is answered entirely from the cache.
  const SweepStats before = service.stats();
  const auto warm = service.sweep_flows(req.module, req.cycles_per_inference,
                                        req.workload, base, flows);
  const SweepStats after = service.stats();
  ASSERT_EQ(warm.size(), flows.size());
  EXPECT_EQ(after.evaluated, before.evaluated);
  EXPECT_EQ(after.cache_hits, before.cache_hits + flows.size());
}

TEST(SvcService, MultiWorkerPoolCompletesAllJobs) {
  const auto lib = cells::CellLibrary::egfet();
  SweepService::Options opts;
  opts.num_workers = 2;
  SweepService service(lib, opts);
  const auto req = tiny_request();
  const auto rows = service.sweep_flows(req.module, req.cycles_per_inference,
                                        req.workload, core::EvaluateOptions{});
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& row : rows) EXPECT_TRUE(row.hw.verified);
  EXPECT_EQ(service.stats().evaluated, 4u);
}

}  // namespace
}  // namespace pml::svc
