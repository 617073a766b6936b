// SIMD backend contract: enum plumbing (names, lanes, resolution, the
// PML_SIM_BACKEND environment override), and — the load-bearing part —
// bit-exact equivalence of every compiled+supported lane-word backend
// against the u64 reference on every generated architecture, through
// every dispatching driver (probe, verify, fault campaign) and through
// whole evaluate_circuit reports, whose activity replay runs on u64
// under every backend.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "pml/arch/mlp_circuit.hpp"
#include "pml/arch/parallel_svm.hpp"
#include "pml/arch/sequential_mlp.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/cells/library.hpp"
#include "pml/core/activity.hpp"
#include "pml/core/backend_probe.hpp"
#include "pml/core/evaluate.hpp"
#include "pml/core/fault_campaign.hpp"
#include "pml/core/verify.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/sim/backend.hpp"
#include "pml/sim/swar.hpp"
#include "backend_env_test_util.hpp"
#include "report_test_util.hpp"

namespace pml::core {
namespace {

using quant::QuantizedClassifier;
using quant::QuantizedMlp;
using quant::QuantizedSvm;
using sim::Backend;
using testutil::ScopedBackendEnv;

// --- deterministic model generators (same style as test_sim_batch) ----------

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

QuantizedSvm random_svm(int classes, int features, int input_bits,
                        int weight_bits, std::uint64_t seed) {
  QuantizedSvm q;
  q.strategy = ml::MulticlassStrategy::kOneVsRest;
  q.num_classes = classes;
  q.input_format = quant::input_format(input_bits);
  q.weight_format = fixed::FixedFormat{.total_bits = weight_bits,
                                       .frac_bits = weight_bits - 1,
                                       .is_signed = true};
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + 1;
  const std::int64_t wmin = q.weight_format.min_code();
  const std::int64_t wmax = q.weight_format.max_code();
  for (int k = 0; k < classes; ++k) {
    QuantizedClassifier c;
    for (int j = 0; j < features; ++j) {
      c.w.push_back(wmin + static_cast<std::int64_t>(
                               xorshift(s) % static_cast<std::uint64_t>(
                                                 wmax - wmin + 1)));
    }
    c.b = -8 + static_cast<std::int64_t>(xorshift(s) % 17);
    q.classifiers.push_back(std::move(c));
  }
  return q;
}

QuantizedMlp random_mlp(int inputs, int hidden, int outputs, int input_bits,
                        std::uint64_t seed) {
  QuantizedMlp q;
  q.num_inputs = inputs;
  q.num_hidden = hidden;
  q.num_outputs = outputs;
  q.input_format = quant::input_format(input_bits);
  q.w1_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  q.hidden_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 4, .is_signed = false};
  q.w2_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  q.hidden_shift = 3;
  std::uint64_t s = seed ^ 0x5555AAAAull;
  auto rand_w = [&s]() {
    return -8 + static_cast<std::int64_t>(xorshift(s) % 16);
  };
  q.w1.resize(static_cast<std::size_t>(hidden));
  q.b1.resize(static_cast<std::size_t>(hidden));
  for (int i = 0; i < hidden; ++i) {
    for (int j = 0; j < inputs; ++j) {
      q.w1[static_cast<std::size_t>(i)].push_back(rand_w());
    }
    q.b1[static_cast<std::size_t>(i)] = rand_w() * 4;
  }
  q.w2.resize(static_cast<std::size_t>(outputs));
  q.b2.resize(static_cast<std::size_t>(outputs));
  for (int k = 0; k < outputs; ++k) {
    for (int i = 0; i < hidden; ++i) {
      q.w2[static_cast<std::size_t>(k)].push_back(rand_w());
    }
    q.b2[static_cast<std::size_t>(k)] = rand_w() * 2;
  }
  return q;
}

std::vector<std::vector<std::int64_t>> random_samples(std::size_t count,
                                                      int features,
                                                      std::int64_t max_code,
                                                      std::uint64_t seed) {
  std::uint64_t s = seed | 1;
  std::vector<std::vector<std::int64_t>> samples(count);
  for (auto& row : samples) {
    for (int j = 0; j < features; ++j) {
      row.push_back(static_cast<std::int64_t>(
          xorshift(s) % static_cast<std::uint64_t>(max_code + 1)));
    }
  }
  return samples;
}

/// The wide backends this binary can actually run here — the comparison
/// targets of every equivalence test.  Empty on a plain x86-64 build/CPU;
/// the tests then skip (the u64 path is already covered by the
/// scalar-equivalence suites).
std::vector<Backend> wide_backends() {
  std::vector<Backend> wide;
  for (const Backend b : sim::available_backends()) {
    if (b != Backend::kU64) wide.push_back(b);
  }
  return wide;
}

// --- enum plumbing -----------------------------------------------------------

TEST(SimBackend, NamesRoundTrip) {
  for (const Backend b : {Backend::kAuto, Backend::kU64, Backend::kAvx2,
                          Backend::kAvx512}) {
    EXPECT_EQ(sim::parse_backend(sim::backend_name(b)), b);
  }
  EXPECT_STREQ(sim::backend_name(Backend::kU64), "u64");
  EXPECT_STREQ(sim::backend_name(Backend::kAvx512), "avx512");
  EXPECT_THROW((void)sim::parse_backend("sse9"), std::invalid_argument);
  EXPECT_THROW((void)sim::parse_backend(""), std::invalid_argument);
}

TEST(SimBackend, LaneWidths) {
  EXPECT_EQ(sim::backend_lanes(Backend::kU64), 64u);
  EXPECT_EQ(sim::backend_lanes(Backend::kAvx2), 256u);
  EXPECT_EQ(sim::backend_lanes(Backend::kAvx512), 512u);
  EXPECT_THROW((void)sim::backend_lanes(Backend::kAuto),
               std::invalid_argument);
}

TEST(SimBackend, U64AlwaysAvailable) {
  EXPECT_TRUE(sim::backend_compiled(Backend::kU64));
  EXPECT_TRUE(sim::backend_cpu_supported(Backend::kU64));
  EXPECT_TRUE(sim::backend_available(Backend::kU64));
  EXPECT_EQ(sim::resolve_backend(Backend::kU64), Backend::kU64);
  const auto avail = sim::available_backends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), Backend::kU64);
}

TEST(SimBackend, ConcreteResolutionIsAllOrNothing) {
  for (const Backend b : {Backend::kAvx2, Backend::kAvx512}) {
    if (sim::backend_available(b)) {
      EXPECT_EQ(sim::resolve_backend(b), b);
    } else {
      EXPECT_THROW((void)sim::resolve_backend(b), std::runtime_error);
    }
  }
}

TEST(SimBackend, AutoPicksWidestAvailable) {
  ScopedBackendEnv no_override(nullptr);
  const auto avail = sim::available_backends();
  EXPECT_EQ(sim::resolve_backend(Backend::kAuto), avail.back());
}

TEST(SimBackend, EnvOverridesAuto) {
  {
    ScopedBackendEnv force_u64("u64");
    EXPECT_EQ(sim::resolve_backend(Backend::kAuto), Backend::kU64);
    // The override only applies to kAuto; a concrete request wins.
    const auto avail = sim::available_backends();
    EXPECT_EQ(sim::resolve_backend(avail.back()), avail.back());
  }
  {
    ScopedBackendEnv noop("auto");
    const auto avail = sim::available_backends();
    EXPECT_EQ(sim::resolve_backend(Backend::kAuto), avail.back());
  }
  {
    ScopedBackendEnv garbage("pentium");
    EXPECT_THROW((void)sim::resolve_backend(Backend::kAuto),
                 std::invalid_argument);
  }
  if (!sim::backend_available(Backend::kAvx512)) {
    // A forced-but-unavailable backend must fail loudly, never fall back.
    ScopedBackendEnv force_wide("avx512");
    EXPECT_THROW((void)sim::resolve_backend(Backend::kAuto),
                 std::runtime_error);
  }
}

TEST(SimBackend, PinnedBackendsResolveToThemselves) {
  for (const Backend b : sim::available_backends()) {
    SCOPED_TRACE(sim::backend_name(b));
    {
      ScopedBackendEnv no_override(nullptr);
      EXPECT_EQ(sim::resolve_backend(b), b);
    }
    {
      // The environment override pins kAuto, and an explicit request
      // still beats the override.
      ScopedBackendEnv forced(sim::backend_name(b));
      EXPECT_EQ(sim::resolve_backend(Backend::kAuto), b);
      EXPECT_EQ(sim::resolve_backend(Backend::kU64), Backend::kU64);
    }
  }
  for (const Backend b : {Backend::kAvx2, Backend::kAvx512}) {
    if (!sim::backend_available(b)) {
      EXPECT_THROW((void)sim::resolve_backend(b), std::runtime_error);
      ScopedBackendEnv forced(sim::backend_name(b));
      EXPECT_THROW((void)sim::resolve_backend(Backend::kAuto),
                   std::runtime_error);
    }
  }
}

TEST(SimBackend, EvalCellLanesRejectsSequentialCells) {
  EXPECT_THROW((void)sim::eval_cell_lanes_w<sim::LaneU64>(
                   netlist::CellType::kDff, 1, 0, 0),
               std::logic_error);
}

// --- bit-exact equivalence vs the u64 reference ------------------------------

/// Probe `module` under u64 and under `wide`, and require exact equality
/// of every per-sample class value and every per-net toggle total (the
/// reset-per-batch protocol makes both width-invariant by construction —
/// see core/backend_probe.hpp).
void expect_probe_equal(const netlist::Module& module, int cycles,
                        const std::vector<std::vector<std::int64_t>>& xs,
                        Backend wide) {
  const BatchProbeResult ref =
      probe_batch_backend(module, cycles, xs, Backend::kU64);
  const BatchProbeResult got = probe_batch_backend(module, cycles, xs, wide);
  EXPECT_EQ(ref.lanes, 64u);
  EXPECT_EQ(got.lanes, sim::backend_lanes(wide));
  ASSERT_EQ(ref.class_values.size(), xs.size());
  ASSERT_EQ(got.class_values.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(got.class_values[i], ref.class_values[i])
        << sim::backend_name(wide) << " diverges on sample " << i;
  }
  EXPECT_EQ(got.net_toggles, ref.net_toggles)
      << sim::backend_name(wide) << " toggle totals diverge";
}

TEST(SimBackendEquivalence, ProbeMatchesU64OnEveryArchitecture) {
  const auto wide = wide_backends();
  if (wide.empty()) GTEST_SKIP() << "no wide SIMD backend on this machine";
  // 700 samples: >1 batch and a ragged final batch at every lane width
  // (700 = 10x64+60 = 2x256+188 = 1x512+188).
  constexpr std::size_t kSamples = 700;
  const QuantizedSvm q = random_svm(4, 3, 3, 4, 17);
  const auto xs = random_samples(kSamples, 3, q.input_format.max_code(), 29);
  const QuantizedMlp m = random_mlp(3, 4, 3, 3, 53);
  const auto mxs = random_samples(kSamples, 3, m.input_format.max_code(), 31);
  for (const Backend b : wide) {
    {
      auto c = arch::build_sequential_svm(q);
      expect_probe_equal(c.module, c.cycles_per_inference, xs, b);
    }
    {
      auto c = arch::build_parallel_svm(q);
      expect_probe_equal(c.module, c.cycles_per_inference, xs, b);
    }
    {
      auto c = arch::build_mlp_circuit(m);
      expect_probe_equal(c.module, c.cycles_per_inference, mxs, b);
    }
    {
      auto c = arch::build_sequential_mlp(m);
      expect_probe_equal(c.module, c.cycles_per_inference, mxs, b);
    }
  }
}

CircuitWorkload svm_workload(const QuantizedSvm& q,
                             const std::vector<std::vector<std::int64_t>>& xs) {
  CircuitWorkload wl;
  wl.feature_codes = xs;
  for (const auto& x : xs) wl.expected_class.push_back(q.predict_codes(x));
  return wl;
}

TEST(SimBackendEquivalence, VerifyResultMatchesU64) {
  const auto wide = wide_backends();
  if (wide.empty()) GTEST_SKIP() << "no wide SIMD backend on this machine";
  const QuantizedSvm q = random_svm(3, 4, 3, 4, 5);
  auto circuit = arch::build_sequential_svm(q);
  auto wl = svm_workload(
      q, random_samples(700, 4, q.input_format.max_code(), 97));
  // Corrupt a handful of expectations: the generated circuit classifies
  // correctly from any reachable state, so every backend must report the
  // same mismatch count and the same lowest-index mismatch regardless of
  // how samples pack into lanes.
  for (const std::size_t s : {std::size_t{41}, std::size_t{300},
                              std::size_t{655}}) {
    wl.expected_class[s] = (wl.expected_class[s] + 1) % 3;
  }
  VerifyOptions ref_opts;
  ref_opts.backend = Backend::kU64;
  const VerifyResult ref = verify_workload(
      circuit.module, circuit.cycles_per_inference, wl, ref_opts);
  EXPECT_EQ(ref.mismatches, 3u);
  ASSERT_TRUE(ref.first.has_value());
  EXPECT_EQ(ref.first->sample, 41u);
  for (const Backend b : wide) {
    VerifyOptions opts;
    opts.backend = b;
    const VerifyResult got = verify_workload(
        circuit.module, circuit.cycles_per_inference, wl, opts);
    EXPECT_EQ(got.samples, ref.samples);
    EXPECT_EQ(got.mismatches, ref.mismatches);
    ASSERT_TRUE(got.first.has_value());
    EXPECT_EQ(got.first->sample, ref.first->sample);
    EXPECT_EQ(got.first->predicted, ref.first->predicted);
    EXPECT_EQ(got.first->expected, ref.first->expected);
  }
}

// sim.batch_event.live_lanes counts sample-carrying lanes, so its delta is
// the sample count: 24 samples (one sparse batch) and 700 (eleven u64
// batches).
TEST(SimBackendEquivalence, LiveLanesCountEverySample) {
  const QuantizedSvm q = random_svm(3, 3, 3, 4, 37);
  auto circuit = arch::build_sequential_svm(q);
  const auto lib = cells::CellLibrary::egfet();
  const auto wl = svm_workload(
      q, random_samples(700, 3, q.input_format.max_code(), 43));
  for (const std::size_t n : {std::size_t{24}, std::size_t{700}}) {
    SCOPED_TRACE(n);
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    (void)collect_activity(circuit.module, lib, circuit.cycles_per_inference,
                           wl, n);
    const auto delta = obs::diff_metrics(before, obs::snapshot_metrics());
    EXPECT_EQ(delta.counter_value("sim.batch_event.live_lanes"), n);
  }
}

// sim.batch.live_lanes is the zero-delay engine's occupancy counter: each
// verification batch and each activity warm-up adds its sample-carrying
// lanes.  So a verify adds its sample count whatever the lane width, and
// so does a replay.
TEST(SimBackendEquivalence, ZeroDelayLiveLanesCountEverySampleAndWarmup) {
  const QuantizedSvm q = random_svm(3, 3, 3, 4, 37);
  auto circuit = arch::build_sequential_svm(q);
  const auto lib = cells::CellLibrary::egfet();
  const auto wl = svm_workload(
      q, random_samples(700, 3, q.input_format.max_code(), 43));
  std::vector<Backend> backends = sim::available_backends();
  backends.push_back(Backend::kAuto);
  for (const Backend b : backends) {
    SCOPED_TRACE(sim::backend_name(b));
    VerifyOptions vopts;
    vopts.backend = b;
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    EXPECT_TRUE(verify_workload(circuit.module, circuit.cycles_per_inference,
                                wl, vopts)
                    .ok());
    EXPECT_EQ(obs::diff_metrics(before, obs::snapshot_metrics())
                  .counter_value("sim.batch.live_lanes"),
              700u);
  }
  for (const std::size_t n : {std::size_t{24}, std::size_t{700}}) {
    SCOPED_TRACE(n);
    ActivityOptions opts;
    opts.num_threads = 1;
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    (void)collect_activity(circuit.module, lib, circuit.cycles_per_inference,
                           wl, n, opts);
    const auto delta = obs::diff_metrics(before, obs::snapshot_metrics());
    EXPECT_EQ(delta.counter_value("sim.batch.live_lanes"), n);
  }
}

// The determinism contract at the report level: a whole evaluate_circuit
// report does not depend on the backend (auto-dispatched or pinned) or on
// the thread count.  The backend steers verification; the power replay
// runs on u64 throughout, 24 samples in one batch and 1500 in 24.
TEST(SimBackendEquivalence, EvaluateReportIgnoresBackendAndThreads) {
  ScopedBackendEnv no_override(nullptr);
  const auto lib = cells::CellLibrary::egfet();
  const QuantizedSvm q = random_svm(3, 3, 3, 4, 83);
  const auto wl = svm_workload(
      q, random_samples(1500, 3, q.input_format.max_code(), 89));
  std::vector<Backend> backends = sim::available_backends();
  backends.insert(backends.begin(), Backend::kAuto);
  const auto check = [&](const netlist::Module& module, int cycles) {
    for (const std::size_t samples : {std::size_t{24}, std::size_t{1500}}) {
      SCOPED_TRACE(samples);
      EvaluateOptions ref_opts;
      ref_opts.power_samples = samples;
      ref_opts.backend = Backend::kU64;
      ref_opts.power_threads = 1;
      ref_opts.verify.num_threads = 1;
      const HardwareReport ref =
          evaluate_circuit(module, cycles, lib, wl, ref_opts);
      EXPECT_TRUE(ref.verified);
      for (const Backend b : backends) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
          SCOPED_TRACE(sim::backend_name(b));
          SCOPED_TRACE(threads);
          EvaluateOptions opts = ref_opts;
          opts.backend = b;
          opts.power_threads = threads;
          opts.verify.num_threads = threads;
          testutil::expect_reports_equal(
              evaluate_circuit(module, cycles, lib, wl, opts), ref);
        }
      }
    }
  };
  {
    SCOPED_TRACE("sequential");
    const auto c = arch::build_sequential_svm(q);
    check(c.module, c.cycles_per_inference);
  }
  {
    SCOPED_TRACE("parallel");
    const auto c = arch::build_parallel_svm(q);
    check(c.module, c.cycles_per_inference);
  }
}

TEST(SimBackendEquivalence, FaultCampaignMatchesU64AcrossVariantBoundaries) {
  const auto wide = wide_backends();
  if (wide.empty()) GTEST_SKIP() << "no wide SIMD backend on this machine";
  const QuantizedSvm q = random_svm(3, 3, 3, 4, 71);
  auto circuit = arch::build_sequential_svm(q);
  const auto wl = svm_workload(
      q, random_samples(40, 3, q.input_format.max_code(), 13));
  // Enough variants to cross the per-pass packing boundary of every
  // backend (63 / 255 / 511 variants per pass): per-variant counts must
  // not depend on which pass a variant rode in.
  auto sets = enumerate_single_faults(circuit.module);
  if (sets.size() > 600) sets.resize(600);
  ASSERT_GT(sets.size(), 256u)
      << "module too small to cross the AVX2 variant boundary";
  FaultCampaignOptions ref_opts;
  ref_opts.backend = Backend::kU64;
  const FaultCampaignResult ref = run_fault_campaign(
      circuit.module, circuit.cycles_per_inference, wl, sets, ref_opts);
  ASSERT_EQ(ref.variants.size(), sets.size());
  EXPECT_EQ(ref.golden.misclassified, 0u);
  for (const Backend b : wide) {
    FaultCampaignOptions opts;
    opts.backend = b;
    const FaultCampaignResult got = run_fault_campaign(
        circuit.module, circuit.cycles_per_inference, wl, sets, opts);
    ASSERT_EQ(got.variants.size(), ref.variants.size());
    EXPECT_EQ(got.golden.misclassified, ref.golden.misclassified);
    EXPECT_EQ(got.golden.samples, ref.golden.samples);
    for (std::size_t i = 0; i < ref.variants.size(); ++i) {
      ASSERT_EQ(got.variants[i].misclassified, ref.variants[i].misclassified)
          << sim::backend_name(b) << " diverges on variant " << i;
      ASSERT_EQ(got.variants[i].samples, ref.variants[i].samples);
    }
  }
}

TEST(SimBackendEquivalence, ProbeReportsResolvedLaneWidth) {
  const QuantizedSvm q = random_svm(3, 2, 3, 4, 3);
  auto circuit = arch::build_sequential_svm(q);
  const auto xs = random_samples(16, 2, q.input_format.max_code(), 19);
  const BatchProbeResult r = probe_batch_backend(
      circuit.module, circuit.cycles_per_inference, xs, Backend::kAuto);
  EXPECT_EQ(r.lanes,
            sim::backend_lanes(sim::resolve_backend(Backend::kAuto)));
}

}  // namespace
}  // namespace pml::core
