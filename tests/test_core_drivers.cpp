// The batch drivers' shared contract.
//
//  - One EvalContext serves verify_workload and collect_activity_into
//    across designs of different shapes, at 4 threads, and every result
//    equals the context-less call's (which runs the same loops on a
//    call-local context).
//  - Every driver (verify_workload, collect_activity_into,
//    run_fault_campaign, probe_batch_backend) rejects a malformed input
//    with std::invalid_argument naming itself: an empty workload, ragged
//    feature rows, a missing "x" feature port and, for the drivers that
//    read the class, a missing "class" output.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "pml/arch/mlp_circuit.hpp"
#include "pml/arch/parallel_svm.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/cells/library.hpp"
#include "pml/core/activity.hpp"
#include "pml/core/backend_probe.hpp"
#include "pml/core/eval_context.hpp"
#include "pml/core/fault_campaign.hpp"
#include "pml/core/verify.hpp"
#include "pml/netlist/module.hpp"

namespace pml::core {
namespace {

using netlist::Module;
using netlist::NetId;

const cells::CellLibrary& library() {
  static const cells::CellLibrary lib = cells::CellLibrary::egfet();
  return lib;
}

quant::QuantizedSvm small_svm() {
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

quant::QuantizedMlp small_mlp() {
  quant::QuantizedMlp q;
  q.num_inputs = 2;
  q.num_hidden = 3;
  q.num_outputs = 3;
  q.input_format = quant::input_format(3);
  q.w1_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  q.hidden_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 4, .is_signed = false};
  q.w2_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  q.hidden_shift = 3;
  q.w1 = {{3, -2}, {-5, 4}, {2, 6}};
  q.b1 = {8, -4, 0};
  q.w2 = {{4, -3, 1}, {-2, 5, -1}, {1, 1, -6}};
  q.b2 = {2, -2, 4};
  return q;
}

/// Every (a, b) pair of 3-bit codes, `repeats` times over, classified by
/// `predict`: 64 x repeats samples.
CircuitWorkload workload_of(
    const std::function<int(const std::vector<std::int64_t>&)>& predict,
    int repeats) {
  CircuitWorkload wl;
  for (int r = 0; r < repeats; ++r) {
    for (std::int64_t a = 0; a <= 7; ++a) {
      for (std::int64_t b = 0; b <= 7; ++b) {
        wl.feature_codes.push_back({a, b});
        wl.expected_class.push_back(predict(wl.feature_codes.back()));
      }
    }
  }
  return wl;
}

struct Design {
  std::string name;
  Module module;
  int cycles = 1;
  CircuitWorkload workload;
};

void expect_verify_equal(const VerifyResult& a, const VerifyResult& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.mismatches, b.mismatches);
  ASSERT_EQ(a.first.has_value(), b.first.has_value());
  if (a.first.has_value()) {
    EXPECT_EQ(a.first->sample, b.first->sample);
    EXPECT_EQ(a.first->predicted, b.first->predicted);
    EXPECT_EQ(a.first->expected, b.first->expected);
  }
}

void expect_stats_equal(const sim::ActivityStats& a,
                        const sim::ActivityStats& b) {
  EXPECT_EQ(a.net_toggles, b.net_toggles);
  EXPECT_EQ(a.net_functional, b.net_functional);
  EXPECT_EQ(a.dff_clock_events, b.dff_clock_events);
  EXPECT_EQ(a.cycles, b.cycles);
}

TEST(BatchDrivers, OneContextServesEveryDesignLikeAFreshCall) {
  const auto svm = small_svm();
  const auto mlp = small_mlp();
  const auto svm_predict = [&svm](const std::vector<std::int64_t>& x) {
    return svm.predict_codes(x);
  };
  std::vector<Design> designs;
  {
    auto c = arch::build_sequential_svm(svm);
    designs.push_back({"sequential_svm", std::move(c.module),
                       c.cycles_per_inference, workload_of(svm_predict, 5)});
  }
  {
    auto c = arch::build_parallel_svm(svm);
    CircuitWorkload wl = workload_of(svm_predict, 3);
    // Two planted mismatches, so the first-mismatch bookkeeping is
    // compared too.
    for (const std::size_t s : {std::size_t{9}, std::size_t{150}}) {
      wl.expected_class[s] = (wl.expected_class[s] + 1) % 3;
    }
    designs.push_back({"parallel_svm", std::move(c.module),
                       c.cycles_per_inference, std::move(wl)});
  }
  {
    auto c = arch::build_mlp_circuit(mlp);
    designs.push_back({"mlp", std::move(c.module), c.cycles_per_inference,
                       workload_of(
                           [&mlp](const std::vector<std::int64_t>& x) {
                             return mlp.predict_codes(x);
                           },
                           4)});
  }

  EvalContext ctx;
  // The first design again, after the context has served the others.
  for (const std::size_t i : {0u, 1u, 2u, 0u}) {
    const Design& d = designs[i];
    SCOPED_TRACE(d.name);
    VerifyOptions vfresh;
    vfresh.num_threads = 4;
    VerifyOptions vpooled = vfresh;
    vpooled.context = &ctx;
    vpooled.levelization = ctx.levelize(d.module);
    expect_verify_equal(
        verify_workload(d.module, d.cycles, d.workload, vpooled),
        verify_workload(d.module, d.cycles, d.workload, vfresh));

    ActivityOptions afresh;
    afresh.num_threads = 4;
    ActivityOptions apooled = afresh;
    apooled.context = &ctx;
    apooled.levelization = vpooled.levelization;
    const std::size_t n = d.workload.feature_codes.size();
    sim::ActivityStats pooled;
    collect_activity_into(pooled, d.module, library(), d.cycles, d.workload,
                          n, apooled);
    sim::ActivityStats fresh;
    collect_activity_into(fresh, d.module, library(), d.cycles, d.workload, n,
                          afresh);
    expect_stats_equal(pooled, fresh);
    EXPECT_GT(std::accumulate(pooled.net_toggles.begin(),
                              pooled.net_toggles.end(), std::uint64_t{0}),
              0u);
  }
  EXPECT_TRUE(verify_workload(designs[0].module, designs[0].cycles,
                              designs[0].workload)
                  .ok());
}

/// Calls one driver on (module, workload); throws what the driver throws.
using DriverCall =
    std::function<void(const Module&, int, const CircuitWorkload&)>;

struct Driver {
  const char* name;
  bool reads_class;
  DriverCall call;
};

std::vector<Driver> drivers() {
  return {
      {"verify_workload", true,
       [](const Module& m, int cycles, const CircuitWorkload& wl) {
         (void)verify_workload(m, cycles, wl);
       }},
      {"collect_activity", false,
       [](const Module& m, int cycles, const CircuitWorkload& wl) {
         sim::ActivityStats out;
         collect_activity_into(out, m, library(), cycles, wl,
                               wl.feature_codes.size());
       }},
      {"run_fault_campaign", true,
       [](const Module& m, int cycles, const CircuitWorkload& wl) {
         (void)run_fault_campaign(m, cycles, wl, {FaultSet{}});
       }},
      {"probe_batch_backend", true,
       [](const Module& m, int cycles, const CircuitWorkload& wl) {
         (void)probe_batch_backend(m, cycles, wl.feature_codes);
       }},
  };
}

/// The std::invalid_argument message `call` throws, or nullopt.
std::optional<std::string> invalid_argument_of(
    const std::function<void()>& call) {
  try {
    call();
  } catch (const std::invalid_argument& e) {
    return std::string(e.what());
  }
  return std::nullopt;
}

/// Inputs x0 and x1 (3 bits each) and an output named `out`.
Module two_input_module(const std::string& first_input,
                        const std::string& out) {
  Module m("m");
  const std::vector<NetId> a = m.add_input_port(first_input, 3);
  const std::vector<NetId> b = m.add_input_port("x1", 3);
  m.add_output_port(out, {m.and2(a[0], b[0]), m.xor2(a[1], b[1])});
  return m;
}

TEST(BatchDrivers, EachDriverRejectsMalformedInputNamingItself) {
  const Module good = two_input_module("x0", "class");
  const Module no_x0 = two_input_module("a0", "class");
  const Module no_class = two_input_module("x0", "y");
  CircuitWorkload ok;
  ok.feature_codes = {{1, 2}, {3, 4}};
  ok.expected_class = {0, 1};
  CircuitWorkload empty;
  CircuitWorkload ragged;
  ragged.feature_codes = {{1, 2}, {5}};
  ragged.expected_class = {0, 1};

  struct Case {
    const char* what;
    const Module* module;
    const CircuitWorkload* workload;
    bool needs_class;
  };
  const Case cases[] = {{"empty workload", &good, &empty, false},
                        {"ragged rows", &good, &ragged, false},
                        {"missing x0", &no_x0, &ok, false},
                        {"missing class", &no_class, &ok, true}};
  for (const Driver& d : drivers()) {
    SCOPED_TRACE(d.name);
    // The well-formed call goes through.
    EXPECT_EQ(invalid_argument_of([&] { d.call(good, 1, ok); }), std::nullopt);
    for (const Case& c : cases) {
      SCOPED_TRACE(c.what);
      const std::optional<std::string> what =
          invalid_argument_of([&] { d.call(*c.module, 1, *c.workload); });
      if (c.needs_class && !d.reads_class) {
        EXPECT_EQ(what, std::nullopt);
        continue;
      }
      ASSERT_TRUE(what.has_value());
      EXPECT_EQ(what->rfind(std::string(d.name) + ": ", 0), 0u) << *what;
    }
  }
}

}  // namespace
}  // namespace pml::core
