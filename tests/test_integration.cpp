// Cross-cutting integration tests on *generated* architectures:
//  - cycle-simulator vs event-simulator equivalence on the sequential SVM,
//  - Verilog export of real designs is well-formed,
//  - VCD tracing of a classification,
//  - fault injection on a generated circuit degrades gracefully,
//  - group/area accounting is consistent across analyses.

#include <gtest/gtest.h>

#include <sstream>

#include "pml/arch/parallel_svm.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/cells/library.hpp"
#include "pml/netlist/verilog.hpp"
#include "pml/power/power.hpp"
#include "pml/sim/cycle_sim.hpp"
#include "pml/sim/event_sim.hpp"
#include "pml/sim/vcd.hpp"
#include "pml/sta/timing.hpp"

namespace pml {
namespace {

quant::QuantizedSvm demo_model() {
  quant::QuantizedSvm q;
  q.strategy = ml::MulticlassStrategy::kOneVsRest;
  q.num_classes = 4;
  q.input_format = quant::input_format(3);
  q.weight_format =
      fixed::FixedFormat{.total_bits = 5, .frac_bits = 4, .is_signed = true};
  q.classifiers = {
      quant::QuantizedClassifier{{7, -3, 5, 0, -12}, 4},
      quant::QuantizedClassifier{{-8, 15, -1, 6, 3}, -7},
      quant::QuantizedClassifier{{2, 2, -14, 9, 1}, 0},
      quant::QuantizedClassifier{{-5, -5, 8, -8, 10}, 12},
  };
  return q;
}

std::vector<std::int64_t> pattern(std::uint64_t seed, int features,
                                  std::int64_t xmax) {
  std::vector<std::int64_t> xq;
  std::uint64_t s = seed * 2654435761u + 99;
  for (int j = 0; j < features; ++j) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    xq.push_back(static_cast<std::int64_t>(s % (xmax + 1)));
  }
  return xq;
}

TEST(Integration, EventAndCycleSimAgreeOnSequentialSvm) {
  const auto q = demo_model();
  auto circuit = arch::build_sequential_svm(q);
  const auto lib = cells::CellLibrary::egfet();
  sim::CycleSimulator cs(circuit.module);
  sim::EventSimulator es(circuit.module, lib);
  for (std::uint64_t t = 0; t < 30; ++t) {
    const auto xq = pattern(t, 5, q.input_format.max_code());
    for (std::size_t j = 0; j < xq.size(); ++j) {
      const std::string port = std::string("x").append(std::to_string(j));
      cs.set_port(port, static_cast<std::uint64_t>(xq[j]));
      es.set_port(port, static_cast<std::uint64_t>(xq[j]));
    }
    for (int c = 0; c < circuit.cycles_per_inference; ++c) {
      cs.step();
      es.step();
      EXPECT_EQ(cs.port_unsigned("score"), es.port_unsigned("score"));
    }
    EXPECT_EQ(cs.port_unsigned("class"), es.port_unsigned("class"));
    EXPECT_EQ(static_cast<int>(cs.port_unsigned("class")), q.predict_codes(xq));
  }
}

TEST(Integration, EventSimCountsAtLeastFunctionalToggles) {
  const auto q = demo_model();
  auto circuit = arch::build_parallel_svm(q);
  const auto lib = cells::CellLibrary::egfet();
  sim::CycleSimulator cs(circuit.module);
  sim::EventSimulator es(circuit.module, lib);
  // Warm both up, then compare counted transitions over a workload.
  for (std::uint64_t t = 0; t < 10; ++t) {
    const auto xq = pattern(t, 5, q.input_format.max_code());
    for (std::size_t j = 0; j < xq.size(); ++j) {
      cs.set_port(std::string("x").append(std::to_string(j)),
                  static_cast<std::uint64_t>(xq[j]));
      es.set_port(std::string("x").append(std::to_string(j)),
                  static_cast<std::uint64_t>(xq[j]));
    }
    cs.propagate();
    es.settle();
  }
  std::uint64_t functional = 0, with_glitches = 0;
  for (std::size_t n = 0; n < circuit.module.num_nets(); ++n) {
    functional += cs.toggles()[n];
    with_glitches += es.activity().net_toggles[n];
  }
  EXPECT_GE(with_glitches, functional)
      << "event simulation must see every functional transition";
  EXPECT_GT(with_glitches, functional)
      << "a parallel datapath must exhibit some glitching";
}

TEST(Integration, VerilogExportOfGeneratedDesigns) {
  const auto q = demo_model();
  auto seq = arch::build_sequential_svm(q);
  const std::string v = netlist::to_verilog(seq.module);
  EXPECT_NE(v.find("module seq_svm_4c5f ("), std::string::npos);
  EXPECT_NE(v.find("input  wire [2:0] x0"), std::string::npos);
  EXPECT_NE(v.find("output wire [1:0] class"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk"), std::string::npos);
  EXPECT_NE(v.find("// --- voter ---"), std::string::npos);
  // Every cell output must be declared exactly once.
  std::size_t wires = 0, pos = 0;
  while ((pos = v.find("  wire n", pos)) != std::string::npos) {
    ++wires;
    ++pos;
  }
  std::size_t regs = 0;
  pos = 0;
  while ((pos = v.find("  reg  n", pos)) != std::string::npos) {
    ++regs;
    ++pos;
  }
  EXPECT_EQ(wires + regs, seq.module.cells().size());
  EXPECT_EQ(regs, seq.module.stats().num_dffs);
}

TEST(Integration, VcdTraceOfClassification) {
  const auto q = demo_model();
  auto circuit = arch::build_sequential_svm(q);
  sim::CycleSimulator sim(circuit.module);
  std::ostringstream os;
  sim::VcdWriter vcd(sim, os);
  const auto xq = pattern(3, 5, q.input_format.max_code());
  for (std::size_t j = 0; j < xq.size(); ++j) {
    sim.set_port(std::string("x").append(std::to_string(j)),
                 static_cast<std::uint64_t>(xq[j]));
  }
  for (int c = 0; c < circuit.cycles_per_inference; ++c) {
    sim.propagate();
    vcd.sample(static_cast<std::uint64_t>(c));
    sim.step();
  }
  const std::string out = os.str();
  EXPECT_NE(out.find("$var wire 2 "), std::string::npos) << "class bus";
  EXPECT_NE(out.find("#0"), std::string::npos);
  EXPECT_NE(out.find(std::string("#").append(
                std::to_string(circuit.cycles_per_inference - 1))),
            std::string::npos)
      << "the done pulse on the last cycle must appear";
}

TEST(Integration, FaultInjectionOnGeneratedCircuit) {
  const auto q = demo_model();
  auto circuit = arch::build_sequential_svm(q);
  sim::CycleSimulator sim(circuit.module);
  const auto xq = pattern(5, 5, q.input_format.max_code());
  auto classify = [&]() {
    for (std::size_t j = 0; j < xq.size(); ++j) {
      sim.set_port(std::string("x").append(std::to_string(j)),
                   static_cast<std::uint64_t>(xq[j]));
    }
    for (int c = 0; c < circuit.cycles_per_inference; ++c) sim.step();
    return static_cast<int>(sim.port_unsigned("class"));
  };
  const int healthy = classify();
  EXPECT_EQ(healthy, q.predict_codes(xq));
  // Breaking the class-id register output pins the prediction.
  const auto* class_port = circuit.module.find_output("class");
  ASSERT_NE(class_port, nullptr);
  sim.force_net(class_port->nets[0], true);
  sim.force_net(class_port->nets[1], true);
  EXPECT_EQ(classify(), 3) << "stuck-at-1 id register reads as class 3";
  sim.clear_forces();
  EXPECT_EQ(classify(), healthy) << "clearing faults restores behaviour";
}

TEST(Integration, GroupAreasSumToTotal) {
  const auto q = demo_model();
  auto circuit = arch::build_sequential_svm(q);
  const auto lib = cells::CellLibrary::egfet();
  sim::EventSimulator es(circuit.module, lib);
  es.step();
  const auto pr = power::estimate(circuit.module, lib, es.activity(), 1,
                                  static_cast<std::size_t>(
                                      circuit.cycles_per_inference),
                                  30.0);
  double group_area = 0.0;
  for (const auto& g : pr.groups) group_area += g.area_cm2;
  // Group areas are pre-routing; total applies the routing factor.
  EXPECT_NEAR(group_area * lib.calibration().routing_area_factor,
              pr.area_cm2, 1e-9);
}

TEST(Integration, StaAgreesWithLogicDepthBounds) {
  const auto q = demo_model();
  auto seq = arch::build_sequential_svm(q);
  const auto lib = cells::CellLibrary::egfet();
  const auto timing = sta::analyze(seq.module, lib);
  const auto lv = sim::levelize(seq.module);
  EXPECT_LE(timing.logic_depth, static_cast<int>(lv.max_depth) + 1);
  // Physical sanity: the critical path must cost at least depth x the
  // fastest cell and at most depth x the slowest loaded cell.
  EXPECT_GT(timing.critical_path_ms,
            0.1 * static_cast<double>(timing.logic_depth));
  EXPECT_GT(timing.max_frequency_hz, 1.0);
  EXPECT_LT(timing.max_frequency_hz, 500.0);
}

}  // namespace
}  // namespace pml
