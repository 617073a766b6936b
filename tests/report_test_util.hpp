#pragma once
// Field-by-field HardwareReport equality for the determinism tests.
//
// Every field a report derives from module, workload, library and options
// must agree exactly, doubles included: the pipeline is deterministic, so
// even the last ulp must match.  The only exemptions are the wall-clock
// observability fields (opt_seconds and the per-pass times in
// opt_pass_times), which the determinism contract never covers.

#include <gtest/gtest.h>

#include <cstddef>

#include "pml/core/hardware_report.hpp"
#include "pml/netlist/module.hpp"

namespace pml::testutil {

inline void expect_stats_equal(const netlist::ModuleStats& a,
                               const netlist::ModuleStats& b) {
  EXPECT_EQ(a.num_cells, b.num_cells);
  EXPECT_EQ(a.num_nets, b.num_nets);
  EXPECT_EQ(a.num_dffs, b.num_dffs);
  for (int t = 0; t < netlist::kNumCellTypes; ++t) {
    const auto i = static_cast<std::size_t>(t);
    EXPECT_EQ(a.counts_by_type[i], b.counts_by_type[i]) << "cell type " << t;
  }
  EXPECT_EQ(a.counts_by_group, b.counts_by_group);
}

inline void expect_reports_equal(const core::HardwareReport& a,
                                 const core::HardwareReport& b) {
  EXPECT_EQ(a.dataset, b.dataset);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.area_cm2, b.area_cm2);
  EXPECT_EQ(a.power_mw, b.power_mw);
  EXPECT_EQ(a.frequency_hz, b.frequency_hz);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.energy_mj, b.energy_mj);
  EXPECT_EQ(a.static_mw, b.static_mw);
  EXPECT_EQ(a.dynamic_mw, b.dynamic_mw);
  EXPECT_EQ(a.dynamic_glitch_mw, b.dynamic_glitch_mw);
  EXPECT_EQ(a.functional_transitions, b.functional_transitions);
  EXPECT_EQ(a.glitch_transitions, b.glitch_transitions);
  EXPECT_EQ(a.logic_depth, b.logic_depth);
  EXPECT_EQ(a.num_cells, b.num_cells);
  EXPECT_EQ(a.num_dffs, b.num_dffs);
  EXPECT_EQ(a.cycles_per_inference, b.cycles_per_inference);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].name, b.groups[g].name);
    EXPECT_EQ(a.groups[g].cells, b.groups[g].cells);
    EXPECT_EQ(a.groups[g].area_cm2, b.groups[g].area_cm2);
    EXPECT_EQ(a.groups[g].static_mw, b.groups[g].static_mw);
    EXPECT_EQ(a.groups[g].dynamic_mw, b.groups[g].dynamic_mw);
    EXPECT_EQ(a.groups[g].glitch_mw, b.groups[g].glitch_mw);
  }
  expect_stats_equal(a.pre_opt_stats, b.pre_opt_stats);
  expect_stats_equal(a.post_opt_stats, b.post_opt_stats);
  EXPECT_EQ(a.opt_flow, b.opt_flow);
  EXPECT_EQ(a.opt_cost_probes, b.opt_cost_probes);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.verified_samples, b.verified_samples);
  EXPECT_EQ(a.verified_mismatches, b.verified_mismatches);
}

}  // namespace pml::testutil
