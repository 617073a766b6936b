#pragma once
// Full Table I regeneration: every dataset x every model, plus the
// aggregate claims (average energy improvement, accuracy deltas, battery
// feasibility).

#include <cstdint>
#include <vector>

#include "pml/cells/library.hpp"
#include "pml/core/hardware_report.hpp"
#include "pml/ml/synthetic_datasets.hpp"
#include "pml/sim/backend.hpp"

namespace pml::core {

struct Table1Options {
  std::uint64_t data_seed = ml::kDefaultDataSeed;
  std::uint64_t train_seed = 7;
  /// Datasets to run (empty = all five).
  std::vector<ml::UciProfile> profiles;
  /// Event-sim samples per design (power estimation).
  std::size_t power_samples = 96;
  /// Worker threads for the verify and power-replay fan-outs, and whether
  /// each dataset's four designs build concurrently on the shared pool
  /// (0 = one per hardware thread, designs concurrent; 1 = everything
  /// serial).  Rows and summary do not depend on it.  Benches pin this
  /// for reproducible traces.
  std::size_t num_threads = 0;
  /// Run the three baselines too (true for Table I; the flow alone needs
  /// only "Ours").
  bool include_baselines = true;
  /// Optimization flow recipe for the "Ours" designs ("area", "energy",
  /// "balanced", "none", "best"); empty keeps the default.  The baselines
  /// always use their published (area-driven) flow.
  std::string flow;
  /// SIMD lane-word backend of every evaluation's verify phase in the
  /// table (ours and baselines; see EvaluateOptions::backend).  Results
  /// are backend-invariant; benches pin this to compare throughput.
  sim::Backend backend = sim::Backend::kAuto;
};

struct Table1Summary {
  double ours_peak_power_mw = 0.0;
  double ours_avg_power_mw = 0.0;
  double ours_avg_energy_mj = 0.0;
  /// Ratio of summed baseline energy to summed "ours" energy over the
  /// datasets where the baseline exists — the paper's aggregation (it
  /// quotes ours' *average* energy of 2.46 mJ and 10.6x/5.4x/3.46x gains;
  /// both follow from sums, not means of per-dataset ratios).
  double energy_gain_vs_svm2 = 0.0;
  double energy_gain_vs_svm3 = 0.0;
  double energy_gain_vs_mlp4 = 0.0;
  double energy_gain_overall = 0.0;
  /// Mean accuracy delta (ours - baseline), percentage points.
  double acc_delta_vs_svm2 = 0.0;
  double acc_delta_vs_svm3 = 0.0;
  double acc_delta_vs_mlp4 = 0.0;
  /// Battery feasibility under the Molex 30 mW budget.
  int ours_feasible = 0;
  int ours_total = 0;
  int sota_feasible = 0;
  int sota_total = 0;
};

struct Table1Result {
  std::vector<HardwareReport> rows;
  Table1Summary summary;
};

/// Regenerate Table I.  Each dataset is synthesized, split 80/20,
/// normalized, then pushed through our flow and the three baselines.
[[nodiscard]] Table1Result run_table1(const cells::CellLibrary& lib,
                                      const Table1Options& options = {});

/// Per-dataset baseline MLP configuration (mirrors the tiny, aggressively
/// approximated nets of TC'23: two hidden neurons and 4-bit inputs for the
/// wines, ten hidden neurons and 6-bit arithmetic for PenDigits).
struct MlpBaselineOptions;  // defined in baselines.hpp
[[nodiscard]] MlpBaselineOptions mlp_baseline_options_for(
    ml::UciProfile profile);

}  // namespace pml::core
