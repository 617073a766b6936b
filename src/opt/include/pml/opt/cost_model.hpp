#pragma once
// Hardware cost models that price candidate modules for opt::optimize().
//
// The point of scoring candidate modules *inside* the optimization loop
// (rather than trusting cell count) is that the two real objectives —
// area and switching energy — disagree: PR 4's area-minimal netlist
// glitches more than the raw one.  SwitchingEnergyCost replays a short
// caller-supplied probe workload (one sample per lane of a 64-lane
// sim::BatchEventSimulator) and prices a candidate by measured
// transitions x per-cell switch energy x fanout load (+ clock energy) —
// the same glitch-aware figure power::estimate reports, minus the
// period-dependent scaling that cancels between candidates.
//
// A sequential probe's clock cycles are split into kProbeSegments
// contiguous segments run side by side on the shared util::TaskPool.
// Segment 0 replays from power-on as an unsplit probe would.  Segment k
// starts from the state after the cycles before it: one pass of the
// zero-delay sim::BatchSimulator, from reset on the same probe rows,
// snapshots every segment start, and segment k's event engine adopts its
// snapshot to count its own cycles.  A word-for-word seam check (segment
// k-1's end state against segment k's snapshot) guards the join, and any
// difference re-runs the probe unsplit, so the summed counts, and every
// cost, equal a one-engine replay of all cycles bit for bit
// (tests/test_opt_probe.cpp).
//
// Cost models must be deterministic in the module alone (the accept /
// reject trace of a cost-driven recipe is part of the reproducibility
// contract, tested in tests/test_opt_passes.cpp).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pml/cells/library.hpp"
#include "pml/netlist/module.hpp"

namespace pml::opt {

/// Scalar figure of demerit for a candidate module; lower is better.
class CostModel {
 public:
  virtual ~CostModel() = default;
  /// Must be deterministic in `m` alone and side-effect free.
  [[nodiscard]] virtual double cost(const netlist::Module& m) const = 0;
};

/// Cell count — the PR 4 objective, and the fallback when no workload is
/// available to probe with.
class CellCountCost final : public CostModel {
 public:
  [[nodiscard]] double cost(const netlist::Module& m) const override;
};

/// A short stimulus for probing candidate modules: per-sample raw codes
/// for every input port, aligned with Module::input_ports() order (the
/// optimization passes preserve port identity, so one probe serves every
/// candidate derived from the same design).
struct ProbeWorkload {
  /// samples[i][p] = unsigned raw code driven into input port p.  At most
  /// the first BatchEventSimulator::kLanes samples are used (one lane
  /// each).
  std::vector<std::vector<std::uint64_t>> samples;
  /// Clock cycles per sample for sequential circuits; <= 0 settles once
  /// (combinational).
  int cycles_per_inference = 1;
};

/// Segments a sequential probe's cycles are split into (fewer when the
/// probe has fewer cycles): the probing thread and one pool worker.  On
/// the dse-sweep benchmark (4-core AVX-512 host) four segments ran no
/// faster than two and held more engines at once (peak RSS +2-12%).
inline constexpr std::size_t kProbeSegments = 2;

/// Measured switching energy (nJ) of one probe replay, glitches included.
class SwitchingEnergyCost final : public CostModel {
 public:
  /// `lib` is borrowed and must outlive the model.  Throws
  /// std::invalid_argument on an empty probe.
  SwitchingEnergyCost(const cells::CellLibrary& lib, ProbeWorkload probe,
                      double time_quantum_ms = 0.02);

  [[nodiscard]] double cost(const netlist::Module& m) const override;

 private:
  const cells::CellLibrary& lib_;
  ProbeWorkload probe_;
  double time_quantum_ms_;
};

}  // namespace pml::opt
