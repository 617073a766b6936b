#pragma once
// Topological ordering of the combinational subgraph.
//
// Shared by the cycle simulator (evaluation order), the event simulators
// (consistent initialization, the scalar oracle's fanout wake lists and
// the waveform engine's sweep order), the timing analyzer (longest-path
// DP) and the power model (fanout loads).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pml/netlist/module.hpp"
#include "pml/util/arena.hpp"

namespace pml::sim {

struct Levelization {
  /// Indices of combinational cells in a valid evaluation order
  /// (depth-major: every depth-d cell before any depth-(d+1) cell).
  std::vector<std::uint32_t> comb_order;
  /// The same cells in a depth-first post-order: each cell follows every
  /// driver of its input nets (all of them, where a net has several), and
  /// the roots are taken in descending cell order, so the search starts
  /// from the outputs generators build last.  A value is thus produced
  /// shortly before its readers run, which is what keeps the waveform
  /// engine's (BatchEventSimulatorT) live transition lists few.
  std::vector<std::uint32_t> wave_order;
  /// Indices of all DFF cells.
  std::vector<std::uint32_t> dffs;
  /// Logic depth (number of combinational cells on the longest path feeding
  /// each net); constants/PIs/DFF outputs have depth 0.
  std::vector<std::uint32_t> net_depth;
  /// Fanout in CSR form: the cells reading net n are
  /// fanout_cells[fanout_offsets[n] .. fanout_offsets[n + 1]), in
  /// ascending cell order.  One flat array for every net keeps the event
  /// engines' wake loop on contiguous memory and costs one allocation,
  /// not one per net.
  std::vector<std::uint32_t> fanout_offsets;  ///< num_nets + 1 entries
  std::vector<std::uint32_t> fanout_cells;
  /// Maximum combinational depth over all nets.
  std::uint32_t max_depth = 0;

  /// The cells reading `net`, in ascending cell order.
  [[nodiscard]] std::span<const std::uint32_t> fanout(
      netlist::NetId net) const {
    return {fanout_cells.data() + fanout_offsets[net],
            fanout_cells.data() + fanout_offsets[net + 1]};
  }
};

/// Compute the levelization.  Throws std::runtime_error on combinational
/// cycles (Module::validate reports them more descriptively).
[[nodiscard]] Levelization levelize(const netlist::Module& module);

/// Allocation-free form: overwrite `lv` in place, reusing its vector
/// capacities, with all transient working memory
/// (driver map, indegrees, ready stack, depth-sort counters, DFS stack)
/// drawn from `scratch`.  Produces exactly the levelization levelize()
/// returns — including the deterministic comb_order and wave_order — but
/// repeated calls on same-shaped modules perform zero heap allocation once
/// the storage and arena are warm (core::EvalContext's steady state).  The
/// caller owns resetting `scratch`; this function only bump-allocates.
void levelize_into(const netlist::Module& module, Levelization& lv,
                   util::Arena& scratch);

/// Shared-ownership levelization, for passing one derivation to several
/// simulators (e.g. the batch-verification workers of core::verify_workload
/// and the event simulator of the same evaluate_circuit call).
[[nodiscard]] std::shared_ptr<const Levelization> levelize_shared(
    const netlist::Module& module);

}  // namespace pml::sim
