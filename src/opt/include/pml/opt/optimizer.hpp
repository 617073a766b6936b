#pragma once
// Post-generation netlist optimization — the stand-in for the logic-synthesis
// cleanup step of the paper's Synopsys DC flow.
//
// The generators fold constants *at gate creation time* (netlist::Module's
// peephole rules), but that single forward pass still leaves dead cells,
// duplicated subexpressions (notably the add_gate_raw MUX storage trees,
// which skip creation-time sharing by design), and buffer/inverter chains
// in the emitted circuit.  The passes here clean those up *after* the
// module is fully built, the way synthesis melts hardwired-coefficient
// logic away:
//
//   constant-propagation : constants and algebraic identities through
//                          gates and DFFs (a DFF whose D is tied to its
//                          power-on value is a constant);
//   buffer-chain-collapse: buffers and double inversions dissolve into
//                          wires; single-fanout inversions are pushed
//                          into the neighboring gate (NAND<->AND,
//                          XOR<->XNOR, MUX select swap, De Morgan);
//   structural-hash      : common-subexpression elimination over all
//                          cells, including add_gate_raw cells and DFFs
//                          sharing (D, power-on value);
//   rebalance-trees      : associative AND/OR/XOR trees are re-paired by
//                          input depth into balanced form — the
//                          glitch-attacking restructuring pass (melting
//                          skews paths; re-balancing re-aligns arrival
//                          times and shortens the critical path);
//   dead-sweep           : cells (and their nets) that no primary output
//                          transitively reads are deleted.
//
// Every pass preserves bit-exactness cycle for cycle, including power-on
// behavior — proven lane by lane against the unoptimized module with
// sim::BatchSimulator in tests/test_opt_passes.cpp.  Most passes only
// remove or retype cells; rebalance-trees also *creates* cells (one per
// pair of leaves it re-joins, exactly replacing the interior cells it
// retires), and only fires when it strictly reduces a tree's depth, so
// every pipeline still reaches a fixpoint.  The result is deterministic
// in the input module alone: cells are scanned in index order and
// surviving nets are renumbered densely in their original order — no
// iteration-order, pointer, or thread dependence.
//
// Pass *composition* is a flow decision: see pass_manager.hpp for the
// named flow recipes ("area", "energy", "balanced", "none"), each holding
// its passes.  optimize() runs one recipe (or "best" over all of them),
// accepting or rejecting the applications of a cost-driven recipe by a
// measured opt::CostModel.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pml/netlist/module.hpp"

namespace pml::opt {

/// Cell/DFF/net changes from one application of one pass.
struct PassDelta {
  std::string pass;
  std::size_t cells_removed = 0;
  std::size_t dffs_removed = 0;  ///< subset of cells_removed
  std::size_t nets_removed = 0;
  std::size_t cells_retyped = 0;  ///< in-place rewrites (NAND2(a,a) -> INV(a))
  std::size_t cells_added = 0;    ///< created by restructuring passes
  [[nodiscard]] bool changed() const {
    return cells_removed > 0 || nets_removed > 0 || cells_retyped > 0 ||
           cells_added > 0;
  }
};

// --- the individual passes (each sound on its own; see file comment) --------
[[nodiscard]] PassDelta propagate_constants(netlist::Module& m);
[[nodiscard]] PassDelta collapse_buffer_chains(netlist::Module& m);
[[nodiscard]] PassDelta hash_structural(netlist::Module& m);
[[nodiscard]] PassDelta rebalance_trees(netlist::Module& m);
[[nodiscard]] PassDelta sweep_dead(netlist::Module& m);

/// A named pass, as a flow recipe lists it.
struct Pass {
  std::string name;
  PassDelta (*run)(netlist::Module&) = nullptr;
};

struct OptOptions {
  /// Master switch: false makes optimize() a no-op (used by the
  /// optimizer-off legs of benches and the equivalence tests).
  bool enabled = true;
  /// Flow recipe applied by optimize(): a name from
  /// opt::standard_flows() ("area", "energy", "balanced", "none") or
  /// "best" to score every standard recipe with the cost model and keep
  /// the cheapest result.  Unknown names throw std::invalid_argument.
  std::string flow = "area";
};

/// Observability record for one pass across a whole recipe run:
/// where the optimization wall time and cost-model probes went.  The
/// timing fields are wall-clock (not part of any determinism contract);
/// the counts are deterministic in the module and cost model alone.
struct PassTiming {
  std::string pass;
  int applications = 0;  ///< times the pass ran (accepted + rejected)
  int accepted = 0;      ///< applications that changed the module and stuck
  int rejected = 0;      ///< applications reverted by the cost gate
  /// Wall time attributed to this pass, including the scratch-copy and
  /// cost-model probe of cost-gated applications (the real price of
  /// running the pass under that recipe).
  double seconds = 0.0;
  std::uint64_t cost_probes = 0;  ///< cost-model queries this pass caused
};

struct OptReport {
  netlist::ModuleStats before;
  netlist::ModuleStats after;
  /// One entry per pass application that changed the module, in order.
  std::vector<PassDelta> deltas;
  int iterations = 0;  ///< pipeline sweeps executed (last one is a no-op)
  /// Flow recipe that produced this report ("best" resolves to the name
  /// of the winning recipe).
  std::string recipe = "area";
  /// Cost-model probes of the input/output module; -1 when the run had
  /// no cost model attached.
  double cost_before = -1.0;
  double cost_after = -1.0;
  /// Pass applications a cost-driven recipe rejected (and reverted), in
  /// application order.
  std::vector<std::string> rejected;
  /// Per-pass wall time / application / accept / reject / probe counts in
  /// recipe order (every recipe pass appears, even if it never fired) —
  /// the profile behind "which pass is this recipe paying for".
  std::vector<PassTiming> pass_times;
  /// Total wall time of the optimize() call (seconds).
  double opt_seconds = 0.0;
  /// Total cost-model queries, including the initial/final module probes
  /// not attributable to one pass.
  std::uint64_t cost_probes = 0;

  /// Net cells removed, clamped at zero when the pipeline *grew* the
  /// module (restructuring passes can add cells); see cell_delta() for
  /// the signed change.
  [[nodiscard]] std::size_t cells_removed() const {
    return after.num_cells >= before.num_cells
               ? 0
               : before.num_cells - after.num_cells;
  }
  [[nodiscard]] std::size_t dffs_removed() const {
    return after.num_dffs >= before.num_dffs
               ? 0
               : before.num_dffs - after.num_dffs;
  }
  /// Signed cell-count change (negative = the module shrank).
  [[nodiscard]] std::ptrdiff_t cell_delta() const {
    return static_cast<std::ptrdiff_t>(after.num_cells) -
           static_cast<std::ptrdiff_t>(before.num_cells);
  }
  /// Fraction of cells removed (0 when the module was empty; negative
  /// when the module grew).
  [[nodiscard]] double cell_reduction() const {
    return netlist::cell_reduction(before, after);
  }
  /// Per-pass totals aggregated over all fixpoint sweeps, in first-seen
  /// pass order (the per-pass cell/DFF delta summary).
  [[nodiscard]] std::vector<PassDelta> totals_by_pass() const;
};

class CostModel;  // cost_model.hpp

/// Run the flow recipe named by `options.flow` on `m`.  `cost_model` is
/// consulted by cost-driven recipes and by flow "best"; when null those
/// fall back to the deterministic cell-count model.
OptReport optimize(netlist::Module& m, const OptOptions& options = {},
                   const CostModel* cost_model = nullptr);

}  // namespace pml::opt
