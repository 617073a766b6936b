#pragma once
// Gate-level module: the central IR of the flow.
//
// A Module is a flat netlist of primitive cells over integer-indexed nets.
// Nets 0/1 are constant 0/1; primary inputs and outputs are named, ordered
// bit-vector ports (LSB first).  Cells carry a GroupId so analyses can
// report per-component breakdowns (control / storage / compute / voter).
//
// The Module performs *peephole constant folding* when gates are created:
// a MUX2 whose data inputs are both constants collapses to a constant, a
// buffer, or an inverter.  This is what makes "bespoke" hardware cheap —
// hardwired coefficients melt most of the storage and multiplier logic
// away, exactly as logic synthesis does for the paper's circuits.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "pml/netlist/types.hpp"

namespace pml::netlist {

/// One primitive cell instance.
struct Cell {
  CellType type = CellType::kBuf;
  NetId in[3] = {kInvalidNet, kInvalidNet, kInvalidNet};
  NetId out = kInvalidNet;
  GroupId group = kDefaultGroup;
  bool dff_init = false;  ///< power-on state (kDff only)
};

/// A named, ordered group of nets (LSB first).
struct Port {
  std::string name;
  std::vector<NetId> nets;
};

/// Per-type / per-group cell statistics.
struct ModuleStats {
  std::size_t num_cells = 0;
  std::size_t num_nets = 0;
  std::size_t num_dffs = 0;
  std::size_t counts_by_type[kNumCellTypes] = {};
  /// counts_by_group[group][type]
  std::vector<std::vector<std::size_t>> counts_by_group;
};

/// Fraction of cells removed between two stats snapshots (0 when `before`
/// was empty); shared by opt::OptReport and core::HardwareReport.
[[nodiscard]] inline double cell_reduction(const ModuleStats& before,
                                           const ModuleStats& after) {
  if (before.num_cells == 0) return 0.0;
  return 1.0 - static_cast<double>(after.num_cells) /
                   static_cast<double>(before.num_cells);
}

class Module {
 public:
  explicit Module(std::string name = "top");

  [[nodiscard]] const std::string& name() const { return name_; }

  // --- nets -------------------------------------------------------------
  [[nodiscard]] NetId new_net();
  [[nodiscard]] std::vector<NetId> new_nets(int count);
  [[nodiscard]] std::size_t num_nets() const { return num_nets_; }

  // --- component groups ---------------------------------------------------
  /// Returns the id for `name`, creating it on first use, and makes it the
  /// group assigned to subsequently created cells.
  GroupId begin_group(const std::string& name);
  /// Restore the default group.
  void end_group() { current_group_ = kDefaultGroup; }
  [[nodiscard]] const std::vector<std::string>& group_names() const {
    return group_names_;
  }

  // --- cells --------------------------------------------------------------
  /// Create a combinational gate driving a fresh net; returns that net.
  /// Constant inputs are folded (e.g. AND(x, 0) returns kConst0 and creates
  /// no cell); duplicate structural gates are shared (light CSE).
  NetId add_gate(CellType type, NetId a, NetId b = kInvalidNet,
                 NetId s = kInvalidNet);

  // Convenience wrappers.
  NetId inv(NetId a) { return add_gate(CellType::kInv, a); }
  NetId buf(NetId a) { return add_gate(CellType::kBuf, a); }
  NetId nand2(NetId a, NetId b) { return add_gate(CellType::kNand2, a, b); }
  NetId nor2(NetId a, NetId b) { return add_gate(CellType::kNor2, a, b); }
  NetId and2(NetId a, NetId b) { return add_gate(CellType::kAnd2, a, b); }
  NetId or2(NetId a, NetId b) { return add_gate(CellType::kOr2, a, b); }
  NetId xor2(NetId a, NetId b) { return add_gate(CellType::kXor2, a, b); }
  NetId xnor2(NetId a, NetId b) { return add_gate(CellType::kXnor2, a, b); }
  /// out = s ? d1 : d0
  NetId mux2(NetId d0, NetId d1, NetId s) {
    return add_gate(CellType::kMux2, d0, d1, s);
  }

  /// Instantiate a gate with *no* folding and *no* structural sharing.
  /// Used where the physical structure is the point — e.g. the interior
  /// levels of bespoke MUX storage trees, which synthesis keeps as real
  /// multiplexers even though their leaves are hardwired.
  NetId add_gate_raw(CellType type, NetId a, NetId b = kInvalidNet,
                     NetId s = kInvalidNet);
  /// D flip-flop with power-on value `init`; returns the Q net.
  NetId dff(NetId d, bool init = false);

  /// Drive the pre-allocated, so-far-undriven net `target` from `src` via a
  /// buffer cell.  This is how sequential feedback loops are closed: create
  /// a fresh net, feed it to a DFF, build the next-state logic from the Q
  /// output, then drive the fresh net with the next-state value.
  void drive_net(NetId target, NetId src);

  [[nodiscard]] const std::vector<Cell>& cells() const { return cells_; }

  // --- ports ----------------------------------------------------------------
  /// Create `width` fresh nets registered as a primary-input port.
  std::vector<NetId> add_input_port(const std::string& name, int width);
  /// Register existing nets as a primary-output port.
  void add_output_port(const std::string& name, std::vector<NetId> nets);

  [[nodiscard]] const std::vector<Port>& input_ports() const { return inputs_; }
  [[nodiscard]] const std::vector<Port>& output_ports() const {
    return outputs_;
  }
  [[nodiscard]] const Port* find_input(const std::string& name) const;
  [[nodiscard]] const Port* find_output(const std::string& name) const;

  // --- analysis support -----------------------------------------------------
  /// Index of the cell driving each net, or -1 for constants/PIs.
  [[nodiscard]] std::vector<std::int32_t> driver_map() const;
  /// Same, written into caller-owned storage of at least num_nets()
  /// entries (throws std::invalid_argument otherwise) — the
  /// allocation-free form used by sim::levelize_into's arena scratch.
  void driver_map_into(std::span<std::int32_t> out) const;
  /// Readers per net, counting both cell input pins and output-port bits
  /// (so a net that only feeds a port still shows a nonzero fanout).
  [[nodiscard]] std::vector<std::uint32_t> fanout_counts() const;
  /// True if `net` is a primary input net.
  [[nodiscard]] bool is_primary_input(NetId net) const;

  // --- optimizer support ----------------------------------------------------
  /// Mutable access to one cell, for in-place rewrites by pml::opt passes
  /// (e.g. retyping NAND2(a,a) to INV(a)).  Callers own the invariants;
  /// run validate() (the optimizer does, in debug builds) after mutating.
  [[nodiscard]] Cell& cell_mut(std::size_t index) { return cells_[index]; }

  struct RewriteStats {
    std::size_t cells_removed = 0;
    std::size_t nets_removed = 0;
  };
  /// Net-rewrite + compaction primitive for optimization passes.
  ///
  /// `net_map[n]` names the net to be read wherever `n` was read (identity
  /// for unaffected nets; chains are resolved transitively); cells with
  /// `keep_cell[i] == false` are deleted.  Afterwards every net no longer
  /// referenced by a surviving cell pin, input port, or (remapped) output
  /// port is dropped and the remaining nets are renumbered densely, in
  /// their original order, so the result is deterministic.  Ports keep
  /// their names, widths, and order; cells keep their group tags.
  ///
  /// Outstanding NetIds other than the ports' are invalidated; the
  /// structural-hash table of add_gate is reset (gates added afterwards
  /// no longer share with pre-rewrite cells).
  RewriteStats apply_rewrite(std::vector<NetId> net_map,
                             const std::vector<bool>& keep_cell);

  [[nodiscard]] ModuleStats stats() const;
  /// Stats into a reused record: every vector is overwritten via
  /// capacity-retaining assignment, so repeated calls on same-shaped
  /// modules allocate nothing after the first.
  void stats_into(ModuleStats& out) const;

  /// Structural sanity check; returns an error description or nullopt.
  /// Verified: every cell input is driven (constant, PI, or cell output),
  /// single driver per net, no combinational cycles, ports well-formed.
  [[nodiscard]] std::optional<std::string> validate() const;

 private:
  [[nodiscard]] std::optional<NetId> fold(CellType type, NetId a, NetId b,
                                          NetId s);

  std::string name_;
  std::size_t num_nets_ = 2;  // nets 0 and 1 are the constants
  std::vector<Cell> cells_;
  std::vector<Port> inputs_;
  std::vector<Port> outputs_;
  std::vector<std::string> group_names_{"default"};
  GroupId current_group_ = kDefaultGroup;
  std::vector<bool> pi_nets_;  // indexed by NetId, true if primary input
  // Structural hashing for combinational gates: key packs type+inputs.
  std::unordered_map<std::uint64_t, NetId> cse_;
};

}  // namespace pml::netlist
