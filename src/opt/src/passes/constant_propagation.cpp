#include "pass_common.hpp"

namespace pml::opt {

using detail::Subst;
using netlist::Cell;
using netlist::CellType;
using netlist::kConst0;
using netlist::kConst1;
using netlist::kInvalidNet;
using netlist::NetId;

// Forward propagation of constants and single-cell algebraic identities
// through combinational cells and DFFs.  Rules either dissolve a cell into
// an existing net (kill + redirect) or retype it in place to a strictly
// simpler cell; repeated sweeps run until no rule fires, so constants flow
// through arbitrarily deep cones (and DFF chains, across a recipe's
// fixpoint sweeps) without requiring topological order.
PassDelta propagate_constants(netlist::Module& m) {
  PassDelta delta{.pass = "constant-propagation"};
  Subst sub(m.num_nets());
  std::vector<bool> keep(m.cells().size(), true);

  bool again = true;
  while (again) {
    again = false;
    for (std::size_t i = 0; i < m.cells().size(); ++i) {
      if (!keep[i]) continue;
      Cell& c = m.cell_mut(i);
      const NetId a = sub.resolve(c.in[0]);
      const NetId b = c.in[1] == kInvalidNet ? kInvalidNet : sub.resolve(c.in[1]);
      const NetId s = c.in[2] == kInvalidNet ? kInvalidNet : sub.resolve(c.in[2]);
      const bool a0 = a == kConst0, a1 = a == kConst1;
      const bool b0 = b == kConst0, b1 = b == kConst1;

      // `repl != kInvalidNet` dissolves the cell into that net.  The
      // value-equals-an-existing-net identities come from the shared
      // netlist::fold_to_existing table (the same one add_gate folds
      // with at creation time); what remains here are the rules that
      // need a gate — expressed as in-place *retypes*, since this pass
      // never creates cells.
      NetId repl = kInvalidNet;
      if (const auto existing = netlist::fold_to_existing(c.type, a, b, s)) {
        repl = *existing;
      }
      auto retype = [&](CellType type, NetId x, NetId y = kInvalidNet) {
        c.type = type;
        c.in[0] = x;
        c.in[1] = y;
        c.in[2] = kInvalidNet;
        ++delta.cells_retyped;
        again = true;
      };

      if (repl == kInvalidNet) {
        switch (c.type) {
          case CellType::kNand2:
            if (a1) retype(CellType::kInv, b);
            else if (b1) retype(CellType::kInv, a);
            else if (a == b) retype(CellType::kInv, a);
            break;
          case CellType::kNor2:
            if (a0) retype(CellType::kInv, b);
            else if (b0) retype(CellType::kInv, a);
            else if (a == b) retype(CellType::kInv, a);
            break;
          case CellType::kXor2:
            if (a1) retype(CellType::kInv, b);
            else if (b1) retype(CellType::kInv, a);
            break;
          case CellType::kXnor2:
            if (a0) retype(CellType::kInv, b);
            else if (b0) retype(CellType::kInv, a);
            break;
          case CellType::kMux2:
            if (a1 && b0) retype(CellType::kInv, s);
            else if (a0 || a == s) retype(CellType::kAnd2, s, b);  // s ? b : 0
            else if (b1 || b == s) retype(CellType::kOr2, s, a);   // s ? 1 : a
            break;
          case CellType::kDff: {
            const NetId init_net = c.dff_init ? kConst1 : kConst0;
            // D tied to the power-on value, or fed back from Q: the
            // state can never change, so Q is that constant from cycle 0.
            if (a == init_net || a == c.out) repl = init_net;
            break;
          }
          default:
            break;
        }
      }

      if (repl != kInvalidNet) {
        sub.redirect(c.out, repl);
        detail::kill(m, keep, i, delta);
        again = true;
      }
    }
  }

  if (delta.changed() || detail::any_killed(keep)) {
    detail::finish(m, delta, sub, std::move(keep));
  }
  return delta;
}

}  // namespace pml::opt
