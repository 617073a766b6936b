#include <queue>
#include <tuple>

#include "pass_common.hpp"
#include "pml/sim/levelize.hpp"

namespace pml::opt {

using detail::Subst;
using netlist::Cell;
using netlist::CellType;
using netlist::NetId;

namespace {

constexpr bool is_tree_type(CellType t) {
  return t == CellType::kAnd2 || t == CellType::kOr2 || t == CellType::kXor2;
}

/// (depth, insertion sequence, net): the min-heap ordering that makes the
/// greedy pairing deterministic.
using Node = std::tuple<std::uint32_t, std::uint32_t, NetId>;
using MinHeap = std::priority_queue<Node, std::vector<Node>, std::greater<>>;

}  // namespace

// The glitch-attacking restructuring pass.  Area-driven melting leaves the
// surviving logic as skewed chains (e.g. AND(AND(AND(a,b),c),d)): inputs
// arrive at very different times, so every node re-evaluates per arrival
// and sprays glitch transitions down its cone.  AND/OR/XOR are
// associative and commutative, so a maximal single-fanout same-type tree
// can be re-paired into balanced form: leaves of equal arrival depth meet
// at the same level, edges arrive together, and both the glitch count and
// the critical path shrink.
//
// Mechanics: trees are discovered statically (root = same-type cell whose
// output is *not* the sole input of another same-type cell; interiors =
// single-fanout same-type drivers, recursively).  A tree is rebuilt only
// when greedy shallowest-first pairing (optimal for the max depth) gives
// a strictly smaller root depth than the current shape — which both skips
// already-balanced trees and guarantees the pass reaches a fixpoint,
// since unit depths are non-negative integers that strictly decrease.
// Rebuilding creates exactly leaves-1 cells via add_gate_raw (no
// creation-time CSE, so no risk of aliasing a cell this very pass is
// retiring) while killing the root plus leaves-2 interiors: cell count is
// unchanged, only the shape moves.  Bit-exactness is pure associativity /
// commutativity, proven lane by lane in tests/test_opt_passes.cpp.
PassDelta rebalance_trees(netlist::Module& m) {
  PassDelta delta{.pass = "rebalance-trees"};
  const sim::Levelization lv = sim::levelize(m);
  const std::vector<std::int32_t> driver = m.driver_map();
  const std::vector<std::uint32_t> fanout = m.fanout_counts();
  const std::size_t original_cells = m.cells().size();

  // True when `net` is the output of a live same-type cell whose *only*
  // reader is one cell pin (no port reads) — an interior of the tree
  // being expanded.
  auto interior_driver = [&](NetId net, CellType type, std::size_t& cell) {
    if (net >= driver.size() || driver[net] < 0) return false;
    if (fanout[net] != 1 || lv.fanout(net).empty()) return false;
    const auto di = static_cast<std::size_t>(driver[net]);
    if (m.cells()[di].type != type) return false;
    cell = di;
    return true;
  };

  struct Tree {
    std::size_t root;
    std::vector<std::size_t> interiors;
    std::vector<NetId> leaves;  ///< deterministic DFS order
  };
  std::vector<Tree> trees;

  // Phase 1 (static discovery, no mutation): find every improvable tree.
  for (std::size_t i = 0; i < original_cells; ++i) {
    const Cell& c = m.cells()[i];
    if (!is_tree_type(c.type)) continue;
    // Skip interiors (single-fanout cells whose lone reader is a
    // same-type gate): they belong to their reader's tree.
    if (fanout[c.out] == 1 && !lv.fanout(c.out).empty() &&
        m.cells()[lv.fanout(c.out)[0]].type == c.type) {
      continue;
    }

    Tree tree{.root = i, .interiors = {}, .leaves = {}};
    std::vector<NetId> stack{c.in[1], c.in[0]};  // visit in[0] first
    while (!stack.empty()) {
      const NetId n = stack.back();
      stack.pop_back();
      std::size_t di = 0;
      if (interior_driver(n, c.type, di) && di != i) {
        tree.interiors.push_back(di);
        stack.push_back(m.cells()[di].in[1]);
        stack.push_back(m.cells()[di].in[0]);
      } else {
        tree.leaves.push_back(n);
      }
    }
    if (tree.leaves.size() < 3) continue;

    // Greedy shallowest-first pairing: the minimal achievable root depth.
    MinHeap heap;
    std::uint32_t seq = 0;
    for (const NetId leaf : tree.leaves) {
      heap.emplace(lv.net_depth[leaf], seq++, leaf);
    }
    while (heap.size() > 1) {
      const Node a = heap.top();
      heap.pop();
      const Node b = heap.top();
      heap.pop();
      heap.emplace(std::max(std::get<0>(a), std::get<0>(b)) + 1, seq++,
                   netlist::kInvalidNet);
    }
    const std::uint32_t balanced_depth = std::get<0>(heap.top());
    if (balanced_depth >= lv.net_depth[c.out]) continue;  // already optimal
    trees.push_back(std::move(tree));
  }

  if (trees.empty()) return delta;

  // Phase 2: rebuild each tree.  Leaves are never outputs of killed
  // interiors (an interior's only reader is inside its own tree), and a
  // leaf that is another tree's *root* output is fixed up by the final
  // apply_rewrite, which resolves every kept cell pin through the
  // substitution — including the cells created here.
  Subst sub(m.num_nets());
  std::vector<bool> keep(original_cells, true);
  for (const Tree& tree : trees) {
    const Cell root_cell = m.cells()[tree.root];
    m.begin_group(m.group_names()[root_cell.group]);
    MinHeap heap;
    std::uint32_t seq = 0;
    for (const NetId leaf : tree.leaves) {
      heap.emplace(lv.net_depth[leaf], seq++, leaf);
    }
    while (heap.size() > 1) {
      const Node a = heap.top();
      heap.pop();
      const Node b = heap.top();
      heap.pop();
      const NetId joined =
          m.add_gate_raw(root_cell.type, std::get<2>(a), std::get<2>(b));
      ++delta.cells_added;
      heap.emplace(std::max(std::get<0>(a), std::get<0>(b)) + 1, seq++,
                   joined);
    }
    m.end_group();
    sub.grow(m.num_nets());  // the rebuilt tree's nets are redirect targets
    sub.redirect(root_cell.out, std::get<2>(heap.top()));
    detail::kill(m, keep, tree.root, delta);
    for (const std::size_t ci : tree.interiors) {
      detail::kill(m, keep, ci, delta);
    }
  }

  detail::finish(m, delta, sub, std::move(keep));
  return delta;
}

}  // namespace pml::opt
