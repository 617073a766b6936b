#include "pml/netlist/module.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pml::netlist {

namespace {

bool is_commutative(CellType type) {
  switch (type) {
    case CellType::kNand2:
    case CellType::kNor2:
    case CellType::kAnd2:
    case CellType::kOr2:
    case CellType::kXor2:
    case CellType::kXnor2:
      return true;
    default:
      return false;
  }
}

constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

// Pack (type, a, b, s) into a structural-hashing key.  Net ids must fit in
// 20 bits each; designs beyond that simply skip CSE for the offending gate.
std::uint64_t make_key(CellType type, NetId a, NetId b, NetId s) {
  constexpr NetId kLimit = 1u << 20;
  const NetId bb = (b == kInvalidNet) ? kLimit - 1 : b;
  const NetId ss = (s == kInvalidNet) ? kLimit - 1 : s;
  if (a >= kLimit - 1 || bb >= kLimit || ss >= kLimit) return kNoKey;
  return (static_cast<std::uint64_t>(type) << 60) |
         (static_cast<std::uint64_t>(a) << 40) |
         (static_cast<std::uint64_t>(bb) << 20) | static_cast<std::uint64_t>(ss);
}

}  // namespace

Module::Module(std::string name) : name_(std::move(name)) {}

NetId Module::new_net() {
  const auto id = static_cast<NetId>(num_nets_++);
  return id;
}

std::vector<NetId> Module::new_nets(int count) {
  std::vector<NetId> nets;
  nets.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) nets.push_back(new_net());
  return nets;
}

GroupId Module::begin_group(const std::string& name) {
  for (std::size_t i = 0; i < group_names_.size(); ++i) {
    if (group_names_[i] == name) {
      current_group_ = static_cast<GroupId>(i);
      return current_group_;
    }
  }
  group_names_.push_back(name);
  current_group_ = static_cast<GroupId>(group_names_.size() - 1);
  return current_group_;
}

std::optional<NetId> Module::fold(CellType type, NetId a, NetId b, NetId s) {
  // Buffers are free in the IR (loading is modelled by fanout); all other
  // "value equals an existing net" identities live in fold_to_existing,
  // shared with opt::propagate_constants.  What remains here are the
  // rules that *create* gates, which only the Module can do.
  if (auto existing = fold_to_existing(type, a, b, s)) return existing;
  const bool a0 = (a == kConst0), a1 = (a == kConst1);
  const bool b0 = (b == kConst0), b1 = (b == kConst1);
  switch (type) {
    case CellType::kNand2:
      if (a1) return inv(b);
      if (b1) return inv(a);
      if (a == b) return inv(a);
      return std::nullopt;
    case CellType::kNor2:
      if (a0) return inv(b);
      if (b0) return inv(a);
      if (a == b) return inv(a);
      return std::nullopt;
    case CellType::kXor2:
      if (a1) return inv(b);
      if (b1) return inv(a);
      return std::nullopt;
    case CellType::kXnor2:
      if (a0) return inv(b);
      if (b0) return inv(a);
      return std::nullopt;
    case CellType::kMux2:
      // Hardwired data inputs: the heart of bespoke storage folding.
      if (a1 && b0) return inv(s);
      if (a0) return and2(s, b);
      if (a1) return or2(inv(s), b);
      if (b0) return and2(inv(s), a);
      if (b1) return or2(s, a);
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

NetId Module::add_gate(CellType type, NetId a, NetId b, NetId s) {
  assert(type != CellType::kDff && "use Module::dff for flip-flops");
  [[maybe_unused]] const int arity = cell_num_inputs(type);
  assert(a != kInvalidNet);
  assert(arity < 2 || b != kInvalidNet);
  assert(arity < 3 || s != kInvalidNet);
  assert(a < num_nets_);
  assert(arity < 2 || b < num_nets_);
  assert(arity < 3 || s < num_nets_);

  if (auto folded = fold(type, a, b, s)) return *folded;
  if (is_commutative(type) && a > b) std::swap(a, b);

  const std::uint64_t key = make_key(type, a, b, s);
  if (key != kNoKey) {
    if (auto it = cse_.find(key); it != cse_.end()) return it->second;
  }

  Cell cell;
  cell.type = type;
  cell.in[0] = a;
  cell.in[1] = b;
  cell.in[2] = s;
  cell.out = new_net();
  cell.group = current_group_;
  cells_.push_back(cell);
  if (key != kNoKey) cse_.emplace(key, cell.out);
  return cell.out;
}

NetId Module::add_gate_raw(CellType type, NetId a, NetId b, NetId s) {
  assert(type != CellType::kDff && "use Module::dff for flip-flops");
  const int arity = cell_num_inputs(type);
  assert(a != kInvalidNet && a < num_nets_);
  assert(arity < 2 || (b != kInvalidNet && b < num_nets_));
  assert(arity < 3 || (s != kInvalidNet && s < num_nets_));
  (void)arity;
  Cell cell;
  cell.type = type;
  cell.in[0] = a;
  cell.in[1] = b;
  cell.in[2] = s;
  cell.out = new_net();
  cell.group = current_group_;
  cells_.push_back(cell);
  return cell.out;
}

NetId Module::dff(NetId d, bool init) {
  assert(d != kInvalidNet && d < num_nets_);
  Cell cell;
  cell.type = CellType::kDff;
  cell.in[0] = d;
  cell.out = new_net();
  cell.group = current_group_;
  cell.dff_init = init;
  cells_.push_back(cell);
  return cell.out;
}

void Module::drive_net(NetId target, NetId src) {
  assert(target != kInvalidNet && target < num_nets_);
  assert(src != kInvalidNet && src < num_nets_);
  assert(target != kConst0 && target != kConst1);
  assert(!is_primary_input(target));
  Cell cell;
  cell.type = CellType::kBuf;
  cell.in[0] = src;
  cell.out = target;
  cell.group = current_group_;
  cells_.push_back(cell);
}

std::vector<NetId> Module::add_input_port(const std::string& name, int width) {
  if (width <= 0) throw std::invalid_argument("port width must be positive");
  Port port;
  port.name = name;
  port.nets = new_nets(width);
  for (NetId n : port.nets) {
    if (pi_nets_.size() <= n) pi_nets_.resize(n + 1, false);
    pi_nets_[n] = true;
  }
  inputs_.push_back(port);
  return inputs_.back().nets;
}

void Module::add_output_port(const std::string& name, std::vector<NetId> nets) {
  for (NetId n : nets) {
    if (n == kInvalidNet || n >= num_nets_) {
      throw std::invalid_argument("output port references invalid net");
    }
  }
  outputs_.push_back(Port{name, std::move(nets)});
}

const Port* Module::find_input(const std::string& name) const {
  for (const auto& p : inputs_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const Port* Module::find_output(const std::string& name) const {
  for (const auto& p : outputs_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::vector<std::int32_t> Module::driver_map() const {
  std::vector<std::int32_t> drivers(num_nets_, -1);
  driver_map_into(drivers);
  return drivers;
}

void Module::driver_map_into(std::span<std::int32_t> out) const {
  if (out.size() < num_nets_) {
    throw std::invalid_argument("driver_map_into: output too small");
  }
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(num_nets_),
            std::int32_t{-1});
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    out[cells_[i].out] = static_cast<std::int32_t>(i);
  }
}

std::vector<std::uint32_t> Module::fanout_counts() const {
  std::vector<std::uint32_t> counts(num_nets_, 0);
  for (const Cell& c : cells_) {
    const int arity = cell_num_inputs(c.type);
    for (int k = 0; k < arity; ++k) ++counts[c.in[k]];
  }
  for (const Port& port : outputs_) {
    for (NetId n : port.nets) ++counts[n];
  }
  return counts;
}

bool Module::is_primary_input(NetId net) const {
  return net < pi_nets_.size() && pi_nets_[net];
}

Module::RewriteStats Module::apply_rewrite(std::vector<NetId> net_map,
                                           const std::vector<bool>& keep_cell) {
  if (net_map.size() != num_nets_ || keep_cell.size() != cells_.size()) {
    throw std::invalid_argument("apply_rewrite: map/keep size mismatch");
  }
  net_map[kConst0] = kConst0;
  net_map[kConst1] = kConst1;

  // Resolve substitution chains with path compression; a cycle in the map
  // is a pass bug (substituting a net for itself transitively).
  auto resolve = [&net_map](NetId n) {
    NetId root = n;
    std::size_t steps = 0;
    while (net_map[root] != root) {
      root = net_map[root];
      if (++steps > net_map.size()) {
        throw std::logic_error("apply_rewrite: substitution cycle");
      }
    }
    while (net_map[n] != root) {
      const NetId next = net_map[n];
      net_map[n] = root;
      n = next;
    }
    return root;
  };

  // 1. Drop cells and remap surviving cells' input pins.
  std::vector<Cell> kept;
  kept.reserve(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (!keep_cell[i]) continue;
    Cell c = cells_[i];
    const int arity = cell_num_inputs(c.type);
    for (int k = 0; k < arity; ++k) c.in[k] = resolve(c.in[k]);
    kept.push_back(c);
  }

  // 2. Remap output ports (input ports are net *defs*, never remapped).
  for (Port& port : outputs_) {
    for (NetId& n : port.nets) n = resolve(n);
  }

  // 3. Compact: keep constants, every input-port net (the port must
  //    survive even when unread), and every net referenced by a kept cell
  //    or remapped output port.
  std::vector<bool> used(num_nets_, false);
  used[kConst0] = used[kConst1] = true;
  for (const Port& port : inputs_) {
    for (NetId n : port.nets) used[n] = true;
  }
  for (const Cell& c : kept) {
    const int arity = cell_num_inputs(c.type);
    for (int k = 0; k < arity; ++k) used[c.in[k]] = true;
    used[c.out] = true;
  }
  for (const Port& port : outputs_) {
    for (NetId n : port.nets) used[n] = true;
  }

  std::vector<NetId> renum(num_nets_, kInvalidNet);
  NetId next_id = 0;
  for (std::size_t n = 0; n < num_nets_; ++n) {
    if (used[n]) renum[n] = next_id++;
  }

  for (Cell& c : kept) {
    const int arity = cell_num_inputs(c.type);
    for (int k = 0; k < arity; ++k) c.in[k] = renum[c.in[k]];
    c.out = renum[c.out];
  }
  for (Port& port : inputs_) {
    for (NetId& n : port.nets) n = renum[n];
  }
  for (Port& port : outputs_) {
    for (NetId& n : port.nets) n = renum[n];
  }
  std::vector<bool> pi(next_id, false);
  for (std::size_t n = 0; n < pi_nets_.size(); ++n) {
    if (pi_nets_[n] && renum[n] != kInvalidNet) pi[renum[n]] = true;
  }

  RewriteStats stats;
  stats.cells_removed = cells_.size() - kept.size();
  stats.nets_removed = num_nets_ - next_id;
  cells_ = std::move(kept);
  num_nets_ = next_id;
  pi_nets_ = std::move(pi);
  // Pre-rewrite structural hashes reference dead net ids; drop them (gates
  // added after a rewrite simply don't share with pre-rewrite cells).
  cse_.clear();
  return stats;
}

ModuleStats Module::stats() const {
  ModuleStats s;
  stats_into(s);
  return s;
}

void Module::stats_into(ModuleStats& s) const {
  s.num_cells = cells_.size();
  s.num_nets = num_nets_;
  s.num_dffs = 0;
  std::fill(std::begin(s.counts_by_type), std::end(s.counts_by_type), 0);
  // Shrink-then-clear-then-grow keeps every surviving inner vector's
  // capacity, so repeated stats on same-shaped modules never allocate.
  if (s.counts_by_group.size() > group_names_.size()) {
    s.counts_by_group.resize(group_names_.size());
  }
  for (auto& row : s.counts_by_group) row.assign(kNumCellTypes, 0);
  while (s.counts_by_group.size() < group_names_.size()) {
    s.counts_by_group.emplace_back(kNumCellTypes, 0);
  }
  for (const auto& c : cells_) {
    ++s.counts_by_type[static_cast<int>(c.type)];
    ++s.counts_by_group[c.group][static_cast<int>(c.type)];
    if (c.type == CellType::kDff) ++s.num_dffs;
  }
}

}  // namespace pml::netlist
