#pragma once
// Width-generic SWAR evaluation of one combinational cell: bit L of every
// lane word is lane L's logic value, so a gate evaluates for kWidth
// independent samples in a handful of machine ops.  The eval is templated
// on a LaneWord trait (sim/lanes.hpp): LaneU64 is the 64-lane scalar
// reference, LaneAvx2/LaneAvx512 widen the same code to 256/512 lanes in
// per-flag TUs.  Shared by the zero-delay BatchSimulatorT (and its
// stuck-at overlay, BatchFaultSimulatorT) and the delay-accurate
// BatchEventSimulatorT so all engines agree with netlist::eval_cell lane
// for lane by construction — along with the flattened Op-list layout and
// LaneState, the lane storage, power-on reset and port I/O they have in
// common.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "pml/netlist/module.hpp"
#include "pml/sim/lanes.hpp"
#include "pml/sim/levelize.hpp"

namespace pml::sim {

// Exhaustiveness check for the eval switches below: the cases enumerate
// every CellType (no default, so -Wswitch flags a forgotten case), and
// this assert turns a new cell type into a hard compile error here rather
// than a runtime throw in whichever backend first meets it.
static_assert(netlist::kNumCellTypes == 10,
              "new CellType: teach sim::eval_cell_lanes_w about it (every "
              "LaneWord backend inherits the fix at once)");

/// Evaluate `type` across all L::kWidth lanes.  `b`/`s` are ignored by
/// cells that do not read those pins (callers remap unused pins to the
/// constant-0 net, so the loads are always in bounds).  Throws
/// std::logic_error on sequential cells (kDff has no combinational
/// function; DFFs are clocked by the simulators themselves).
template <LaneWord L>
[[nodiscard]] inline typename L::Word eval_cell_lanes_w(netlist::CellType type,
                                                        typename L::Word a,
                                                        typename L::Word b,
                                                        typename L::Word s) {
  using netlist::CellType;
  switch (type) {
    case CellType::kInv:
      return L::bnot(a);
    case CellType::kBuf:
      return a;
    case CellType::kNand2:
      return L::bnot(L::band(a, b));
    case CellType::kNor2:
      return L::bnot(L::bor(a, b));
    case CellType::kAnd2:
      return L::band(a, b);
    case CellType::kOr2:
      return L::bor(a, b);
    case CellType::kXor2:
      return L::bxor(a, b);
    case CellType::kXnor2:
      return L::bnot(L::bxor(a, b));
    case CellType::kMux2:
      return L::bor(L::andnot(a, s), L::band(b, s));
    case CellType::kDff:
      break;
  }
  throw std::logic_error("eval_cell_lanes_w: not a combinational cell");
}

/// Compact per-cell evaluation record with the pin indirection flattened
/// out of netlist::Cell (better cache behaviour in the loops that
/// dominate batch-simulation time).  Unused pins are remapped to the
/// constant-0 net so every load in a hot loop is in bounds without
/// per-op pin-count branching.
struct SwarOp {
  netlist::CellType type;
  netlist::NetId a, b, s, out;
};
struct SwarDffOp {
  netlist::NetId d, q;
  std::uint64_t init;  ///< power-on value broadcast to all lanes
};

[[nodiscard]] inline SwarOp flatten_cell(const netlist::Cell& c) {
  return SwarOp{c.type,
                c.in[0] == netlist::kInvalidNet ? netlist::kConst0 : c.in[0],
                c.in[1] == netlist::kInvalidNet ? netlist::kConst0 : c.in[1],
                c.in[2] == netlist::kInvalidNet ? netlist::kConst0 : c.in[2],
                c.out};
}

/// Combinational cells in levelized evaluation order (BatchSimulatorT).
/// The `_into` forms overwrite a reused vector so pooled simulators
/// (rebind()) flatten without allocating once warm.
inline void swar_comb_ops_into(std::vector<SwarOp>& ops,
                               const netlist::Module& module,
                               const Levelization& lv) {
  ops.clear();
  ops.reserve(lv.comb_order.size());
  for (const std::uint32_t idx : lv.comb_order) {
    ops.push_back(flatten_cell(module.cells()[idx]));
  }
}

inline void swar_dff_ops_into(std::vector<SwarDffOp>& dffs,
                              const netlist::Module& module,
                              const Levelization& lv) {
  dffs.clear();
  dffs.reserve(lv.dffs.size());
  for (const std::uint32_t idx : lv.dffs) {
    const netlist::Cell& c = module.cells()[idx];
    dffs.push_back(SwarDffOp{c.in[0], c.out,
                             c.dff_init ? ~std::uint64_t{0} : 0});
  }
}

/// Two's complement reading of a `bits`-wide raw port value.
[[nodiscard]] inline std::int64_t sign_extend_port(std::uint64_t raw,
                                                   std::size_t bits) {
  const std::uint64_t sign = std::uint64_t{1} << (bits - 1);
  if (bits < 64 && (raw & sign)) {
    return static_cast<std::int64_t>(raw | ~((std::uint64_t{1} << bits) - 1));
  }
  return static_cast<std::int64_t>(raw);
}

/// The lane-state core of the batch engines.  `Engine` (CRTP) is
/// BatchSimulatorT or BatchEventSimulatorT; it supplies
/// set_net_chunks(net, chunks), through which every port write goes — the
/// zero-delay engine writes the words, the event engine stages them as a
/// time-0 event.  Everything else here is common: the bound module, the
/// lane words (kChunks uint64_t per net), the DFF table with its
/// captured-D words, the power-on state, and port transpose / readout.
template <class Engine, LaneWord L>
class LaneState {
 public:
  /// Lanes per word: one sample (or fault variant) per bit.
  static constexpr std::size_t kLanes = L::kWidth;
  /// uint64_t storage chunks per lane word (lane L -> chunk L/64).
  static constexpr std::size_t kChunks = L::kChunks;

  [[nodiscard]] bool bound() const noexcept { return module_ != nullptr; }

  // --- stimulus -------------------------------------------------------------
  /// Drive an input port: values[L] is lane L's port value (LSB first),
  /// `count` <= kLanes.  Lanes >= count are driven to 0.
  void set_port(const netlist::Port& port, const std::uint64_t* values,
                std::size_t count) {
    if (count > kLanes) {
      throw std::out_of_range("set_port: count > kLanes");
    }
    // Transpose sample-major port values into bit-major lane words.
    std::uint64_t word[kChunks];
    for (std::size_t i = 0; i < port.nets.size(); ++i) {
      std::fill(word, word + kChunks, 0);
      for (std::size_t lane = 0; lane < count; ++lane) {
        word[lane_chunk(lane)] |= ((values[lane] >> i) & 1u) << (lane & 63);
      }
      engine().set_net_chunks(port.nets[i], word);
    }
  }
  void set_port(const std::string& name, const std::uint64_t* values,
                std::size_t count) {
    set_port(find_input(name), values, count);
  }
  /// Drive the same value into every lane of an input port.
  void set_port_broadcast(const netlist::Port& port, std::uint64_t value) {
    std::uint64_t word[kChunks];
    for (std::size_t i = 0; i < port.nets.size(); ++i) {
      std::fill(word, word + kChunks,
                ((value >> i) & 1u) != 0 ? ~std::uint64_t{0} : 0);
      engine().set_net_chunks(port.nets[i], word);
    }
  }
  void set_port_broadcast(const std::string& name, std::uint64_t value) {
    set_port_broadcast(find_input(name), value);
  }

  // --- observation ----------------------------------------------------------
  /// Chunk `c` (lanes [64c, 64c+64)) of a net.
  [[nodiscard]] std::uint64_t net_chunk(netlist::NetId net,
                                        std::size_t c) const {
    return values_[net * kChunks + c];
  }
  [[nodiscard]] bool net(netlist::NetId net, std::size_t lane) const {
    return extract_lane(values_.data() + net * kChunks, lane);
  }
  /// Read a port in one lane as an unsigned integer (LSB first).
  [[nodiscard]] std::uint64_t port_unsigned(const netlist::Port& port,
                                            std::size_t lane) const {
    if (lane >= kLanes) throw std::out_of_range("port_unsigned: bad lane");
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < port.nets.size(); ++i) {
      v |= static_cast<std::uint64_t>(
               extract_lane(values_.data() + port.nets[i] * kChunks, lane))
           << i;
    }
    return v;
  }
  [[nodiscard]] std::uint64_t port_unsigned(const std::string& name,
                                            std::size_t lane) const {
    return port_unsigned(find_port(name), lane);
  }
  /// Read a port in one lane as a two's complement signed integer.
  [[nodiscard]] std::int64_t port_signed(const netlist::Port& port,
                                         std::size_t lane) const {
    return sign_extend_port(port_unsigned(port, lane), port.nets.size());
  }
  [[nodiscard]] std::int64_t port_signed(const std::string& name,
                                         std::size_t lane) const {
    return port_signed(find_port(name), lane);
  }

  [[nodiscard]] const netlist::Module& module() const { return *module_; }
  [[nodiscard]] const Levelization& levelization() const { return *lv_; }

  // --- state export / import ------------------------------------------------
  /// Words in an exported lane state of `module`: every net's lane word,
  /// then every DFF's captured-D word.
  [[nodiscard]] static std::size_t state_words(const netlist::Module& module,
                                               const Levelization& lv) {
    return (module.num_nets() + lv.dffs.size()) * kChunks;
  }
  [[nodiscard]] std::size_t state_words() const {
    return values_.size() + dff_state_.size();
  }
  /// Copy the lane state (state_words() words) to `out`.  Two engines
  /// with equal exports continue identically from here.
  void export_state(std::uint64_t* out) const {
    std::copy(dff_state_.begin(), dff_state_.end(),
              std::copy(values_.begin(), values_.end(), out));
  }
  /// Adopt `src`'s lane state: the other engine, bound to the same
  /// module, hands over where it settled (the zero-delay engine warms a
  /// replay up for the event engine).  Engines with pending stimulus
  /// drop it after this copy.
  template <class Other>
  void import_state(const LaneState<Other, L>& src) {
    if (src.values_.size() != values_.size() ||
        src.dff_state_.size() != dff_state_.size()) {
      throw std::invalid_argument("import_state: engines bound differently");
    }
    std::copy(src.values_.begin(), src.values_.end(), values_.begin());
    std::copy(src.dff_state_.begin(), src.dff_state_.end(),
              dff_state_.begin());
  }
  /// Adopt a lane state that export_state() wrote from an engine bound to
  /// the same module.
  void import_state(const std::uint64_t* words) {
    const std::uint64_t* const dff_words = words + values_.size();
    std::copy(words, dff_words, values_.begin());
    std::copy(dff_words, dff_words + dff_state_.size(), dff_state_.begin());
  }

 protected:
  template <class, LaneWord>
  friend class LaneState;

  /// Bind to a module, reusing every vector's capacity (a pooled engine
  /// rebound to same-shaped modules performs zero heap allocation).  The
  /// module and levelization are borrowed and must outlive the binding.
  void bind(const netlist::Module& module,
            std::shared_ptr<const Levelization> lv) {
    module_ = &module;
    lv_ = std::move(lv);
    swar_dff_ops_into(dffs_, module, *lv_);
    values_.assign(module.num_nets() * kChunks, 0);
    dff_state_.assign(dffs_.size() * kChunks, 0);
  }
  /// Power-on state in every lane: all nets 0, the constant-1 net 1, each
  /// DFF (and its Q net) at its init value.
  void power_on() {
    std::fill(values_.begin(), values_.end(), 0);
    std::fill_n(values_.begin() + netlist::kConst1 * kChunks, kChunks,
                ~std::uint64_t{0});
    for (std::size_t i = 0; i < dffs_.size(); ++i) {
      // SwarDffOp::init is 0 or ~0 — broadcast it to every chunk.
      std::fill_n(dff_state_.begin() + i * kChunks, kChunks, dffs_[i].init);
      std::fill_n(values_.begin() + dffs_[i].q * kChunks, kChunks,
                  dffs_[i].init);
    }
  }
  /// Phase 1 of two-phase clocking: sample every DFF's D word (so DFF
  /// chains shift correctly regardless of cell order).
  void capture_dffs() {
    for (std::size_t i = 0; i < dffs_.size(); ++i) {
      L::store(dff_state_.data() + i * kChunks,
               L::load(values_.data() + dffs_[i].d * kChunks));
    }
  }
  void check_net(netlist::NetId net, const char* what) const {
    if (net * kChunks >= values_.size()) {
      throw std::out_of_range(std::string(what) + ": bad net");
    }
  }
  [[nodiscard]] const netlist::Port& find_input(const std::string& name) const {
    const netlist::Port* port = module_->find_input(name);
    if (port == nullptr) throw std::invalid_argument("no input port: " + name);
    return *port;
  }
  [[nodiscard]] const netlist::Port& find_port(const std::string& name) const {
    const netlist::Port* port = module_->find_output(name);
    if (port == nullptr) port = module_->find_input(name);
    if (port == nullptr) throw std::invalid_argument("no port: " + name);
    return *port;
  }

  const netlist::Module* module_ = nullptr;
  std::shared_ptr<const Levelization> lv_;
  std::vector<SwarDffOp> dffs_;
  std::vector<std::uint64_t> values_;     ///< kChunks words per net
  std::vector<std::uint64_t> dff_state_;  ///< captured D words, per DFF

 private:
  Engine& engine() { return static_cast<Engine&>(*this); }
};

}  // namespace pml::sim
