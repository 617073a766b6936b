#pragma once
// Width-generic bit-parallel (SWAR) zero-delay batch simulator.
//
// BatchSimulatorT<L, O> packs L::kWidth independent simulations into one
// lane word per net (bit L = lane L's logic value, stored as L::kChunks
// uint64_t chunks; see LaneState in swar.hpp) and evaluates the levelized
// netlist once per clock cycle for all lanes simultaneously: an AND2
// becomes one machine AND (scalar or vector), a MUX2 three bit-ops.  The
// compile-time overlay O selects what rides on top of plain evaluation:
//
//  - BatchOverlay::kToggles (BatchSimulatorT<L>): kLanes workload samples
//    through one design.  Toggle counts are accumulated per net as the
//    sum over *active* lanes of per-lane functional transitions (a
//    popcount of the changed-bits word, masked to the active lanes), so
//    ragged (< kLanes sample) final batches never pollute the counters.
//    This is the engine behind core::verify_workload and the backend
//    probe.
//  - BatchOverlay::kStuckAt (BatchFaultSimulatorT<L>): kLanes stuck-at
//    fault variants of the SAME design on the SAME (broadcast) input.
//    Per-net force0/force1 lane masks are applied after each cell eval
//    (two extra bit-ops per cell, branch-free) and re-asserted on source
//    nets (PIs, DFF Qs) before each sweep, so variant L sees net n stuck
//    exactly where bit L of the masks is set.  Lane 0 is reserved
//    fault-free (set_fault rejects it): every batch of a campaign carries
//    the golden reference for free.  This is the engine behind
//    core::run_fault_campaign (63 / 255 / 511 variants per pass).
//
// Functional results are bit-identical, lane by lane, to CycleSimulator
// (with the same faults installed via force_net) for EVERY backend — the
// equivalence suites in tests/test_sim_batch.cpp, test_sim_fault_batch.cpp
// (u64) and test_sim_backend.cpp (wide backends vs u64) prove it on
// generated sequential-SVM, parallel-SVM, and MLP circuits and on random
// netlists.  CycleSimulator remains the scalar reference.
//
// The u64 instantiations are built once in batch_sim.cpp; the AVX2
// (256-lane) and AVX-512 (512-lane) ones only inside the per-flag TUs
// (src/core/src/backends/backend_avx2.cpp / backend_avx512.cpp); runtime
// selection goes through sim::resolve_backend (sim/backend.hpp).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "pml/netlist/module.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/sim/lanes.hpp"
#include "pml/sim/levelize.hpp"
#include "pml/sim/swar.hpp"

namespace pml::sim {

/// What a BatchSimulatorT overlays on plain zero-delay evaluation.
enum class BatchOverlay : std::uint8_t {
  kToggles,  ///< per-net toggle counts over the active lanes
  kStuckAt,  ///< per-lane stuck-at-0/1 force masks (lane 0 fault-free)
};

template <LaneWord L, BatchOverlay O = BatchOverlay::kToggles>
class BatchSimulatorT : public LaneState<BatchSimulatorT<L, O>, L> {
  using Base = LaneState<BatchSimulatorT<L, O>, L>;
  using Base::dff_state_;
  using Base::dffs_;
  using Base::lv_;
  using Base::values_;
  static constexpr bool kStuckAt = O == BatchOverlay::kStuckAt;

 public:
  using Base::kChunks;
  using Base::kLanes;

  /// Unbound simulator for pooling (core::EvalContext worker scratch);
  /// every member other than rebind()/bound() requires a bind first.
  BatchSimulatorT() = default;
  explicit BatchSimulatorT(const netlist::Module& module)
      : BatchSimulatorT(module, levelize_shared(module)) {}
  /// Reuse a previously derived levelization (workers across threads
  /// share one instead of re-deriving it per simulator).
  BatchSimulatorT(const netlist::Module& module,
                  std::shared_ptr<const Levelization> lv) {
    rebind(module, std::move(lv));
  }

  /// (Re)bind to a module, reusing all internal vector capacities: a
  /// pooled simulator rebound to same-shaped modules performs zero heap
  /// allocation.  The module and levelization are borrowed and must
  /// outlive the binding; lane masks, installed faults and counters are
  /// reset.
  void rebind(const netlist::Module& module,
              std::shared_ptr<const Levelization> lv) {
    if (lv == nullptr) {
      throw std::invalid_argument(kStuckAt
                                      ? "BatchFaultSimulator: null levelization"
                                      : "BatchSimulator: null levelization");
    }
    this->bind(module, std::move(lv));
    swar_comb_ops_into(ops_, module, *lv_);
    if constexpr (kStuckAt) {
      force0_.assign(module.num_nets() * kChunks, 0);
      force1_.assign(module.num_nets() * kChunks, 0);
      forced_nets_.clear();
      num_faults_ = 0;
    } else {
      toggles_.assign(module.num_nets(), 0);
      std::fill(active_mask_, active_mask_ + kChunks, ~std::uint64_t{0});
    }
    inputs_dirty_ = false;
    reset();
  }

  /// Restore all DFFs (every lane) to their power-on values, zero all
  /// nets, settle (with the installed faults applied — the batch
  /// equivalent of CycleSimulator::reset after force_net), and clear the
  /// toggle/cycle counters.
  void reset() {
    this->power_on();
    // Settle combinational logic so reads at time zero are consistent,
    // then discard the settling transitions (matches CycleSimulator).
    propagate();
    if constexpr (!kStuckAt) std::fill(toggles_.begin(), toggles_.end(), 0);
    cycles_ = 0;
  }

  // --- lane control (toggle overlay) ----------------------------------------
  /// Declare lanes [0, count) active (1 <= count <= kLanes).  Inactive
  /// lanes still simulate but are excluded from toggle counting; their
  /// outputs are meaningless and must not be read.
  void set_active_lanes(std::size_t count)
    requires(!kStuckAt)
  {
    if (count == 0 || count > kLanes) {
      throw std::out_of_range("set_active_lanes: count out of [1, kLanes]");
    }
    prefix_lane_mask(count, active_mask_, kChunks);
  }

  // --- fault control (stuck-at overlay) -------------------------------------
  /// Stick `net` at `stuck_value` in fault variant `lane` (1 <= lane <
  /// kLanes; lane 0 is the reserved fault-free reference).  Re-sticking
  /// the same net in the same lane overwrites, like
  /// CycleSimulator::force_net.  Takes effect from the next
  /// reset()/propagate()/step().  Throws on lane 0, out-of-range
  /// nets/lanes, and the constant nets.
  void set_fault(netlist::NetId net, std::size_t lane, bool stuck_value)
    requires kStuckAt
  {
    this->check_net(net, "set_fault");
    if (lane == 0) {
      throw std::invalid_argument(
          "set_fault: lane 0 is the reserved fault-free reference");
    }
    if (lane >= kLanes) throw std::out_of_range("set_fault: bad lane");
    if (net == netlist::kConst0 || net == netlist::kConst1) {
      throw std::invalid_argument("set_fault: cannot force a constant net");
    }
    std::uint64_t* const f0 = force0_.data() + net * kChunks;
    std::uint64_t* const f1 = force1_.data() + net * kChunks;
    const std::size_t c = lane_chunk(lane);
    const std::uint64_t bit = lane_bit(lane);
    if (((f0[c] | f1[c]) & bit) == 0) {
      bool any = false;
      for (std::size_t i = 0; i < kChunks; ++i) {
        any = any || f0[i] != 0 || f1[i] != 0;
      }
      if (!any) forced_nets_.push_back(net);
      ++num_faults_;
    }
    if (stuck_value) {
      f1[c] |= bit;
      f0[c] &= ~bit;
    } else {
      f0[c] |= bit;
      f1[c] &= ~bit;
    }
    inputs_dirty_ = true;
  }
  /// Remove every fault from every lane.
  void clear_faults()
    requires kStuckAt
  {
    for (const netlist::NetId n : forced_nets_) {
      std::fill_n(force0_.begin() + n * kChunks, kChunks, 0);
      std::fill_n(force1_.begin() + n * kChunks, kChunks, 0);
    }
    forced_nets_.clear();
    num_faults_ = 0;
    inputs_dirty_ = true;
  }
  /// Total installed (net, lane) stuck-at entries.
  [[nodiscard]] std::size_t num_faults() const
    requires kStuckAt
  {
    return num_faults_;
  }
  /// Chunk `c` (lanes [64c, 64c+64)) of the stuck-at-0 / stuck-at-1
  /// masks for a net.
  [[nodiscard]] std::uint64_t fault0_chunk(netlist::NetId net,
                                           std::size_t c) const
    requires kStuckAt
  {
    return force0_[net * kChunks + c];
  }
  [[nodiscard]] std::uint64_t fault1_chunk(netlist::NetId net,
                                           std::size_t c) const
    requires kStuckAt
  {
    return force1_[net * kChunks + c];
  }

  // --- stimulus -------------------------------------------------------------
  /// Drive all kLanes lanes of a primary-input net from kChunks words.
  void set_net_chunks(netlist::NetId net, const std::uint64_t* chunks) {
    this->check_net(net, "set_net_chunks");
    std::copy(chunks, chunks + kChunks, values_.begin() + net * kChunks);
    inputs_dirty_ = true;
  }
  /// Drive one lane of a primary-input net, leaving the others unchanged.
  void set_net(netlist::NetId net, std::size_t lane, bool value) {
    this->check_net(net, "set_net");
    if (lane >= kLanes) throw std::out_of_range("set_net: bad lane");
    insert_lane(values_.data() + net * kChunks, lane, value);
    inputs_dirty_ = true;
  }

  // --- evaluation -----------------------------------------------------------
  /// Propagate combinational logic for all lanes (no clock edge).
  void propagate() {
    std::uint64_t* const v = values_.data();
    [[maybe_unused]] const std::uint64_t* const f0 = force0_.data();
    [[maybe_unused]] const std::uint64_t* const f1 = force1_.data();
    [[maybe_unused]] const auto amask = L::load(active_mask_);
    // Stuck-at: source nets (PIs, DFF Qs) keep their forced lanes across
    // the sweep; cell outputs are re-forced inline after every eval,
    // exactly mirroring the scalar CycleSimulator force order.
    if constexpr (kStuckAt) {
      for (const netlist::NetId n : forced_nets_) {
        L::store(v + n * kChunks, force(L::load(v + n * kChunks), f0, f1, n));
      }
    }
    for (const SwarOp& op : ops_) {
      const auto out = eval_cell_lanes_w<L>(op.type, L::load(v + op.a * kChunks),
                                            L::load(v + op.b * kChunks),
                                            L::load(v + op.s * kChunks));
      std::uint64_t* const dst = v + op.out * kChunks;
      if constexpr (kStuckAt) {
        L::store(dst, force(out, f0, f1, op.out));
      } else {
        toggles_[op.out] +=
            L::popcount(L::band(L::bxor(out, L::load(dst)), amask));
        L::store(dst, out);
      }
    }
    inputs_dirty_ = false;
    // One lane word evaluated per cell per sweep; a single relaxed add
    // per sweep keeps the hot loop untouched.
    PML_OBS_COUNT(kStuckAt ? "sim.batch_fault.lane_words"
                           : "sim.batch.lane_words",
                  ops_.size());
  }
  /// Clock every DFF (capture D into Q, all lanes) and re-settle.  The
  /// pre-clock combinational sweep is skipped when no input (or fault)
  /// changed since the last propagate — a levelized pass is a fixpoint,
  /// so re-running it on unchanged inputs is an observably-identical
  /// no-op (zero toggles).  Forced Q lanes are re-asserted by the
  /// trailing propagate before anything reads them.
  void step() {
    if (inputs_dirty_) propagate();
    this->capture_dffs();
    std::uint64_t* const v = values_.data();
    [[maybe_unused]] const auto amask = L::load(active_mask_);
    for (std::size_t i = 0; i < dffs_.size(); ++i) {
      std::uint64_t* const q = v + dffs_[i].q * kChunks;
      const auto next = L::load(dff_state_.data() + i * kChunks);
      if constexpr (!kStuckAt) {
        toggles_[dffs_[i].q] +=
            L::popcount(L::band(L::bxor(next, L::load(q)), amask));
      }
      L::store(q, next);
    }
    ++cycles_;
    propagate();
  }

  // --- observation ----------------------------------------------------------
  /// Cumulative zero-delay toggles per net since construction/reset,
  /// summed over active lanes (equals the sum of CycleSimulator toggle
  /// counts over the lanes' sample histories).
  [[nodiscard]] const std::vector<std::uint64_t>& toggles() const
    requires(!kStuckAt)
  {
    return toggles_;
  }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

 private:
  /// Branch-free stuck-at overlay of net `n`: identity where both masks
  /// are zero.
  static typename L::Word force(typename L::Word w, const std::uint64_t* f0,
                                const std::uint64_t* f1, netlist::NetId n) {
    return L::bor(L::andnot(w, L::load(f0 + n * kChunks)),
                  L::load(f1 + n * kChunks));
  }

  std::vector<SwarOp> ops_;  ///< levelized cells, pins flattened
  std::uint64_t cycles_ = 0;
  bool inputs_dirty_ = false;  ///< stimulus/faults changed since propagate
  // kToggles state.
  std::vector<std::uint64_t> toggles_;
  std::uint64_t active_mask_[kChunks] = {};
  // kStuckAt state.
  std::vector<std::uint64_t> force0_;        ///< stuck-at-0 lane mask per net
  std::vector<std::uint64_t> force1_;        ///< stuck-at-1 lane mask per net
  std::vector<netlist::NetId> forced_nets_;  ///< nets with any mask bit set
  std::size_t num_faults_ = 0;
};

/// The stuck-at fault-variant engine: the zero-delay engine with the
/// force-mask overlay.
template <LaneWord L>
using BatchFaultSimulatorT = BatchSimulatorT<L, BatchOverlay::kStuckAt>;

/// The 64-lane scalar instantiations: the always-built reference backend.
using BatchSimulator = BatchSimulatorT<LaneU64>;
using BatchFaultSimulator = BatchFaultSimulatorT<LaneU64>;
extern template class BatchSimulatorT<LaneU64>;
extern template class BatchSimulatorT<LaneU64, BatchOverlay::kStuckAt>;

}  // namespace pml::sim
