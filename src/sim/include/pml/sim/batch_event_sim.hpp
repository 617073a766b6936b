#pragma once
// Width-generic bit-parallel (SWAR) *delay-accurate* event-driven
// simulator.
//
// BatchEventSimulatorT<L> packs L::kWidth independent workload samples into
// one lane word per net (bit L = lane L's logic value, stored as L::kChunks
// uint64_t chunks; the lane storage, power-on reset and port I/O are the
// LaneState core shared with BatchSimulatorT, see swar.hpp) and advances a
// shared integer-tick timing wheel over the levelized netlist. Gate delays
// are lane-invariant (they depend only on the cell type), so every lane's
// transitions land on the same tick grid as a scalar EventSimulator run of
// that lane alone: the per-lane value trajectory — including every glitch —
// is bit-exact, and a word-level event is a no-op in any lane whose value
// is unchanged. The equivalence suites in tests/test_sim_batch_event.cpp
// (u64) and tests/test_sim_backend.cpp (wide backends vs u64) prove it on
// generated sequential-SVM, parallel-SVM, and MLP circuits and on random
// netlists.
//
// `BatchEventSimulator` remains the 64-lane scalar instantiation; AVX2
// (256-lane) / AVX-512 (512-lane) instantiations are created only in the
// per-flag TUs under src/core/src/backends/.
//
// Transition counts (the input to power::estimate's glitch-aware dynamic
// power) are accumulated per net as the popcount of the changed-bits word
// masked to the *counted* lanes, so ragged (< kLanes stream) batches,
// per-lane stream exhaustion, and warm-up cycles stay exact: the
// accumulated ActivityStats equal the sum of scalar EventSimulator
// ActivityStats over the counted lanes' sample histories.
//
// This is the engine behind core::collect_activity, which shards
// batch-event workers across threads and replaces the scalar
// sample-at-a-time replay in evaluate_circuit's power step.  The scalar
// EventSimulator remains the reference oracle.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "pml/cells/library.hpp"
#include "pml/netlist/module.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/sim/event_sim.hpp"
#include "pml/sim/lanes.hpp"
#include "pml/sim/levelize.hpp"
#include "pml/sim/swar.hpp"

namespace pml::sim {

template <LaneWord L>
class BatchEventSimulatorT : public LaneState<BatchEventSimulatorT<L>, L> {
  using Base = LaneState<BatchEventSimulatorT<L>, L>;
  using Base::dff_state_;
  using Base::dffs_;
  using Base::lv_;
  using Base::module_;
  using Base::values_;

 public:
  using Base::kChunks;
  using Base::kLanes;

  /// Unbound simulator for pooling (core::EvalContext worker scratch);
  /// every member other than rebind()/bound() requires a bind first.
  BatchEventSimulatorT() = default;
  /// `time_quantum_ms` converts library delays to integer ticks, exactly
  /// as in EventSimulator (equal quanta => equal tick grids => bit-exact
  /// per-lane equivalence).
  BatchEventSimulatorT(const netlist::Module& module,
                       const cells::CellLibrary& lib,
                       double time_quantum_ms = 0.01)
      : BatchEventSimulatorT(module, lib, time_quantum_ms,
                             levelize_shared(module)) {}
  /// Reuse a previously derived levelization (activity workers across
  /// threads share one instead of re-deriving it per simulator).
  BatchEventSimulatorT(const netlist::Module& module,
                       const cells::CellLibrary& lib, double time_quantum_ms,
                       std::shared_ptr<const Levelization> lv) {
    rebind(module, lib, time_quantum_ms, std::move(lv));
  }

  /// (Re)bind to a module, reusing all internal storage — op tables, lane
  /// words, timing-wheel buckets, activity counters: a pooled simulator
  /// rebound to same-shaped modules under the same library performs zero
  /// heap allocation.  The module and levelization are borrowed and must
  /// outlive the binding; counters and the count mask are reset.
  void rebind(const netlist::Module& module, const cells::CellLibrary& lib,
              double time_quantum_ms, std::shared_ptr<const Levelization> lv) {
    if (lv == nullptr) {
      throw std::invalid_argument("BatchEventSimulator: null levelization");
    }
    if (time_quantum_ms <= 0) {
      throw std::invalid_argument("time quantum must be positive");
    }
    this->bind(module, std::move(lv));
    // Same quantization as EventSimulator: equal tick grids are what make
    // the per-lane trajectories bit-exact against the scalar oracle.
    delay_ticks_.assign(netlist::kNumCellTypes, 0);
    int max_delay = 1;
    for (int t = 0; t < netlist::kNumCellTypes; ++t) {
      const double d =
          lib.params(static_cast<netlist::CellType>(t)).delay_ms;
      delay_ticks_[t] =
          std::max(1, static_cast<int>(std::lround(d / time_quantum_ms)));
      max_delay = std::max(max_delay, delay_ticks_[t]);
    }
    // Shrink-then-clear-then-grow keeps surviving bucket capacities (the
    // event-wheel nodes of the pooling contract).
    const std::size_t wheel_size = static_cast<std::size_t>(max_delay) + 1;
    if (wheel_.size() > wheel_size) wheel_.resize(wheel_size);
    for (auto& bucket : wheel_) bucket.clear();
    wheel_.resize(wheel_size);

    swar_cell_ops_into(cell_ops_, *module_);
    cell_epoch_.assign(module_->cells().size(), 0);
    epoch_ = 0;
    touched_cells_.clear();
    window_start_.assign(module_->num_nets() * kChunks, 0);
    net_window_epoch_.assign(module_->num_nets(), 0);
    window_nets_.clear();
    window_epoch_ = 0;
    std::fill(count_mask_, count_mask_ + kChunks, ~std::uint64_t{0});
    activity_.net_toggles.assign(module_->num_nets(), 0);
    activity_.net_functional.assign(module_->num_nets(), 0);
    reset();
  }

  /// Restore all DFFs (every lane) to their power-on values, zero all
  /// nets, settle without counting, and clear the activity counters.
  void reset() {
    this->power_on();
    for (auto& bucket : wheel_) bucket.clear();
    wheel_pos_ = 0;
    pending_events_ = 0;
    pending_inputs_.clear();
    full_settle_zero_delay();
    clear_activity();
  }

  // --- lane counting --------------------------------------------------------
  /// kChunks mask words (lane L -> chunk L/64, bit L%64): bit L set iff
  /// lane L accumulates into the activity counters.  All lanes always
  /// *simulate*; masked-out lanes are simply not counted (used for ragged
  /// batches and per-lane stream exhaustion; prefix_lane_mask builds the
  /// common lanes-[0, n) form).
  void set_count_mask_chunks(const std::uint64_t* mask) {
    std::copy(mask, mask + kChunks, count_mask_);
  }

  // --- stimulus -------------------------------------------------------------
  /// Stage all kLanes lanes of a primary-input net from kChunks words;
  /// takes effect as a time-0 event at the start of the next
  /// settle()/step().  The LaneState port writers stage through here.
  void set_net_chunks(netlist::NetId net, const std::uint64_t* chunks) {
    this->check_net(net, "set_net_chunks");
    Event& e = pending_inputs_.emplace_back();
    e.net = net;
    std::copy(chunks, chunks + kChunks, e.w);
  }

  // --- evaluation -----------------------------------------------------------
  /// Propagate all pending events until the network is quiet (all lanes).
  void settle() {
    for (const Event& e : pending_inputs_) {
      schedule_chunks(0, e.net, e.w);
    }
    pending_inputs_.clear();
    run_wheel(/*count=*/true);
  }
  /// settle(), then clock all DFFs; Q updates become events after the
  /// clk-to-Q delay, exactly as in EventSimulator::step.
  void step() {
    settle();
    const std::size_t dff_delay = static_cast<std::size_t>(
        delay_ticks_[static_cast<int>(netlist::CellType::kDff)]);
    this->capture_dffs();
    for (std::size_t i = 0; i < dffs_.size(); ++i) {
      const auto next = L::load(dff_state_.data() + i * kChunks);
      const auto q = L::load(values_.data() + dffs_[i].q * kChunks);
      if (!L::is_zero(L::bxor(next, q))) {
        schedule_word(dff_delay, dffs_[i].q, next);
      }
    }
    std::uint64_t counted = 0;
    for (std::size_t c = 0; c < kChunks; ++c) {
      counted += static_cast<std::uint64_t>(std::popcount(count_mask_[c]));
    }
    activity_.dff_clock_events += dffs_.size() * counted;
    activity_.cycles += counted;
    run_wheel(/*count=*/true);
  }

  // --- observation ----------------------------------------------------------
  /// Counters summed over the counted lanes: `net_toggles` are per-net
  /// transitions including glitches, `dff_clock_events` advances by
  /// num_dffs x popcount(count_mask) per step, `cycles` by
  /// popcount(count_mask) — so the totals equal the sum of per-lane scalar
  /// EventSimulator ActivityStats.
  [[nodiscard]] const ActivityStats& activity() const { return activity_; }
  /// Zero the counters (e.g. after a warm-up round).
  void clear_activity() {
    std::fill(activity_.net_toggles.begin(), activity_.net_toggles.end(), 0);
    std::fill(activity_.net_functional.begin(), activity_.net_functional.end(),
              0);
    activity_.dff_clock_events = 0;
    activity_.cycles = 0;
  }

 private:
  /// A (net, lane word) change applying at some tick of the wheel.
  struct Event {
    netlist::NetId net;
    std::uint64_t w[kChunks];
  };

  void schedule_chunks(std::size_t delay_ticks, netlist::NetId net,
                       const std::uint64_t* chunks) {
    Event& e =
        wheel_[(wheel_pos_ + delay_ticks) % wheel_.size()].emplace_back();
    e.net = net;
    std::copy(chunks, chunks + kChunks, e.w);
    ++pending_events_;
  }
  void schedule_word(std::size_t delay_ticks, netlist::NetId net,
                     typename L::Word w) {
    Event& e =
        wheel_[(wheel_pos_ + delay_ticks) % wheel_.size()].emplace_back();
    e.net = net;
    L::store(e.w, w);
    ++pending_events_;
  }

  void run_wheel(bool count) {
    const auto& cells = module_->cells();
    std::uint64_t* const v = values_.data();
    std::uint64_t guard = 0;
    std::uint64_t evals = 0;  // lane-word cell evaluations this wheel run
    const std::uint64_t kMaxEvents =
        std::max<std::uint64_t>(1000, cells.size()) * 4096;

    // One counted wheel run is one propagation window of the
    // functional/glitch split (same windows as the scalar EventSimulator).
    if (count) {
      ++window_epoch_;
      window_nets_.clear();
    }
    const auto cmask = L::load(count_mask_);

    while (pending_events_ > 0) {
      auto& bucket = wheel_[wheel_pos_];
      if (!bucket.empty()) {
        // Phase 1: apply all net changes scheduled for this tick.
        touched_cells_.clear();
        ++epoch_;
        for (const Event& e : bucket) {
          --pending_events_;
          if (++guard > kMaxEvents) {
            throw std::runtime_error(
                "batch event simulator: event budget exceeded");
          }
          std::uint64_t* const dst = v + e.net * kChunks;
          const auto word = L::load(e.w);
          const auto old = L::load(dst);
          const auto diff = L::bxor(word, old);
          if (L::is_zero(diff)) continue;
          if (count) {
            activity_.net_toggles[e.net] += L::popcount(L::band(diff, cmask));
            if (net_window_epoch_[e.net] != window_epoch_) {
              net_window_epoch_[e.net] = window_epoch_;
              L::store(window_start_.data() + e.net * kChunks, old);
              window_nets_.push_back(e.net);
            }
          }
          L::store(dst, word);
          for (const std::uint32_t ci : lv_->fanout[e.net]) {
            if (cells[ci].type == netlist::CellType::kDff) continue;
            if (cell_epoch_[ci] != epoch_) {
              cell_epoch_[ci] = epoch_;
              touched_cells_.push_back(ci);
            }
          }
        }
        bucket.clear();
        // Phase 2: re-evaluate each affected gate once (all lanes in one
        // pass); schedule its response after the gate delay.
        evals += touched_cells_.size();
        for (const std::uint32_t ci : touched_cells_) {
          const SwarOp& op = cell_ops_[ci];
          const auto out = eval_cell_lanes_w<L>(
              op.type, L::load(v + op.a * kChunks), L::load(v + op.b * kChunks),
              L::load(v + op.s * kChunks));
          schedule_word(static_cast<std::size_t>(
                            delay_ticks_[static_cast<int>(op.type)]),
                        op.out, out);
        }
      }
      wheel_pos_ = (wheel_pos_ + 1) % wheel_.size();
    }

    if (count) {
      for (const netlist::NetId net : window_nets_) {
        const auto diff =
            L::bxor(L::load(v + net * kChunks),
                    L::load(window_start_.data() + net * kChunks));
        activity_.net_functional[net] += L::popcount(L::band(diff, cmask));
      }
    }
    PML_OBS_COUNT("sim.batch_event.lane_words", evals);
  }

  void full_settle_zero_delay() {
    // Levelized consistent assignment used for initialization only (mirrors
    // EventSimulator::full_settle_zero_delay, kLanes lanes at a time).
    std::uint64_t* const v = values_.data();
    for (const std::uint32_t idx : lv_->comb_order) {
      const SwarOp& op = cell_ops_[idx];
      L::store(v + op.out * kChunks,
               eval_cell_lanes_w<L>(op.type, L::load(v + op.a * kChunks),
                                    L::load(v + op.b * kChunks),
                                    L::load(v + op.s * kChunks)));
    }
  }

  std::vector<int> delay_ticks_;  ///< per cell type
  std::vector<SwarOp> cell_ops_;  ///< indexed by cell; DFF entries unused
  /// Timing wheel: bucket [t % size] holds the events applying at tick t.
  /// Sized to max cell delay + 1, so an in-flight event can never wrap
  /// onto the tick being processed.
  std::vector<std::vector<Event>> wheel_;
  std::size_t wheel_pos_ = 0;
  std::uint64_t pending_events_ = 0;
  std::vector<Event> pending_inputs_;
  std::vector<std::uint32_t> touched_cells_;  ///< dedup scratch
  std::vector<std::uint64_t> cell_epoch_;     ///< dedup stamps
  std::uint64_t epoch_ = 0;
  std::uint64_t count_mask_[kChunks] = {};
  // Per-propagation-window start-of-window value words for the
  // functional/glitch split (same windows as the scalar oracle: one per
  // counted run of the wheel, so the per-lane split is bit-exact too).
  std::vector<std::uint64_t> window_start_;
  std::vector<std::uint64_t> net_window_epoch_;
  std::vector<netlist::NetId> window_nets_;
  std::uint64_t window_epoch_ = 0;
  ActivityStats activity_;
};

/// The 64-lane scalar instantiation: the always-built reference backend.
using BatchEventSimulator = BatchEventSimulatorT<LaneU64>;
extern template class BatchEventSimulatorT<LaneU64>;

}  // namespace pml::sim
