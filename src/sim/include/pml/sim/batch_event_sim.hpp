#pragma once
// Width-generic bit-parallel (SWAR) *delay-accurate* event-driven
// simulator.
//
// BatchEventSimulatorT<L> packs L::kWidth independent workload samples into
// one lane word per net (bit L = lane L's logic value, stored as L::kChunks
// uint64_t chunks; the lane storage, power-on reset and port I/O are the
// LaneState core shared with BatchSimulatorT, see swar.hpp) and advances a
// shared integer tick over the levelized netlist, with one event queue per
// distinct delay (see EventQueue). Gate delays
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
#include <limits>
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
  /// words, event queues, activity counters: a pooled simulator
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
    // Queue 0 holds the delay-0 input events; each cell type joins the
    // queue of its delay.  The queue count depends on the library alone,
    // so rebinding keeps every ring's capacity (the pooling contract).
    queue_delay_.assign(1, 0);
    for (int t = 0; t < netlist::kNumCellTypes; ++t) {
      const double d =
          lib.params(static_cast<netlist::CellType>(t)).delay_ms;
      const std::uint32_t ticks = static_cast<std::uint32_t>(
          std::max(1L, std::lround(d / time_quantum_ms)));
      const auto it =
          std::find(queue_delay_.begin(), queue_delay_.end(), ticks);
      queue_of_type_[t] = static_cast<std::uint8_t>(it - queue_delay_.begin());
      if (it == queue_delay_.end()) queue_delay_.push_back(ticks);
    }
    queues_.resize(queue_delay_.size());

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
    drop_events();
    full_settle_zero_delay();
    clear_activity();
  }

  /// Adopt another engine's settled lane state (LaneState::import_state),
  /// or an exported one, with no event pending, as if this engine had
  /// settled there itself.  Counters and the count mask are left alone.
  template <class Other>
  void import_state(const LaneState<Other, L>& src) {
    Base::import_state(src);
    drop_events();
  }
  void import_state(const std::uint64_t* words) {
    Base::import_state(words);
    drop_events();
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
      std::copy(e.w, e.w + kChunks, schedule(0, e.net).w);
    }
    pending_inputs_.clear();
    run_events(/*count=*/true);
  }
  /// settle(), then clock all DFFs; Q updates become events after the
  /// clk-to-Q delay, exactly as in EventSimulator::step.
  void step() {
    settle();
    const std::size_t dff_queue =
        queue_of_type_[static_cast<int>(netlist::CellType::kDff)];
    this->capture_dffs();
    for (std::size_t i = 0; i < dffs_.size(); ++i) {
      const auto next = L::load(dff_state_.data() + i * kChunks);
      const auto q = L::load(values_.data() + dffs_[i].q * kChunks);
      if (!L::is_zero(L::bxor(next, q))) {
        L::store(schedule(dff_queue, dffs_[i].q).w, next);
      }
    }
    std::uint64_t counted = 0;
    for (std::size_t c = 0; c < kChunks; ++c) {
      counted += static_cast<std::uint64_t>(std::popcount(count_mask_[c]));
    }
    activity_.dff_clock_events += dffs_.size() * counted;
    activity_.cycles += counted;
    run_events(/*count=*/true);
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
  /// A (net, lane word) change applying at tick `due`.
  struct Event {
    netlist::NetId net;
    std::uint32_t due;
    std::uint64_t w[kChunks];
  };
  /// The pending events of one delay, in due order: every event enters
  /// at the current tick plus that delay, so a FIFO ring is a priority
  /// queue.  A ring grows to the most events of its delay ever in flight
  /// at once — far less than a timing wheel's buckets, each of which keeps
  /// the capacity of its busiest tick.
  struct EventQueue {
    std::vector<Event> ring;  ///< empty or a power-of-two size
    std::size_t head = 0;
    std::size_t size = 0;
  };

  /// Append an event on `net` to queue `queue`, due after its delay.
  Event& schedule(std::size_t queue, netlist::NetId net) {
    EventQueue& q = queues_[queue];
    if (q.size == q.ring.size()) {
      std::vector<Event> bigger(std::max<std::size_t>(64, 2 * q.ring.size()));
      for (std::size_t k = 0; k < q.size; ++k) {
        bigger[k] = q.ring[(q.head + k) & (q.ring.size() - 1)];
      }
      q.ring.swap(bigger);
      q.head = 0;
    }
    Event& e = q.ring[(q.head + q.size) & (q.ring.size() - 1)];
    ++q.size;
    ++pending_events_;
    e.net = net;
    e.due = now_ + queue_delay_[queue];
    return e;
  }
  void drop_events() {
    for (EventQueue& q : queues_) q.head = q.size = 0;
    pending_events_ = 0;
    pending_inputs_.clear();
    now_ = 0;
  }

  void run_events(bool count) {
    const auto& cells = module_->cells();
    std::uint64_t* const v = values_.data();
    std::uint64_t guard = 0;
    std::uint64_t evals = 0;  // lane-word cell evaluations this run
    const std::uint64_t kMaxEvents =
        std::max<std::uint64_t>(1000, cells.size()) * 4096;

    // One counted run is one propagation window of the
    // functional/glitch split (same windows as the scalar EventSimulator).
    if (count) {
      ++window_epoch_;
      window_nets_.clear();
    }
    const auto cmask = L::load(count_mask_);

    while (pending_events_ > 0) {
      // The next tick with events: every queue's head is its earliest.
      // Netlists are acyclic, so a run ends within depth x max delay
      // ticks and `due` never wraps.
      std::uint32_t tick = std::numeric_limits<std::uint32_t>::max();
      for (const EventQueue& q : queues_) {
        if (q.size != 0) tick = std::min(tick, q.ring[q.head].due);
      }
      now_ = tick;
      // Phase 1: apply all net changes due at this tick.  A net has one
      // driver, so no two events due at one tick touch the same net
      // (staged inputs, which may, share queue 0 in staging order): the
      // order across queues does not matter.
      touched_cells_.clear();
      ++epoch_;
      for (EventQueue& q : queues_) {
        const std::size_t wrap = q.ring.size() - 1;
        for (; q.size != 0 && q.ring[q.head].due == tick;
             q.head = (q.head + 1) & wrap, --q.size) {
          const Event& e = q.ring[q.head];
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
          for (const std::uint32_t ci : lv_->fanout(e.net)) {
            if (cells[ci].type == netlist::CellType::kDff) continue;
            if (cell_epoch_[ci] != epoch_) {
              cell_epoch_[ci] = epoch_;
              touched_cells_.push_back(ci);
            }
          }
        }
      }
      // Phase 2: re-evaluate each affected gate once (all lanes in one
      // pass); schedule its response after the gate delay.
      evals += touched_cells_.size();
      for (const std::uint32_t ci : touched_cells_) {
        const SwarOp& op = cell_ops_[ci];
        const auto out = eval_cell_lanes_w<L>(
            op.type, L::load(v + op.a * kChunks), L::load(v + op.b * kChunks),
            L::load(v + op.s * kChunks));
        L::store(schedule(queue_of_type_[static_cast<int>(op.type)], op.out).w,
                 out);
      }
    }
    now_ = 0;  // drained: the next run counts ticks from zero

    if (count) {
      for (const netlist::NetId net : window_nets_) {
        const auto diff =
            L::bxor(L::load(v + net * kChunks),
                    L::load(window_start_.data() + net * kChunks));
        activity_.net_functional[net] += L::popcount(L::band(diff, cmask));
      }
    }
    PML_OBS_COUNT("sim.batch_event.lane_words", evals);
    // Every event queued before or during this run was applied here.
    PML_OBS_COUNT("sim.batch_event.events", guard);
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

  /// Delay in ticks of each queue (queue 0: the delay-0 input events).
  std::vector<std::uint32_t> queue_delay_;
  std::uint8_t queue_of_type_[netlist::kNumCellTypes] = {};
  std::vector<SwarOp> cell_ops_;  ///< indexed by cell; DFF entries unused
  std::vector<EventQueue> queues_;
  std::uint32_t now_ = 0;  ///< current tick of the running propagation
  std::uint64_t pending_events_ = 0;
  std::vector<Event> pending_inputs_;
  std::vector<std::uint32_t> touched_cells_;  ///< dedup scratch
  std::vector<std::uint64_t> cell_epoch_;     ///< dedup stamps
  std::uint64_t epoch_ = 0;
  std::uint64_t count_mask_[kChunks] = {};
  // Per-propagation-window start-of-window value words for the
  // functional/glitch split (same windows as the scalar oracle: one per
  // counted run, so the per-lane split is bit-exact too).
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
