#pragma once
// Bit-parallel (SWAR) *delay-accurate* simulator: a levelized waveform
// engine.  Templated on the lane word because it shares the LaneState
// core with the zero-delay engine, but instantiated on u64 only.
//
// BatchEventSimulatorT<L> packs L::kWidth independent workload samples into
// one lane word per net (bit L = lane L's logic value, stored as L::kChunks
// uint64_t chunks; the lane storage, power-on reset and port I/O are the
// LaneState core shared with BatchSimulatorT, see swar.hpp).  Gate delays
// are lane-invariant (they depend only on the cell type), so every lane's
// transitions land on the same integer tick grid as a scalar
// EventSimulator run of that lane alone.
//
// Transition lists.  One propagation window (a settle(), or either half of
// a step()) computes each changing net's waveform as a list of (tick, lane
// word) entries, in tick order:
//  - Seeds.  A staged input opens its net's list at tick 0 (inputs staged
//    twice apply in staging order); a DFF whose captured D differs from Q
//    opens Q's list at the clk-to-Q tick.
//  - Sweep.  The window then visits every combinational cell once, in
//    Levelization::wave_order (a cell follows all drivers of its inputs).
//    A cell with any listed input merges its inputs' lists; at each
//    distinct input-change tick t it evaluates once, on every input's
//    value as of t, and appends (t + delay, out) to its output's list when
//    `out` differs from the list's last word.  The cell type is dispatched
//    once per cell per window, not once per evaluation.
//  - Counting.  A net's toggles are counted as its entries are appended
//    (the popcount of the changed bits under the count mask).  When its
//    list retires, after the last combinational cell reading it, the net's
//    functional count (start vs end of window) and its final lane word are
//    committed.
//
// Why this is exact.  A queue-driven event simulator with transport delays
// evaluates a gate at each tick some input changes, on the inputs' values
// at that tick, and applies the result one gate delay later, where it is
// a no-op unless it differs from the net's value then.  A net has one
// driver with one delay, so its events apply in the order they were
// computed and the value a new event meets is the previous event's: the
// filtered list above is that net's event trajectory, glitches included,
// per lane.  The scalar EventSimulator is the reference oracle; the
// differential suites in tests/test_sim_batch_event.cpp,
// tests/test_sim_waveform.cpp and tests/test_core_replay.cpp check it on
// generated sequential-SVM, parallel-SVM, MLP and sequential-MLP
// circuits and on random netlists.
//
// Several drivers.  A net with more than one source in a window (two
// combinational drivers, or a combinational driver plus a DFF, an input
// port, or a staged write) is outside the one-driver argument.  Such nets
// are found at bind time (or when first staged); their drivers' unfiltered
// outputs are merged by tick, then by the order per-delay event queues
// apply them (staged inputs first, then the delay classes in the order
// the cell types first use them, each class in computation order), and
// only then are no-op changes dropped: last event wins.  A driver's
// evaluation sets every lane, also lanes where only the other driver
// moved, so on such a net the lanes agree with the scalar oracle only
// under a stimulus they share.  Module::validate rejects these netlists;
// the rule keeps the engine deterministic on them.
//
// Bounded memory.  Lists live in one arena of parallel tick and lane-word
// arrays.  A list is freed after its last combinational reader; freed
// lists on top of the arena are reclaimed at once, and the arena is
// compacted whenever the freed entries under live ones exceed a quarter
// of the live entries, so it never holds more than 1.25x the live
// frontier (plus a small compaction floor).  wave_order's depth-first
// order keeps that frontier small.  The arena reserves address space once
// and commits pages as they are first written; rebinding keeps the
// reservation (a pooled engine stays allocation-free) but hands the
// pages back, so an idle engine holds no list memory.

// Transition counts (the input to power::estimate's glitch-aware dynamic
// power) are accumulated per net under the count mask, so ragged (< kLanes
// stream) batches and warm-up cycles stay exact: the accumulated ActivityStats equal the sum of scalar
// EventSimulator ActivityStats over the counted lanes' sample histories.
//
// This is the engine behind core::collect_activity (the power replay) and
// opt::SwitchingEnergyCost (the optimizer's probes).  `BatchEventSimulator`
// is its one instantiation, on 64-lane u64 words.

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
#include "pml/util/page_allocator.hpp"

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

  /// (Re)bind to a module, reusing all internal storage — sweep tables,
  /// lane words, the list arena, activity counters: a pooled simulator
  /// rebound to same-shaped modules under the same library performs zero
  /// heap allocation.  The module and levelization are borrowed and must
  /// outlive the binding; counters, the count mask and the list-memory
  /// high-water marks are reset.
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
    // the per-lane trajectories bit-exact against the scalar oracle.  The
    // rank of a delay class orders same-tick events on a net with several
    // drivers: staged inputs (rank 0), then each distinct delay in
    // cell-type order.
    std::uint32_t class_delay[netlist::kNumCellTypes + 1] = {0};
    std::uint8_t classes = 1;
    for (int t = 0; t < netlist::kNumCellTypes; ++t) {
      const double d =
          lib.params(static_cast<netlist::CellType>(t)).delay_ms;
      delay_of_type_[t] = static_cast<std::uint32_t>(
          std::max(1L, std::lround(d / time_quantum_ms)));
      const auto it = std::find(class_delay, class_delay + classes,
                                delay_of_type_[t]);
      rank_of_type_[t] = static_cast<std::uint8_t>(it - class_delay);
      if (it == class_delay + classes) {
        class_delay[classes++] = delay_of_type_[t];
      }
    }
    bind_sweep();
    drop_stimulus();
    // The last binding's lists are gone: hand their pages back, so an
    // idle pooled engine holds no arena memory for a design it is done
    // with.  The address space stays reserved, so this allocates nothing.
    util::release_pages(ticks_, 1);
    util::release_pages(words_, kChunks);
    lists_.assign(module_->num_nets(), ListRef{});
    arena_high_water_ = live_high_water_ = 0;
    std::fill(count_mask_, count_mask_ + kChunks, ~std::uint64_t{0});
    activity_.net_toggles.assign(module_->num_nets(), 0);
    activity_.net_functional.assign(module_->num_nets(), 0);
    reset();
  }

  /// Restore all DFFs (every lane) to their power-on values, zero all
  /// nets, settle without counting, and clear the activity counters.
  void reset() {
    this->power_on();
    drop_stimulus();
    full_settle_zero_delay();
    clear_activity();
  }

  /// Adopt another engine's settled lane state (LaneState::import_state),
  /// or an exported one, with no stimulus pending, as if this engine had
  /// settled there itself.  Counters and the count mask are left alone.
  template <class Other>
  void import_state(const LaneState<Other, L>& src) {
    Base::import_state(src);
    drop_stimulus();
  }
  void import_state(const std::uint64_t* words) {
    Base::import_state(words);
    drop_stimulus();
  }

  // --- lane counting --------------------------------------------------------
  /// kChunks mask words (lane L -> chunk L/64, bit L%64): bit L set iff
  /// lane L accumulates into the activity counters.  All lanes always
  /// *simulate*; masked-out lanes are simply not counted (used for ragged
  /// batches; prefix_lane_mask builds the common lanes-[0, n) form).
  void set_count_mask_chunks(const std::uint64_t* mask) {
    std::copy(mask, mask + kChunks, count_mask_);
  }

  // --- stimulus -------------------------------------------------------------
  /// Stage all kLanes lanes of a net from kChunks words; takes effect at
  /// tick 0 of the next settle()/step().  The LaneState port writers stage
  /// through here.  Staging a net a combinational cell drives makes it a
  /// several-driver net for the rest of the binding.
  void set_net_chunks(netlist::NetId net, const std::uint64_t* chunks) {
    this->check_net(net, "set_net_chunks");
    if (driver_slot_[net] != 0 && !merged_[net]) {
      merged_[net] = 1;
      ops_[driver_slot_[net] - 1].merged = kMergeLast;
    }
    Staged& e = pending_inputs_.emplace_back();
    e.net = net;
    std::copy(chunks, chunks + kChunks, e.w);
  }

  // --- evaluation -----------------------------------------------------------
  /// Propagate the staged inputs until the network is quiet (all lanes).
  void settle() {
    const auto cmask = L::load(count_mask_);
    for (const Staged& e : pending_inputs_) seed(e.net, 0, 0, e.w, cmask);
    seeds_ += pending_inputs_.size();
    pending_inputs_.clear();
    run_window();
  }
  /// settle(), then clock all DFFs; Q updates land after the clk-to-Q
  /// delay, exactly as in EventSimulator::step.
  void step() {
    settle();
    this->capture_dffs();
    const auto cmask = L::load(count_mask_);
    const int dff = static_cast<int>(netlist::CellType::kDff);
    for (std::size_t i = 0; i < dffs_.size(); ++i) {
      const std::uint64_t* const next = dff_state_.data() + i * kChunks;
      const auto q = L::load(values_.data() + dffs_[i].q * kChunks);
      if (!L::is_zero(L::bxor(L::load(next), q))) {
        seed(dffs_[i].q, delay_of_type_[dff], rank_of_type_[dff], next,
             cmask);
        ++seeds_;
      }
    }
    std::uint64_t counted = 0;
    for (std::size_t c = 0; c < kChunks; ++c) {
      counted += popcount64(count_mask_[c]);
    }
    activity_.dff_clock_events += dffs_.size() * counted;
    activity_.cycles += counted;
    run_window();
  }

  // --- observation ----------------------------------------------------------
  /// Counters summed over the counted lanes: `net_toggles` are per-net
  /// transitions including glitches, `dff_clock_events` advances by
  /// num_dffs x popcount(count_mask) per step, `cycles` by
  /// popcount(count_mask) — so the totals equal the sum of per-lane scalar
  /// EventSimulator ActivityStats.
  [[nodiscard]] const ActivityStats& activity() const { return activity_; }
  /// Zero the counters (e.g. after a warm-up).
  void clear_activity() {
    std::fill(activity_.net_toggles.begin(), activity_.net_toggles.end(), 0);
    std::fill(activity_.net_functional.begin(), activity_.net_functional.end(),
              0);
    activity_.dff_clock_events = 0;
    activity_.cycles = 0;
  }

  /// Bytes of one transition-list entry: a tick and a lane word.
  static constexpr std::size_t kListEntryBytes = 4 + 8 * kChunks;
  /// List-arena high-water marks since the last rebind, in entries: the
  /// most the arena held at once (live lists plus freed ones not yet
  /// compacted away), and the most that were live at once; end markers
  /// count as entries.
  [[nodiscard]] std::size_t arena_high_water() const {
    return arena_high_water_;
  }
  [[nodiscard]] std::size_t live_high_water() const {
    return live_high_water_;
  }

 private:
  /// Arena entry i is one transition: the net's lane word becomes
  /// words_[i * kChunks ..] at ticks_[i].  Ticks and words are separate
  /// arrays, so the merge scans dense ticks and every lane word keeps
  /// its vector alignment.  A list ends in an entry whose tick is kNever;
  /// entry 0 is a permanent end marker, the cursor of an unchanged net.
  static constexpr std::uint32_t kNever =
      std::numeric_limits<std::uint32_t>::max();
  /// A net's list in the arena: `size` entries from `begin`, then the
  /// end marker; size 0 = no list (the net has not changed this window).
  struct ListRef {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
  };
  /// `merged` values of a WaveOp whose output has several drivers: it
  /// adds to the net's unfiltered stream, and the last driver in the
  /// sweep also turns the stream into the net's list.
  static constexpr std::uint8_t kMergeAdd = 1;
  static constexpr std::uint8_t kMergeLast = 2;
  /// A combinational cell in sweep order, pins flattened (unused pins
  /// read the constant-0 net, which never has a list).
  struct WaveOp {
    netlist::CellType type;
    std::uint8_t merged;  ///< 0, kMergeAdd or kMergeLast
    std::uint32_t delay;  ///< ticks
    netlist::NetId a, b, s, out;
  };
  /// An unfiltered event on a several-driver net, ordered by (tick, rank,
  /// seq) before its no-ops are dropped.
  struct SideEntry {
    netlist::NetId net;
    std::uint32_t tick;
    std::uint32_t rank;
    std::uint32_t seq;
    std::uint64_t w[kChunks];
  };
  struct Staged {
    netlist::NetId net;
    std::uint64_t w[kChunks];
  };
  /// Freed entries always tolerated under live ones, so small windows
  /// never compact.
  static constexpr std::size_t kCompactFloor = 256;
  /// Entries of address space the arena reserves on first use.
  static constexpr std::size_t kArenaReserve = std::size_t{1} << 20;

  /// Derive the sweep tables from wave_order: the ops, each net's retire
  /// slot (slot 0 right after seeding, slot p + 1 after op p), and the
  /// nets with several drivers.
  void bind_sweep() {
    const auto& cells = module_->cells();
    const std::size_t nets = module_->num_nets();
    const std::vector<std::uint32_t>& order = lv_->wave_order;
    ops_.clear();
    ops_.reserve(order.size());
    last_use_.assign(nets, 0);
    driver_slot_.assign(nets, 0);
    merged_.assign(nets, 0);
    for (std::size_t p = 0; p < order.size(); ++p) {
      const netlist::Cell& c = cells[order[p]];
      const SwarOp f = flatten_cell(c);
      const auto slot = static_cast<std::uint32_t>(p + 1);
      ops_.push_back(WaveOp{f.type, 0,
                            delay_of_type_[static_cast<int>(c.type)], f.a, f.b,
                            f.s, f.out});
      const int arity = netlist::cell_num_inputs(c.type);
      for (int k = 0; k < arity; ++k) last_use_[c.in[k]] = slot;
      if (driver_slot_[c.out] != 0) merged_[c.out] = 1;
      driver_slot_[c.out] = slot;
      last_use_[c.out] = slot;
    }
    for (const SwarDffOp& d : dffs_) {
      if (driver_slot_[d.q] != 0) merged_[d.q] = 1;
    }
    for (const netlist::Port& port : module_->input_ports()) {
      for (const netlist::NetId n : port.nets) {
        if (driver_slot_[n] != 0) merged_[n] = 1;
      }
    }
    for (std::size_t p = 0; p < ops_.size(); ++p) {
      const netlist::NetId out = ops_[p].out;
      if (merged_[out] != 0) {
        ops_[p].merged = driver_slot_[out] == p + 1 ? kMergeLast : kMergeAdd;
      }
    }
    // Retire lists: nets bucketed by slot (a counting sort).
    retire_offsets_.assign(ops_.size() + 2, 0);
    for (std::size_t n = 0; n < nets; ++n) ++retire_offsets_[last_use_[n] + 1];
    for (std::size_t s = 0; s + 1 < retire_offsets_.size(); ++s) {
      retire_offsets_[s + 1] += retire_offsets_[s];
    }
    retire_nets_.resize(nets);
    for (std::size_t n = 0; n < nets; ++n) {
      retire_nets_[retire_offsets_[last_use_[n]]++] =
          static_cast<netlist::NetId>(n);
    }
    for (std::size_t s = retire_offsets_.size() - 1; s > 0; --s) {
      retire_offsets_[s] = retire_offsets_[s - 1];
    }
    retire_offsets_[0] = 0;
  }

  /// Drop staged inputs and any list a throwing window left behind.
  void drop_stimulus() {
    pending_inputs_.clear();
    for (const netlist::NetId n : live_nets_) lists_[n].size = 0;
    live_nets_.clear();
    side_.clear();
    side_seq_ = 0;
    top_ = 1;
    live_ = 0;
    seeds_ = 0;
  }

  /// Make room for `n` more entries past top_ (invalidates arena pointers).
  void reserve(std::size_t n) {
    if (top_ + n <= ticks_.size()) return;
    // The first growth reserves address space for kArenaReserve entries:
    // pages are only committed as they are first written, and later
    // growth within it never copies the arena.
    if (ticks_.capacity() == 0) {
      ticks_.reserve(kArenaReserve);
      words_.reserve(kArenaReserve * kChunks);
      ticks_.push_back(kNever);
      words_.resize(kChunks);
    }
    ticks_.resize(top_ + n);
    words_.resize((top_ + n) * kChunks);
  }
  /// Record `size` entries just written at begin (and their end marker)
  /// as `net`'s list.
  void open_list(netlist::NetId net, std::uint32_t begin, std::uint32_t size) {
    ticks_[begin + size] = kNever;
    lists_[net] = ListRef{begin, size};
    top_ = begin + size + 1;
    live_ += size + 1;
    live_nets_.push_back(net);
    arena_high_water_ = std::max(arena_high_water_, top_);
    live_high_water_ = std::max(live_high_water_, live_);
  }

  /// Seed `net` with `w` at `tick`: the net's list opens, or, if already
  /// open (a net staged twice, a Q two DFFs drive), its one entry takes
  /// the newer word.  Toggles count against the word it replaces.
  void seed(netlist::NetId net, std::uint32_t tick, std::uint32_t rank,
            const std::uint64_t* w, typename L::Word cmask) {
    if (merged_[net] != 0) {
      push_side(net, tick, rank, L::load(w));
      return;
    }
    const auto next = L::load(w);
    ListRef& l = lists_[net];
    std::uint64_t* const dst = l.size != 0 ? word(l.begin)
                                           : values_.data() + net * kChunks;
    const auto diff = L::bxor(next, L::load(dst));
    if (L::is_zero(diff)) return;
    activity_.net_toggles[net] += L::popcount(L::band(diff, cmask));
    if (l.size != 0) {
      L::store(dst, next);
      return;
    }
    reserve(2);
    ticks_[top_] = tick;
    L::store(word(top_), next);
    open_list(net, static_cast<std::uint32_t>(top_), 1);
  }

  void push_side(netlist::NetId net, std::uint32_t tick, std::uint32_t rank,
                 typename L::Word w) {
    SideEntry& e = side_.emplace_back();
    e.net = net;
    e.tick = tick;
    e.rank = rank;
    e.seq = side_seq_++;
    L::store(e.w, w);
  }

  /// Turn `net`'s unfiltered stream into its list: merge by (tick, rank,
  /// seq), then drop the entries that change nothing.
  void close_merged(netlist::NetId net, typename L::Word cmask) {
    if (side_.empty()) return;
    std::sort(side_.begin(), side_.end(),
              [](const SideEntry& x, const SideEntry& y) {
                if (x.net != y.net) return x.net < y.net;
                if (x.tick != y.tick) return x.tick < y.tick;
                if (x.rank != y.rank) return x.rank < y.rank;
                return x.seq < y.seq;
              });
    const auto lo = std::lower_bound(
        side_.begin(), side_.end(), net,
        [](const SideEntry& e, netlist::NetId n) { return e.net < n; });
    auto hi = lo;
    while (hi != side_.end() && hi->net == net) ++hi;
    if (lo == hi) return;
    reserve(static_cast<std::size_t>(hi - lo) + 1);
    const auto begin = static_cast<std::uint32_t>(top_);
    std::uint32_t size = 0;
    auto last = L::load(values_.data() + net * kChunks);
    for (auto it = lo; it != hi; ++it) {
      const auto w = L::load(it->w);
      const auto diff = L::bxor(w, last);
      if (L::is_zero(diff)) continue;
      activity_.net_toggles[net] += L::popcount(L::band(diff, cmask));
      ticks_[begin + size] = it->tick;
      L::store(word(begin + size++), w);
      last = w;
    }
    side_.erase(lo, hi);
    if (size != 0) open_list(net, begin, size);
  }

  /// Commit a retiring list: the net's functional count and final word.
  void retire(netlist::NetId net, typename L::Word cmask) {
    ListRef& l = lists_[net];
    if (l.size == 0) return;
    std::uint64_t* const v = values_.data() + net * kChunks;
    const auto end = L::load(word(l.begin + l.size - 1));
    activity_.net_functional[net] +=
        L::popcount(L::band(L::bxor(end, L::load(v)), cmask));
    L::store(v, end);
    live_ -= l.size + 1;
    l.size = 0;
    // Freed lists on top of the arena are reclaimed at once; DFS order
    // retires most lists soon after they open, so this keeps most space
    // in use without moving anything.
    while (!live_nets_.empty() && lists_[live_nets_.back()].size == 0) {
      live_nets_.pop_back();
    }
    top_ = live_nets_.empty() ? 1
                              : lists_[live_nets_.back()].begin +
                                    lists_[live_nets_.back()].size + 1;
  }

  /// Slide the live lists down over the freed ones, in arena order.
  void compact() {
    std::size_t w = 1;
    std::size_t kept = 0;
    for (const netlist::NetId n : live_nets_) {
      ListRef& l = lists_[n];
      if (l.size == 0) continue;
      const std::size_t len = l.size + 1;
      if (l.begin != w) {
        std::copy_n(ticks_.data() + l.begin, len, ticks_.data() + w);
        std::copy_n(word(l.begin), len * kChunks, word(w));
      }
      l.begin = static_cast<std::uint32_t>(w);
      w += len;
      live_nets_[kept++] = n;
    }
    live_nets_.resize(kept);
    top_ = w;
  }

  /// Lane word of arena entry i.
  [[nodiscard]] std::uint64_t* word(std::size_t i) {
    return words_.data() + i * kChunks;
  }
  /// The first entry of `net`'s list, or entry 0 if the net is unchanged.
  [[nodiscard]] std::uint32_t cursor(netlist::NetId net) const {
    const ListRef l = lists_[net];
    return l.size != 0 ? l.begin : 0;
  }

  /// One cell's sweep: merge its inputs' lists, evaluate once per
  /// distinct input-change tick, and append the output's changes.
  template <netlist::CellType T>
  void sweep_cell(const WaveOp& op, typename L::Word cmask,
                  std::uint64_t& evals) {
    constexpr int kArity = T == netlist::CellType::kInv ||
                                   T == netlist::CellType::kBuf
                               ? 1
                           : T == netlist::CellType::kMux2 ? 3
                                                           : 2;
    reserve(std::size_t{lists_[op.a].size} +
            (kArity > 1 ? lists_[op.b].size : 0) +
            (kArity > 2 ? lists_[op.s].size : 0) + 1);
    const std::uint32_t* const ticks = ticks_.data();
    std::uint64_t* const words = words_.data();
    const std::uint64_t* const v = values_.data();
    std::uint32_t ia = cursor(op.a);
    std::uint32_t ib = kArity > 1 ? cursor(op.b) : 0;
    std::uint32_t is = kArity > 2 ? cursor(op.s) : 0;
    auto wa = L::load(v + op.a * kChunks);
    auto wb = kArity > 1 ? L::load(v + op.b * kChunks) : L::zero();
    auto ws = kArity > 2 ? L::load(v + op.s * kChunks) : L::zero();
    auto last = L::load(v + op.out * kChunks);
    const auto begin = static_cast<std::uint32_t>(top_);
    std::uint32_t dst = begin;
    std::uint64_t toggles = 0;
    std::uint64_t n = 0;
    for (;;) {
      std::uint32_t t = ticks[ia];
      if constexpr (kArity > 1) t = std::min(t, ticks[ib]);
      if constexpr (kArity > 2) t = std::min(t, ticks[is]);
      if (t == kNever) break;
      for (; ticks[ia] == t; ++ia) wa = L::load(words + ia * kChunks);
      if constexpr (kArity > 1) {
        for (; ticks[ib] == t; ++ib) wb = L::load(words + ib * kChunks);
      }
      if constexpr (kArity > 2) {
        for (; ticks[is] == t; ++is) ws = L::load(words + is * kChunks);
      }
      const auto out = eval_cell_lanes_w<L>(T, wa, wb, ws);
      ++n;
      const auto diff = L::bxor(out, last);
      if (L::is_zero(diff)) continue;
      ticks_[dst] = t + op.delay;
      L::store(words + dst * kChunks, out);
      ++dst;
      toggles += L::popcount(L::band(diff, cmask));
      last = out;
    }
    evals += n;
    if (dst == begin) return;
    activity_.net_toggles[op.out] += toggles;
    open_list(op.out, begin, dst - begin);
  }

  /// The sweep of a cell driving a several-driver net: every evaluation
  /// joins the net's unfiltered stream.
  void sweep_merged(const WaveOp& op, std::uint64_t& evals) {
    const std::uint64_t* const v = values_.data();
    std::uint32_t i[3] = {cursor(op.a), cursor(op.b), cursor(op.s)};
    typename L::Word w[3] = {L::load(v + op.a * kChunks),
                             L::load(v + op.b * kChunks),
                             L::load(v + op.s * kChunks)};
    for (;;) {
      const std::uint32_t t =
          std::min({ticks_[i[0]], ticks_[i[1]], ticks_[i[2]]});
      if (t == kNever) break;
      for (int k = 0; k < 3; ++k) {
        for (; ticks_[i[k]] == t; ++i[k]) w[k] = L::load(word(i[k]));
      }
      ++evals;
      push_side(op.out, t + op.delay,
                rank_of_type_[static_cast<int>(op.type)],
                eval_cell_lanes_w<L>(op.type, w[0], w[1], w[2]));
    }
  }

  /// One propagation window over the seeded lists (see the header).
  void run_window() {
    const std::uint64_t seeds = seeds_;
    seeds_ = 0;
    if (live_nets_.empty() && side_.empty()) {
      PML_OBS_COUNT("sim.batch_event.events", seeds);
      return;
    }
    const auto cmask = L::load(count_mask_);
    const std::uint64_t max_events =
        std::max<std::uint64_t>(1000, module_->cells().size()) * 4096;
    std::uint64_t evals = 0;
    const auto retire_slot = [&](std::size_t slot) {
      for (std::uint32_t i = retire_offsets_[slot];
           i < retire_offsets_[slot + 1]; ++i) {
        retire(retire_nets_[i], cmask);
      }
    };
    retire_slot(0);
    for (std::size_t p = 0; p < ops_.size(); ++p) {
      const WaveOp& op = ops_[p];
      if ((lists_[op.a].size | lists_[op.b].size | lists_[op.s].size) != 0) {
        if (op.merged != 0) {
          sweep_merged(op, evals);
        } else {
          dispatch(op, cmask, evals);
        }
        if (evals + seeds > max_events) {
          throw std::runtime_error(
              "batch event simulator: event budget exceeded");
        }
      }
      if (op.merged == kMergeLast) close_merged(op.out, cmask);
      retire_slot(p + 1);
      if (top_ - live_ > std::max(live_ / 4, kCompactFloor)) compact();
    }
    // Every list has retired by its slot, so the arena is empty again.
    side_seq_ = 0;
    PML_OBS_COUNT("sim.batch_event.lane_words", evals);
    // One event per evaluation plus the seeds, as a queue engine counts.
    PML_OBS_COUNT("sim.batch_event.events", evals + seeds);
  }

  void dispatch(const WaveOp& op, typename L::Word cmask,
                std::uint64_t& evals) {
    using netlist::CellType;
    switch (op.type) {
      case CellType::kInv:
        return sweep_cell<CellType::kInv>(op, cmask, evals);
      case CellType::kBuf:
        return sweep_cell<CellType::kBuf>(op, cmask, evals);
      case CellType::kNand2:
        return sweep_cell<CellType::kNand2>(op, cmask, evals);
      case CellType::kNor2:
        return sweep_cell<CellType::kNor2>(op, cmask, evals);
      case CellType::kAnd2:
        return sweep_cell<CellType::kAnd2>(op, cmask, evals);
      case CellType::kOr2:
        return sweep_cell<CellType::kOr2>(op, cmask, evals);
      case CellType::kXor2:
        return sweep_cell<CellType::kXor2>(op, cmask, evals);
      case CellType::kXnor2:
        return sweep_cell<CellType::kXnor2>(op, cmask, evals);
      case CellType::kMux2:
        return sweep_cell<CellType::kMux2>(op, cmask, evals);
      case CellType::kDff:
        break;
    }
    throw std::logic_error("batch event simulator: DFF in the sweep");
  }

  void full_settle_zero_delay() {
    // Levelized consistent assignment used for initialization only, in
    // comb_order (mirrors EventSimulator::full_settle_zero_delay, kLanes
    // lanes at a time).
    std::uint64_t* const v = values_.data();
    for (const std::uint32_t idx : lv_->comb_order) {
      const SwarOp op = flatten_cell(module_->cells()[idx]);
      L::store(v + op.out * kChunks,
               eval_cell_lanes_w<L>(op.type, L::load(v + op.a * kChunks),
                                    L::load(v + op.b * kChunks),
                                    L::load(v + op.s * kChunks)));
    }
  }

  std::uint32_t delay_of_type_[netlist::kNumCellTypes] = {};
  std::uint8_t rank_of_type_[netlist::kNumCellTypes] = {};
  // Sweep tables (bind time).
  std::vector<WaveOp> ops_;  ///< wave_order, flattened
  std::vector<std::uint32_t> retire_offsets_;  ///< per slot, into retire_nets_
  std::vector<netlist::NetId> retire_nets_;
  std::vector<std::uint32_t> last_use_;     ///< retire slot per net
  std::vector<std::uint32_t> driver_slot_;  ///< last comb driver's slot, or 0
  std::vector<std::uint8_t> merged_;        ///< several-driver nets
  // Window state.
  std::vector<Staged> pending_inputs_;
  std::uint64_t seeds_ = 0;  ///< seeded events of the opening window
  std::vector<ListRef> lists_;            ///< per net
  /// Every open list, as parallel tick and lane-word arrays.  Page-backed:
  /// an engine built per evaluation gives its arena back to the OS when
  /// it goes (see util::PageAllocator).
  std::vector<std::uint32_t, util::PageAllocator<std::uint32_t>> ticks_;
  std::vector<std::uint64_t, util::PageAllocator<std::uint64_t>> words_;
  std::vector<netlist::NetId> live_nets_;  ///< listed nets, in arena order
  std::vector<SideEntry> side_;           ///< several-driver streams
  std::uint32_t side_seq_ = 0;            ///< push order into side_
  std::size_t top_ = 1;                   ///< arena entries in use
  std::size_t live_ = 0;                  ///< of which in open lists
  std::size_t arena_high_water_ = 0;
  std::size_t live_high_water_ = 0;
  std::uint64_t count_mask_[kChunks] = {};
  ActivityStats activity_;
};

/// The one instantiation: 64 lanes on u64 words.
using BatchEventSimulator = BatchEventSimulatorT<LaneU64>;
extern template class BatchEventSimulatorT<LaneU64>;

}  // namespace pml::sim
