#pragma once
// Delay-accurate event-driven simulator.
//
// Gates have (quantized) real propagation delays from the cell library, so
// unequal path depths produce *glitches*: a gate whose inputs settle at
// different times emits spurious transitions before reaching its final
// value.  In deep parallel arithmetic (ripple adders feeding adder trees
// feeding voter trees) glitch transitions dominate switching energy — the
// structural reason the paper's folded sequential engine wins on energy.
// This simulator counts every transition per net; the power model turns
// those counts into dynamic energy.
//
// Functional results are identical to CycleSimulator (both are verified
// against each other in tests); only the transition counts differ.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pml/cells/library.hpp"
#include "pml/netlist/module.hpp"
#include "pml/sim/levelize.hpp"

namespace pml::sim {

/// Transition counts accumulated by an Event/BatchEvent simulator.
struct ActivityStats {
  /// Transitions per net, including glitches.
  std::vector<std::uint64_t> net_toggles;
  /// Functional subset of `net_toggles`: a net contributes at most one
  /// functional transition per propagation window (one settle, or one of
  /// the two phases of a clocked step) — the value change that survives
  /// when the window goes quiet.  Everything else a delay-skewed path
  /// produced in between is a glitch:
  ///   glitches per net = net_toggles[n] - net_functional[n]  (>= 0).
  /// The split is what the glitch-aware optimization flows minimize.
  std::vector<std::uint64_t> net_functional;
  /// Total DFF clock events (num_dffs x cycles) — clock tree energy.
  std::uint64_t dff_clock_events = 0;
  /// Clock cycles simulated (summed over counted lanes under batching).
  std::uint64_t cycles = 0;

  /// Element-wise accumulation, used to merge the per-worker stats of
  /// sharded batch-event activity collection (and to sum per-lane scalar
  /// runs in the equivalence tests).  Commutative and associative, so the
  /// merged totals are independent of worker scheduling.
  void accumulate(const ActivityStats& other);
};

class EventSimulator {
 public:
  /// `time_quantum_ms` converts library delays to integer ticks;
  /// the default resolves a NAND2 delay into ~19 ticks.
  EventSimulator(const netlist::Module& module, const cells::CellLibrary& lib,
                 double time_quantum_ms = 0.01);
  /// Reuse a previously derived levelization instead of re-deriving one.
  EventSimulator(const netlist::Module& module, const cells::CellLibrary& lib,
                 double time_quantum_ms,
                 std::shared_ptr<const Levelization> lv);

  /// Reset DFFs to power-on state, zero all nets, re-settle (no counting).
  void reset();

  /// Stage a primary-input change; takes effect at the start of the next
  /// settle()/step() as a time-0 event.
  void set_port(const std::string& name, std::uint64_t value);
  void set_port(const netlist::Port& port, std::uint64_t value);
  void set_net(netlist::NetId net, bool value);

  /// Propagate all pending events until the network is quiet.
  void settle();
  /// settle(), then clock all DFFs; Q updates become events next cycle.
  void step();

  [[nodiscard]] bool net(netlist::NetId n) const { return values_[n] != 0; }
  [[nodiscard]] std::uint64_t port_unsigned(const std::string& name) const;
  [[nodiscard]] std::int64_t port_signed(const std::string& name) const;

  [[nodiscard]] const ActivityStats& activity() const { return activity_; }
  /// Zero the transition counters (e.g. after a warm-up evaluation).
  void clear_activity();

  [[nodiscard]] const netlist::Module& module() const { return module_; }

 private:
  /// Events due at one time apply in the order they were scheduled
  /// (`seq`), so an input staged twice, or a net two drivers reach at
  /// one tick, ends as the later event says.
  struct Event {
    std::int64_t time;
    std::uint64_t seq;
    netlist::NetId net;
    std::uint8_t value;
    [[nodiscard]] bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  void schedule(std::int64_t time, netlist::NetId net, std::uint8_t value);

  void run_events(bool count);
  void full_settle_zero_delay();

  const netlist::Module& module_;
  std::shared_ptr<const Levelization> lv_;
  std::vector<int> delay_ticks_;  // per cell type
  std::vector<std::uint8_t> values_;
  std::vector<std::uint8_t> dff_state_;
  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;  ///< scheduling order of the next event
  std::vector<std::pair<netlist::NetId, std::uint8_t>> pending_inputs_;
  std::vector<std::uint32_t> touched_cells_;   // dedup scratch
  std::vector<std::uint64_t> cell_epoch_;      // dedup stamps
  std::uint64_t epoch_ = 0;
  // Per-propagation-window bookkeeping for the functional/glitch split:
  // the value each touched net held when the window opened.
  std::vector<std::uint8_t> window_start_;
  std::vector<std::uint64_t> net_window_epoch_;
  std::vector<netlist::NetId> window_nets_;
  std::uint64_t window_epoch_ = 0;
  ActivityStats activity_;
};

}  // namespace pml::sim
