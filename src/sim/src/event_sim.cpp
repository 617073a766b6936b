#include "pml/sim/event_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pml::sim {

void ActivityStats::accumulate(const ActivityStats& other) {
  if (net_toggles.size() < other.net_toggles.size()) {
    net_toggles.resize(other.net_toggles.size(), 0);
  }
  for (std::size_t i = 0; i < other.net_toggles.size(); ++i) {
    net_toggles[i] += other.net_toggles[i];
  }
  if (net_functional.size() < other.net_functional.size()) {
    net_functional.resize(other.net_functional.size(), 0);
  }
  for (std::size_t i = 0; i < other.net_functional.size(); ++i) {
    net_functional[i] += other.net_functional[i];
  }
  dff_clock_events += other.dff_clock_events;
  cycles += other.cycles;
}

using netlist::Cell;
using netlist::CellType;
using netlist::NetId;
using netlist::Port;

EventSimulator::EventSimulator(const netlist::Module& module,
                               const cells::CellLibrary& lib,
                               double time_quantum_ms)
    : EventSimulator(module, lib, time_quantum_ms, levelize_shared(module)) {}

EventSimulator::EventSimulator(const netlist::Module& module,
                               const cells::CellLibrary& lib,
                               double time_quantum_ms,
                               std::shared_ptr<const Levelization> lv)
    : module_(module), lv_(std::move(lv)) {
  if (lv_ == nullptr) {
    throw std::invalid_argument("EventSimulator: null levelization");
  }
  if (time_quantum_ms <= 0) {
    throw std::invalid_argument("time quantum must be positive");
  }
  delay_ticks_.resize(netlist::kNumCellTypes);
  for (int t = 0; t < netlist::kNumCellTypes; ++t) {
    const double d = lib.params(static_cast<CellType>(t)).delay_ms;
    delay_ticks_[t] = std::max(1, static_cast<int>(std::lround(d / time_quantum_ms)));
  }
  values_.assign(module.num_nets(), 0);
  dff_state_.assign(lv_->dffs.size(), 0);
  cell_epoch_.assign(module.cells().size(), 0);
  window_start_.assign(module.num_nets(), 0);
  net_window_epoch_.assign(module.num_nets(), 0);
  activity_.net_toggles.assign(module.num_nets(), 0);
  activity_.net_functional.assign(module.num_nets(), 0);
  reset();
}

void EventSimulator::reset() {
  std::fill(values_.begin(), values_.end(), 0);
  values_[netlist::kConst1] = 1;
  const auto& cells = module_.cells();
  for (std::size_t i = 0; i < lv_->dffs.size(); ++i) {
    const Cell& c = cells[lv_->dffs[i]];
    dff_state_[i] = c.dff_init ? 1 : 0;
    values_[c.out] = dff_state_[i];
  }
  heap_.clear();
  pending_inputs_.clear();
  full_settle_zero_delay();
  clear_activity();
}

void EventSimulator::clear_activity() {
  std::fill(activity_.net_toggles.begin(), activity_.net_toggles.end(), 0);
  std::fill(activity_.net_functional.begin(), activity_.net_functional.end(),
            0);
  activity_.dff_clock_events = 0;
  activity_.cycles = 0;
}

void EventSimulator::full_settle_zero_delay() {
  // Levelized consistent assignment used for initialization only.
  const auto& cells = module_.cells();
  for (const std::uint32_t idx : lv_->comb_order) {
    const Cell& c = cells[idx];
    const bool a = values_[c.in[0]] != 0;
    const bool b = c.in[1] != netlist::kInvalidNet && values_[c.in[1]] != 0;
    const bool s = c.in[2] != netlist::kInvalidNet && values_[c.in[2]] != 0;
    values_[c.out] = netlist::eval_cell(c.type, a, b, s) ? 1 : 0;
  }
}

void EventSimulator::set_net(NetId net, bool value) {
  if (net >= values_.size()) throw std::out_of_range("set_net: bad net");
  pending_inputs_.emplace_back(net, value ? 1 : 0);
}

void EventSimulator::set_port(const Port& port, std::uint64_t value) {
  for (std::size_t i = 0; i < port.nets.size(); ++i) {
    set_net(port.nets[i], ((value >> i) & 1u) != 0);
  }
}

void EventSimulator::set_port(const std::string& name, std::uint64_t value) {
  const Port* port = module_.find_input(name);
  if (port == nullptr) throw std::invalid_argument("no input port: " + name);
  set_port(*port, value);
}

void EventSimulator::schedule(std::int64_t time, NetId net,
                              std::uint8_t value) {
  heap_.push_back(Event{time, next_seq_++, net, value});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
}

void EventSimulator::run_events(bool count) {
  const auto& cells = module_.cells();
  auto cmp = std::greater<Event>{};
  std::uint64_t guard = 0;
  const std::uint64_t kMaxEvents =
      std::max<std::uint64_t>(1000, module_.cells().size()) * 4096;

  // One counted run_events call is one propagation window of the
  // functional/glitch split: a net's start-of-window value is captured on
  // its first transition, and the window's end settles the verdict.
  if (count) {
    ++window_epoch_;
    window_nets_.clear();
  }

  while (!heap_.empty()) {
    const std::int64_t now = heap_.front().time;
    // Phase 1: apply all net changes scheduled for `now`.
    touched_cells_.clear();
    ++epoch_;
    while (!heap_.empty() && heap_.front().time == now) {
      std::pop_heap(heap_.begin(), heap_.end(), cmp);
      const Event ev = heap_.back();
      heap_.pop_back();
      if (++guard > kMaxEvents) {
        throw std::runtime_error("event simulator: event budget exceeded");
      }
      if (values_[ev.net] == ev.value) continue;
      if (count) {
        ++activity_.net_toggles[ev.net];
        if (net_window_epoch_[ev.net] != window_epoch_) {
          net_window_epoch_[ev.net] = window_epoch_;
          window_start_[ev.net] = values_[ev.net];
          window_nets_.push_back(ev.net);
        }
      }
      values_[ev.net] = ev.value;
      for (const std::uint32_t ci : lv_->fanout(ev.net)) {
        if (cells[ci].type == CellType::kDff) continue;
        if (cell_epoch_[ci] != epoch_) {
          cell_epoch_[ci] = epoch_;
          touched_cells_.push_back(ci);
        }
      }
    }
    // Phase 2: re-evaluate each affected gate once; schedule its response.
    for (const std::uint32_t ci : touched_cells_) {
      const Cell& c = cells[ci];
      const bool a = values_[c.in[0]] != 0;
      const bool b = c.in[1] != netlist::kInvalidNet && values_[c.in[1]] != 0;
      const bool s = c.in[2] != netlist::kInvalidNet && values_[c.in[2]] != 0;
      const std::uint8_t v = netlist::eval_cell(c.type, a, b, s) ? 1 : 0;
      schedule(now + delay_ticks_[static_cast<int>(c.type)], c.out, v);
    }
  }

  if (count) {
    for (const NetId net : window_nets_) {
      if (values_[net] != window_start_[net]) ++activity_.net_functional[net];
    }
  }
}

void EventSimulator::settle() {
  for (const auto& [net, value] : pending_inputs_) schedule(0, net, value);
  pending_inputs_.clear();
  run_events(/*count=*/true);
}

void EventSimulator::step() {
  settle();
  const auto& cells = module_.cells();
  const int dff_delay = delay_ticks_[static_cast<int>(CellType::kDff)];
  for (std::size_t i = 0; i < lv_->dffs.size(); ++i) {
    dff_state_[i] = values_[cells[lv_->dffs[i]].in[0]];
  }
  for (std::size_t i = 0; i < lv_->dffs.size(); ++i) {
    const Cell& c = cells[lv_->dffs[i]];
    if (values_[c.out] != dff_state_[i]) {
      schedule(dff_delay, c.out, dff_state_[i]);
    }
  }
  activity_.dff_clock_events += lv_->dffs.size();
  ++activity_.cycles;
  run_events(/*count=*/true);
}

std::uint64_t EventSimulator::port_unsigned(const std::string& name) const {
  const Port* port = module_.find_output(name);
  if (port == nullptr) port = module_.find_input(name);
  if (port == nullptr) throw std::invalid_argument("no port: " + name);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < port->nets.size(); ++i) {
    if (values_[port->nets[i]]) v |= (std::uint64_t{1} << i);
  }
  return v;
}

std::int64_t EventSimulator::port_signed(const std::string& name) const {
  const Port* port = module_.find_output(name);
  if (port == nullptr) port = module_.find_input(name);
  if (port == nullptr) throw std::invalid_argument("no port: " + name);
  const std::uint64_t raw = port_unsigned(name);
  const int bits = static_cast<int>(port->nets.size());
  const std::uint64_t sign = std::uint64_t{1} << (bits - 1);
  if (bits < 64 && (raw & sign)) {
    return static_cast<std::int64_t>(raw | ~((std::uint64_t{1} << bits) - 1));
  }
  return static_cast<std::int64_t>(raw);
}

}  // namespace pml::sim
