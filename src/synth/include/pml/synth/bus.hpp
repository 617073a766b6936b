#pragma once
// Bit-vector ("bus") abstraction over netlist nets.
//
// A Bus is an ordered list of nets, LSB first.  Signedness is a property
// of the *operation*, not the bus: callers pick signed/unsigned variants.
// All datapath generators in pml::synth consume and produce buses.

#include <cstdint>
#include <vector>

#include "pml/netlist/module.hpp"

namespace pml::synth {

struct Bus {
  std::vector<netlist::NetId> bits;  // LSB first

  Bus() = default;
  explicit Bus(std::vector<netlist::NetId> b) : bits(std::move(b)) {}

  [[nodiscard]] int width() const { return static_cast<int>(bits.size()); }
  [[nodiscard]] netlist::NetId lsb() const { return bits.front(); }
  [[nodiscard]] netlist::NetId msb() const { return bits.back(); }
  [[nodiscard]] netlist::NetId operator[](int i) const {
    return bits[static_cast<std::size_t>(i)];
  }
};

/// Bus of constant nets encoding `value` (two's complement, LSB first).
[[nodiscard]] Bus constant_bus(std::int64_t value, int width);

/// Zero-extend (or truncate) to `width`.
[[nodiscard]] Bus zext(const Bus& a, int width);

/// Sign-extend (or truncate) to `width`; replicates the MSB net — free in
/// hardware, the fanout cost shows up in loading.
[[nodiscard]] Bus sext(const Bus& a, int width);

/// Logical shift left by `amount` (appends constant-0 LSBs).
[[nodiscard]] Bus shl(const Bus& a, int amount);

/// Drop the `amount` least significant bits (arithmetic shift right keeps
/// signedness because the MSB is untouched).
[[nodiscard]] Bus drop_lsbs(const Bus& a, int amount);

/// bits [lo, lo+len) of `a`.
[[nodiscard]] Bus slice(const Bus& a, int lo, int len);

/// Bitwise invert.
[[nodiscard]] Bus invert(netlist::Module& m, const Bus& a);

}  // namespace pml::synth
