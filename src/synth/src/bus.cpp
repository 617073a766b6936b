#include "pml/synth/bus.hpp"

#include <stdexcept>

namespace pml::synth {

using netlist::kConst0;
using netlist::kConst1;
using netlist::NetId;

Bus constant_bus(std::int64_t value, int width) {
  if (width <= 0 || width > 63) {
    throw std::invalid_argument("constant_bus: width out of range");
  }
  Bus out;
  out.bits.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    out.bits.push_back(((value >> i) & 1) ? kConst1 : kConst0);
  }
  return out;
}

Bus zext(const Bus& a, int width) {
  Bus out = a;
  out.bits.resize(static_cast<std::size_t>(width), kConst0);
  return out;
}

Bus sext(const Bus& a, int width) {
  if (a.bits.empty()) throw std::invalid_argument("sext: empty bus");
  Bus out = a;
  out.bits.resize(static_cast<std::size_t>(width), a.msb());
  if (width < a.width()) out.bits.resize(static_cast<std::size_t>(width));
  return out;
}

Bus shl(const Bus& a, int amount) {
  if (amount < 0) throw std::invalid_argument("shl: negative amount");
  Bus out;
  out.bits.assign(static_cast<std::size_t>(amount), kConst0);
  out.bits.insert(out.bits.end(), a.bits.begin(), a.bits.end());
  return out;
}

Bus drop_lsbs(const Bus& a, int amount) {
  if (amount < 0 || amount >= a.width()) {
    throw std::invalid_argument("drop_lsbs: bad amount");
  }
  Bus out;
  out.bits.assign(a.bits.begin() + amount, a.bits.end());
  return out;
}

Bus slice(const Bus& a, int lo, int len) {
  if (lo < 0 || len <= 0 || lo + len > a.width()) {
    throw std::invalid_argument("slice: out of range");
  }
  Bus out;
  out.bits.assign(a.bits.begin() + lo, a.bits.begin() + lo + len);
  return out;
}

Bus invert(netlist::Module& m, const Bus& a) {
  Bus out;
  out.bits.reserve(a.bits.size());
  for (NetId n : a.bits) out.bits.push_back(m.inv(n));
  return out;
}

}  // namespace pml::synth
