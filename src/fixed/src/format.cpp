#include "pml/fixed/format.hpp"

#include <cmath>
#include <stdexcept>

namespace pml::fixed {

double FixedFormat::lsb() const { return std::ldexp(1.0, -frac_bits); }

double FixedFormat::min_value() const {
  return static_cast<double>(min_code()) * lsb();
}

double FixedFormat::max_value() const {
  return static_cast<double>(max_code()) * lsb();
}

std::string FixedFormat::to_string() const {
  return std::string(is_signed ? "s" : "u")
      .append(std::to_string(total_bits))
      .append("q")
      .append(std::to_string(frac_bits));
}

std::int64_t saturate(std::int64_t code, const FixedFormat& fmt) {
  if (code < fmt.min_code()) return fmt.min_code();
  if (code > fmt.max_code()) return fmt.max_code();
  return code;
}

std::int64_t quantize(double value, const FixedFormat& fmt, Rounding rounding) {
  if (fmt.total_bits < 1 || fmt.total_bits > 62) {
    throw std::invalid_argument("FixedFormat total_bits out of range [1,62]");
  }
  const double scaled = std::ldexp(value, fmt.frac_bits);
  double rounded = 0.0;
  switch (rounding) {
    case Rounding::kNearest:
      rounded = std::round(scaled);
      break;
    case Rounding::kTruncate:
      rounded = std::floor(scaled);
      break;
  }
  // Clamp through double before the int64 conversion to avoid UB on huge
  // inputs, then saturate precisely in integer space.
  const double lo = static_cast<double>(fmt.min_code());
  const double hi = static_cast<double>(fmt.max_code());
  if (rounded < lo) rounded = lo;
  if (rounded > hi) rounded = hi;
  return saturate(static_cast<std::int64_t>(rounded), fmt);
}

double dequantize(std::int64_t code, const FixedFormat& fmt) {
  return std::ldexp(static_cast<double>(code), -fmt.frac_bits);
}

double quantize_value(double value, const FixedFormat& fmt, Rounding rounding) {
  return dequantize(quantize(value, fmt, rounding), fmt);
}

int bits_for_code(std::int64_t code) {
  // Width of the minimal two's complement representation including sign.
  if (code == 0) return 1;
  if (code > 0) {
    int bits = 0;
    std::int64_t v = code;
    while (v != 0) {
      ++bits;
      v >>= 1;
    }
    return bits + 1;  // positive values need a leading 0 sign bit
  }
  // Negative: find the smallest width w with code >= -(1 << (w-1)).
  int w = 1;
  while (code < -(std::int64_t{1} << (w - 1))) ++w;
  return w;
}

std::int64_t sign_extend(std::uint64_t raw, int bits) {
  if (bits <= 0 || bits > 63) {
    throw std::invalid_argument("sign_extend bits out of range [1,63]");
  }
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  raw &= mask;
  const std::uint64_t sign = std::uint64_t{1} << (bits - 1);
  if (raw & sign) {
    return static_cast<std::int64_t>(raw | ~mask);
  }
  return static_cast<std::int64_t>(raw);
}

bool code_bit(std::int64_t code, int i) {
  return ((static_cast<std::uint64_t>(code) >> i) & 1u) != 0;
}

}  // namespace pml::fixed
