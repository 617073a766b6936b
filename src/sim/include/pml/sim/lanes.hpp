#pragma once
// Lane-word traits: the word type the SWAR engines are templated on.
//
// Every batch simulator packs one independent simulation per *lane* and
// stores each net's lanes as a fixed number of std::uint64_t *chunks*
// (chunk c holds lanes [64c, 64c+64)).  A LaneWord trait supplies the
// register type and the bitwise kernel ops over one whole lane word:
//
//   LaneU64    — 64 lanes,  one chunk,  plain scalar SWAR (always built;
//                the oracle-adjacent reference every wider backend must
//                match bit for bit)
//   LaneAvx2   — 256 lanes, 4 chunks,  __m256i (built in TUs compiled
//                with -mavx2 only)
//   LaneAvx512 — 512 lanes, 8 chunks,  __m512i (built in TUs compiled
//                with -mavx512f only)
//
// Keeping the *storage* as uint64_t chunks (vector registers appear only
// transiently inside hot loops, via unaligned load/store) is what lets
// all cold-path code — per-lane pokes, port transposes, masks — stay
// width-generic scalar code, keeps std::vector allocation alignment-
// agnostic, and makes a lane's bit position identical across backends:
// lane L lives in chunk L/64, bit L%64, always.
//
// The vector traits are guarded so this header parses in every TU; only
// TUs compiled with the matching -m flag see (or may instantiate
// templates on) them.  Runtime selection lives in sim/backend.hpp.

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace pml::sim {

/// Chunk index / bit mask of one lane inside chunked uint64_t storage.
[[nodiscard]] inline constexpr std::size_t lane_chunk(std::size_t lane) {
  return lane >> 6;
}
[[nodiscard]] inline constexpr std::uint64_t lane_bit(std::size_t lane) {
  return std::uint64_t{1} << (lane & 63);
}

/// Set bits of one 64-bit chunk.  A build for baseline x86-64 has no
/// POPCNT instruction, and std::popcount there is a libgcc call
/// (__popcountdi2) in the middle of every hot loop; the branch-free SWAR
/// count below inlines instead and returns the same value.  TUs compiled
/// with POPCNT (the -mavx2 / -mavx512f backend TUs imply it) use the
/// instruction.
[[nodiscard]] inline constexpr std::uint64_t popcount64(std::uint64_t x) {
#if defined(__POPCNT__)
  return static_cast<std::uint64_t>(std::popcount(x));
#else
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return (x * 0x0101010101010101ull) >> 56;
#endif
}

/// Write the chunked mask with lanes [0, count) set into mask[0, chunks)
/// (the active / counted lanes of a ragged batch).
inline void prefix_lane_mask(std::size_t count, std::uint64_t* mask,
                             std::size_t chunks) {
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * 64;
    mask[c] = count >= lo + 64 ? ~std::uint64_t{0}
              : count <= lo    ? 0
                               : (std::uint64_t{1} << (count - lo)) - 1;
  }
}

/// Read / write one lane of a chunked lane word (scalar cold-path helper).
[[nodiscard]] inline bool extract_lane(const std::uint64_t* chunks,
                                       std::size_t lane) {
  return (chunks[lane_chunk(lane)] & lane_bit(lane)) != 0;
}
inline void insert_lane(std::uint64_t* chunks, std::size_t lane, bool value) {
  if (value) {
    chunks[lane_chunk(lane)] |= lane_bit(lane);
  } else {
    chunks[lane_chunk(lane)] &= ~lane_bit(lane);
  }
}

/// The operations a SWAR lane-word backend must supply.  All ops are pure
/// bitwise functions of whole words — nothing may mix bits across lanes
/// (SWAR invariant 1, docs/architecture.md).
template <class L>
concept LaneWord = requires(typename L::Word w, const std::uint64_t* src,
                            std::uint64_t* dst, bool bit) {
  requires L::kWidth == 64 * L::kChunks;
  { L::load(src) } -> std::same_as<typename L::Word>;
  { L::store(dst, w) } -> std::same_as<void>;
  { L::zero() } -> std::same_as<typename L::Word>;
  { L::ones() } -> std::same_as<typename L::Word>;
  { L::broadcast(bit) } -> std::same_as<typename L::Word>;
  { L::band(w, w) } -> std::same_as<typename L::Word>;
  { L::bor(w, w) } -> std::same_as<typename L::Word>;
  { L::bxor(w, w) } -> std::same_as<typename L::Word>;
  { L::bnot(w) } -> std::same_as<typename L::Word>;
  { L::andnot(w, w) } -> std::same_as<typename L::Word>;
  { L::is_zero(w) } -> std::same_as<bool>;
  { L::popcount(w) } -> std::same_as<std::uint64_t>;
};

/// 64-lane scalar SWAR reference backend: the word IS the chunk.
struct LaneU64 {
  using Word = std::uint64_t;
  static constexpr std::size_t kWidth = 64;
  static constexpr std::size_t kChunks = 1;

  static Word load(const std::uint64_t* p) { return *p; }
  static void store(std::uint64_t* p, Word w) { *p = w; }
  static Word zero() { return 0; }
  static Word ones() { return ~std::uint64_t{0}; }
  static Word broadcast(bool bit) { return bit ? ones() : zero(); }
  static Word band(Word a, Word b) { return a & b; }
  static Word bor(Word a, Word b) { return a | b; }
  static Word bxor(Word a, Word b) { return a ^ b; }
  static Word bnot(Word a) { return ~a; }
  /// a & ~b (named after the hardware op the vector backends map it to).
  static Word andnot(Word a, Word b) { return a & ~b; }
  static bool is_zero(Word a) { return a == 0; }
  static std::uint64_t popcount(Word a) { return popcount64(a); }
};
static_assert(LaneWord<LaneU64>);

#if defined(__AVX2__)
/// 256-lane AVX2 backend.  Only TUs compiled with -mavx2 may instantiate
/// templates on it (src/core/src/backends/backend_avx2.cpp).
struct LaneAvx2 {
  using Word = __m256i;
  static constexpr std::size_t kWidth = 256;
  static constexpr std::size_t kChunks = 4;

  static Word load(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint64_t* p, Word w) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), w);
  }
  static Word zero() { return _mm256_setzero_si256(); }
  static Word ones() { return _mm256_set1_epi64x(-1); }
  static Word broadcast(bool bit) { return bit ? ones() : zero(); }
  static Word band(Word a, Word b) { return _mm256_and_si256(a, b); }
  static Word bor(Word a, Word b) { return _mm256_or_si256(a, b); }
  static Word bxor(Word a, Word b) { return _mm256_xor_si256(a, b); }
  static Word bnot(Word a) { return _mm256_xor_si256(a, ones()); }
  /// a & ~b (the intrinsic negates its FIRST operand, hence the swap).
  static Word andnot(Word a, Word b) { return _mm256_andnot_si256(b, a); }
  static bool is_zero(Word a) { return _mm256_testz_si256(a, a) != 0; }
  static std::uint64_t popcount(Word a) {
    alignas(32) std::uint64_t c[kChunks];
    _mm256_store_si256(reinterpret_cast<__m256i*>(c), a);
    return popcount64(c[0]) + popcount64(c[1]) + popcount64(c[2]) +
           popcount64(c[3]);
  }
};
static_assert(LaneWord<LaneAvx2>);
#endif  // __AVX2__

#if defined(__AVX512F__)
/// 512-lane AVX-512 backend (-mavx512f suffices: no BW/DQ ops are used).
/// Only TUs compiled with -mavx512f may instantiate templates on it
/// (src/core/src/backends/backend_avx512.cpp).
struct LaneAvx512 {
  using Word = __m512i;
  static constexpr std::size_t kWidth = 512;
  static constexpr std::size_t kChunks = 8;

  static Word load(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
  static void store(std::uint64_t* p, Word w) { _mm512_storeu_si512(p, w); }
  static Word zero() { return _mm512_setzero_si512(); }
  static Word ones() { return _mm512_set1_epi64(-1); }
  static Word broadcast(bool bit) { return bit ? ones() : zero(); }
  static Word band(Word a, Word b) { return _mm512_and_si512(a, b); }
  static Word bor(Word a, Word b) { return _mm512_or_si512(a, b); }
  static Word bxor(Word a, Word b) { return _mm512_xor_si512(a, b); }
  static Word bnot(Word a) { return _mm512_xor_si512(a, ones()); }
  /// a & ~b as a ternary-logic truth table (0x30 = A & ~B).  GCC 12's
  /// _mm512_andnot_si512 reads an undefined passthrough operand and
  /// trips -Wmaybe-uninitialized in every loop it is inlined into.
  static Word andnot(Word a, Word b) {
    return _mm512_ternarylogic_epi64(a, b, b, 0x30);
  }
  static bool is_zero(Word a) { return _mm512_test_epi64_mask(a, a) == 0; }
  static std::uint64_t popcount(Word a) {
    alignas(64) std::uint64_t c[kChunks];
    _mm512_store_si512(c, a);
    std::uint64_t n = 0;
    for (const std::uint64_t v : c) n += popcount64(v);
    return n;
  }
};
static_assert(LaneWord<LaneAvx512>);
#endif  // __AVX512F__

}  // namespace pml::sim
