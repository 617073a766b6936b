// Datapath arithmetic: exhaustive correctness of adders, subtractors,
// comparators, reductions over small widths (property-style sweeps).

#include <gtest/gtest.h>

#include "pml/netlist/module.hpp"
#include "pml/sim/levelize.hpp"
#include "pml/synth/arith.hpp"
#include "sim_test_util.hpp"

namespace pml::synth {
namespace {

using netlist::Module;
using testutil::Harness;

std::int64_t sext_val(std::uint64_t raw, int bits) {
  const std::int64_t v = static_cast<std::int64_t>(raw);
  return (raw & (1ull << (bits - 1))) ? v - (std::int64_t{1} << bits) : v;
}

class WidthPair : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(WidthPair, AddSignedExhaustive) {
  const auto [wa, wb] = GetParam();
  Module m;
  const Bus a{m.add_input_port("a", wa)};
  const Bus b{m.add_input_port("b", wb)};
  const Bus sum = add_signed(m, a, b);
  EXPECT_EQ(sum.width(), std::max(wa, wb) + 1);
  Harness h(m);
  for (std::uint64_t ra = 0; ra < (1ull << wa); ++ra) {
    for (std::uint64_t rb = 0; rb < (1ull << wb); ++rb) {
      h.set("a", ra);
      h.set("b", rb);
      h.run();
      EXPECT_EQ(h.signed_of(sum), sext_val(ra, wa) + sext_val(rb, wb))
          << wa << "x" << wb << ": " << ra << " + " << rb;
    }
  }
}

TEST_P(WidthPair, SubSignedExhaustive) {
  const auto [wa, wb] = GetParam();
  Module m;
  const Bus a{m.add_input_port("a", wa)};
  const Bus b{m.add_input_port("b", wb)};
  const Bus diff = sub_signed(m, a, b);
  Harness h(m);
  for (std::uint64_t ra = 0; ra < (1ull << wa); ++ra) {
    for (std::uint64_t rb = 0; rb < (1ull << wb); ++rb) {
      h.set("a", ra);
      h.set("b", rb);
      h.run();
      EXPECT_EQ(h.signed_of(diff), sext_val(ra, wa) - sext_val(rb, wb));
    }
  }
}

TEST_P(WidthPair, AddUnsignedExhaustive) {
  const auto [wa, wb] = GetParam();
  Module m;
  const Bus a{m.add_input_port("a", wa)};
  const Bus b{m.add_input_port("b", wb)};
  const Bus sum = add_unsigned(m, a, b);
  Harness h(m);
  for (std::uint64_t ra = 0; ra < (1ull << wa); ++ra) {
    for (std::uint64_t rb = 0; rb < (1ull << wb); ++rb) {
      h.set("a", ra);
      h.set("b", rb);
      h.run();
      EXPECT_EQ(h.unsigned_of(sum), ra + rb);
    }
  }
}

TEST_P(WidthPair, ComparatorsExhaustive) {
  const auto [wa, wb] = GetParam();
  Module m;
  const Bus a{m.add_input_port("a", wa)};
  const Bus b{m.add_input_port("b", wb)};
  const auto gt = greater_signed(m, a, b);
  const auto ge = greater_equal_signed(m, a, b);
  const auto gtu = greater_unsigned(m, a, b);
  const auto eq = equal_unsigned(m, a, b);
  Harness h(m);
  for (std::uint64_t ra = 0; ra < (1ull << wa); ++ra) {
    for (std::uint64_t rb = 0; rb < (1ull << wb); ++rb) {
      h.set("a", ra);
      h.set("b", rb);
      h.run();
      const std::int64_t sa = sext_val(ra, wa), sb = sext_val(rb, wb);
      EXPECT_EQ(h.net(gt), sa > sb);
      EXPECT_EQ(h.net(ge), sa >= sb);
      EXPECT_EQ(h.net(gtu), ra > rb);
      EXPECT_EQ(h.net(eq), ra == rb);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthPair,
                         ::testing::Values(std::make_pair(1, 1),
                                           std::make_pair(2, 2),
                                           std::make_pair(3, 3),
                                           std::make_pair(4, 4),
                                           std::make_pair(2, 5),
                                           std::make_pair(5, 2),
                                           std::make_pair(6, 6)));

TEST(Negate, Exhaustive) {
  Module m;
  const Bus a{m.add_input_port("a", 5)};
  const Bus n = negate(m, a);
  Harness h(m);
  for (std::uint64_t ra = 0; ra < 32; ++ra) {
    h.set("a", ra);
    h.run();
    EXPECT_EQ(h.signed_of(n), -sext_val(ra, 5));
  }
}

class TreeSize : public ::testing::TestWithParam<int> {};

TEST_P(TreeSize, AdderTreeMatchesSum) {
  const int k = GetParam();
  Module m;
  std::vector<Bus> ops;
  for (int i = 0; i < k; ++i) {
    ops.push_back(
        Bus{m.add_input_port(std::string("x").append(std::to_string(i)), 4)});
  }
  const Bus sum = adder_tree_signed(m, ops);
  Harness h(m);
  // Pseudo-random operand patterns.
  std::uint64_t s = 0x1234567 + static_cast<std::uint64_t>(k);
  for (int trial = 0; trial < 40; ++trial) {
    std::int64_t expected = 0;
    for (int i = 0; i < k; ++i) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t r = (s >> 33) & 0xF;
      h.set(std::string("x").append(std::to_string(i)), r);
      expected += sext_val(r, 4);
    }
    h.run();
    EXPECT_EQ(h.signed_of(sum), expected) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(OperandCounts, TreeSize,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 32));

TEST(AdderChain, MatchesTreeFunctionally) {
  Module mt, mc;
  std::vector<Bus> ops_t, ops_c;
  for (int i = 0; i < 7; ++i) {
    ops_t.push_back(
        Bus{mt.add_input_port(std::string("x").append(std::to_string(i)), 4)});
    ops_c.push_back(
        Bus{mc.add_input_port(std::string("x").append(std::to_string(i)), 4)});
  }
  const Bus sum_t = adder_tree_signed(mt, ops_t);
  const Bus sum_c = adder_chain_signed(mc, ops_c);
  Harness ht(mt), hc(mc);
  std::uint64_t s = 99;
  for (int trial = 0; trial < 50; ++trial) {
    std::int64_t expected = 0;
    for (int i = 0; i < 7; ++i) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t r = (s >> 33) & 0xF;
      ht.set(std::string("x").append(std::to_string(i)), r);
      hc.set(std::string("x").append(std::to_string(i)), r);
      expected += sext_val(r, 4);
    }
    ht.run();
    hc.run();
    EXPECT_EQ(ht.signed_of(sum_t), expected);
    EXPECT_EQ(hc.signed_of(sum_c), expected);
  }
}

TEST(AdderChain, DeeperThanTree) {
  // The chain's linear depth vs the tree's logarithmic depth is the
  // structural reason the parallel baselines clock slower (see
  // arch::Accumulator).
  auto depth_of = [](bool chain) {
    Module m;
    std::vector<Bus> ops;
    for (int i = 0; i < 16; ++i) {
      ops.push_back(
          Bus{m.add_input_port(std::string("x").append(std::to_string(i)), 4)});
    }
    const Bus sum =
        chain ? adder_chain_signed(m, ops) : adder_tree_signed(m, ops);
    (void)sum;
    sim::Levelization lv = sim::levelize(m);
    return lv.max_depth;
  };
  EXPECT_GT(depth_of(true), 2 * depth_of(false));
}

TEST(AdderTree, EmptyIsZero) {
  Module m;
  const Bus sum = adder_tree_signed(m, {});
  Harness h(m);
  h.run();
  EXPECT_EQ(h.signed_of(sum), 0);
}

TEST(TruncatedAdd, MatchesFloorModel) {
  for (int drop : {1, 2, 3, 5}) {
    Module m;
    const Bus a{m.add_input_port("a", 5)};
    const Bus b{m.add_input_port("b", 5)};
    const Bus sum = add_signed_truncated(m, a, b, drop);
    Harness h(m);
    for (std::uint64_t ra = 0; ra < 32; ++ra) {
      for (std::uint64_t rb = 0; rb < 32; ++rb) {
        h.set("a", ra);
        h.set("b", rb);
        h.run();
        // Model: (floor(a/2^d) + floor(b/2^d)) * 2^d  (arithmetic shift).
        const std::int64_t expected =
            ((sext_val(ra, 5) >> drop) + (sext_val(rb, 5) >> drop)) << drop;
        EXPECT_EQ(h.signed_of(sum), expected)
            << "drop=" << drop << " a=" << sext_val(ra, 5)
            << " b=" << sext_val(rb, 5);
      }
    }
  }
}

TEST(Reduce, OrAndExhaustive) {
  Module m;
  const Bus a{m.add_input_port("a", 5)};
  const auto any = reduce_or(m, a);
  const auto all = reduce_and(m, a);
  Harness h(m);
  for (std::uint64_t ra = 0; ra < 32; ++ra) {
    h.set("a", ra);
    h.run();
    EXPECT_EQ(h.net(any), ra != 0);
    EXPECT_EQ(h.net(all), ra == 31);
  }
}

TEST(Reduce, EmptyBusDefaults) {
  Module m;
  EXPECT_EQ(reduce_or(m, Bus{}), netlist::kConst0);
  EXPECT_EQ(reduce_and(m, Bus{}), netlist::kConst1);
}

TEST(BusOps, SextZextShiftSlice) {
  Module m;
  const Bus a{m.add_input_port("a", 4)};
  const Bus z = zext(a, 6);
  const Bus s = sext(a, 6);
  const Bus sh = shl(a, 2);
  const Bus dr = drop_lsbs(a, 2);
  const Bus sl = slice(a, 1, 2);
  Harness h(m);
  h.set("a", 0b1010);
  h.run();
  EXPECT_EQ(h.unsigned_of(z), 0b001010u);
  EXPECT_EQ(h.signed_of(s), sext_val(0b1010, 4));
  EXPECT_EQ(h.unsigned_of(sh), 0b101000u);
  EXPECT_EQ(h.signed_of(dr), -2);  // 1010 >> 2 arithmetic = 0b10 (-2)
  EXPECT_EQ(h.unsigned_of(sl), 0b01u);
  EXPECT_THROW((void)slice(a, 3, 2), std::invalid_argument);
  EXPECT_THROW((void)drop_lsbs(a, 4), std::invalid_argument);
}

}  // namespace
}  // namespace pml::synth
