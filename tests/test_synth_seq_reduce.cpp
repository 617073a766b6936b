// Sequential blocks (registers, counters) and reduction networks
// (argmax trees, popcount).

#include <gtest/gtest.h>

#include <algorithm>

#include "pml/netlist/module.hpp"
#include "pml/synth/reduce.hpp"
#include "pml/synth/seq.hpp"
#include "sim_test_util.hpp"

namespace pml::synth {
namespace {

using netlist::kConst1;
using netlist::Module;
using testutil::Harness;

TEST(RegisterBus, AlwaysEnabledLoadsEveryCycle) {
  Module m;
  const Bus d{m.add_input_port("d", 4)};
  const Bus q = register_bus(m, d, kConst1, /*init=*/5);
  m.add_output_port("q", q.bits);
  Harness h(m);
  EXPECT_EQ(h.unsigned_of(q), 5u) << "power-on value";
  h.set("d", 9);
  h.step();
  EXPECT_EQ(h.unsigned_of(q), 9u);
}

TEST(RegisterBus, EnableHoldsValue) {
  Module m;
  const Bus d{m.add_input_port("d", 4)};
  const auto en = m.add_input_port("en", 1)[0];
  const Bus q = register_bus(m, d, en, 0);
  Harness h(m);
  h.set("d", 7);
  h.set("en", 1);
  h.step();
  EXPECT_EQ(h.unsigned_of(q), 7u);
  h.set("d", 3);
  h.set("en", 0);
  h.step();
  EXPECT_EQ(h.unsigned_of(q), 7u) << "disabled register must hold";
  h.set("en", 1);
  h.step();
  EXPECT_EQ(h.unsigned_of(q), 3u);
}

class CounterModulo : public ::testing::TestWithParam<int> {};

TEST_P(CounterModulo, CountsAndWraps) {
  const int modulo = GetParam();
  Module m;
  const Counter c = counter_mod(m, modulo);
  Harness h(m);
  for (int cycle = 0; cycle < 3 * modulo + 1; ++cycle) {
    const auto expected = static_cast<std::uint64_t>(cycle % modulo);
    EXPECT_EQ(h.unsigned_of(c.count), expected) << "cycle " << cycle;
    EXPECT_EQ(h.net(c.at_last), expected == static_cast<std::uint64_t>(modulo - 1));
    h.step();
  }
}

INSTANTIATE_TEST_SUITE_P(Moduli, CounterModulo,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 10, 45));

TEST(Counter, RejectsNonPositiveModulo) {
  Module m;
  EXPECT_THROW((void)counter_mod(m, 0), std::invalid_argument);
}

TEST(Increment, WrapsModuloPowerOfTwo) {
  Module m;
  const Bus a{m.add_input_port("a", 3)};
  const Bus inc = increment(m, a);
  Harness h(m);
  for (std::uint64_t v = 0; v < 8; ++v) {
    h.set("a", v);
    h.run();
    EXPECT_EQ(h.unsigned_of(inc), (v + 1) % 8);
  }
}

class ArgmaxSize : public ::testing::TestWithParam<int> {};

TEST_P(ArgmaxSize, MatchesStdMaxElementWithFirstTie) {
  const int n = GetParam();
  Module m;
  std::vector<Bus> scores;
  for (int i = 0; i < n; ++i) {
    scores.push_back(
        Bus{m.add_input_port(std::string("s").append(std::to_string(i)), 5)});
  }
  const ArgMax am = argmax_signed(m, scores);
  Harness h(m);
  std::uint64_t state = 0xDEADBEEF + static_cast<std::uint64_t>(n);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::int64_t> vals(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      // Small range (with negatives) to provoke plenty of ties.
      const std::uint64_t raw = (state >> 40) % 12;
      const std::int64_t sv = static_cast<std::int64_t>(raw) - 4;
      h.set(std::string("s").append(std::to_string(i)),
            static_cast<std::uint64_t>(sv) & 0x1F);
      vals[static_cast<std::size_t>(i)] = sv;
    }
    h.run();
    const auto it = std::max_element(vals.begin(), vals.end());
    const auto expected = static_cast<std::uint64_t>(it - vals.begin());
    EXPECT_EQ(h.unsigned_of(am.index), expected) << "n=" << n;
    EXPECT_EQ(h.signed_of(am.value), *it);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ArgmaxSize, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 10));

TEST(ArgmaxSigned, NegativeScores) {
  Module m;
  std::vector<Bus> scores;
  for (int i = 0; i < 3; ++i) {
    scores.push_back(
        Bus{m.add_input_port(std::string("s").append(std::to_string(i)), 4)});
  }
  const ArgMax am = argmax_signed(m, scores);
  Harness h(m);
  h.set("s0", 0b1000);  // -8
  h.set("s1", 0b1111);  // -1
  h.set("s2", 0b1100);  // -4
  h.run();
  EXPECT_EQ(h.unsigned_of(am.index), 1u);
  EXPECT_EQ(h.signed_of(am.value), -1);
}

TEST(ArgmaxUnsigned, TreatsValuesAsUnsigned) {
  Module m;
  std::vector<Bus> counts;
  for (int i = 0; i < 2; ++i) {
    counts.push_back(
        Bus{m.add_input_port(std::string("c").append(std::to_string(i)), 4)});
  }
  const ArgMax am = argmax_unsigned(m, counts);
  Harness h(m);
  h.set("c0", 0b1111);  // 15 unsigned
  h.set("c1", 0b0001);
  h.run();
  EXPECT_EQ(h.unsigned_of(am.index), 0u);
}

TEST(Argmax, RejectsEmpty) {
  Module m;
  EXPECT_THROW((void)argmax_signed(m, {}), std::invalid_argument);
}

class PopcountSize : public ::testing::TestWithParam<int> {};

TEST_P(PopcountSize, CountsSetBits) {
  const int n = GetParam();
  Module m;
  const auto bits = m.add_input_port("b", n);
  const Bus cnt = popcount(m, bits);
  Harness h(m);
  const std::uint64_t limit = n <= 12 ? (1ull << n) : 4096;
  for (std::uint64_t v = 0; v < limit; ++v) {
    h.set("b", v);
    h.run();
    EXPECT_EQ(h.unsigned_of(cnt),
              static_cast<std::uint64_t>(__builtin_popcountll(v)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PopcountSize, ::testing::Values(1, 2, 3, 5, 9, 12));

}  // namespace
}  // namespace pml::synth
