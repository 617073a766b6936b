// Bus multiplexers and bespoke MUX storage.

#include <gtest/gtest.h>

#include "pml/netlist/module.hpp"
#include "pml/synth/mux.hpp"
#include "sim_test_util.hpp"

namespace pml::synth {
namespace {

using netlist::CellType;
using netlist::Module;
using testutil::Harness;

TEST(Mux2Bus, SelectsAndAligns) {
  Module m;
  const Bus d0{m.add_input_port("d0", 3)};
  const Bus d1{m.add_input_port("d1", 5)};
  const auto s = m.add_input_port("s", 1)[0];
  const Bus out = mux2_bus(m, d0, d1, s, /*signed_align=*/true);
  EXPECT_EQ(out.width(), 5);
  Harness h(m);
  h.set("d0", 0b101);  // -3 signed in 3 bits
  h.set("d1", 0b01010);
  h.set("s", 0);
  h.run();
  EXPECT_EQ(h.signed_of(out), -3) << "sign-extended select of d0";
  h.set("s", 1);
  h.run();
  EXPECT_EQ(h.signed_of(out), 10);
}

class MuxNSize : public ::testing::TestWithParam<int> {};

TEST_P(MuxNSize, SelectsEachOption) {
  const int n = GetParam();
  int sel_bits = 1;
  while ((1 << sel_bits) < n) ++sel_bits;
  Module m;
  std::vector<Bus> options;
  for (int i = 0; i < n; ++i) {
    options.push_back(
        Bus{m.add_input_port(std::string("o").append(std::to_string(i)), 4)});
  }
  const Bus sel{m.add_input_port("s", sel_bits)};
  const Bus out = mux_n(m, options, sel, /*signed_align=*/false);
  Harness h(m);
  for (int i = 0; i < n; ++i) {
    h.set(std::string("o").append(std::to_string(i)),
          static_cast<std::uint64_t>(i + 1));
  }
  for (int i = 0; i < n; ++i) {
    h.set("s", static_cast<std::uint64_t>(i));
    h.run();
    EXPECT_EQ(h.unsigned_of(out), static_cast<std::uint64_t>(i + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MuxNSize, ::testing::Values(2, 3, 4, 5, 7, 8, 10));

TEST(MuxN, RejectsNarrowSelect) {
  Module m;
  std::vector<Bus> options(5, constant_bus(1, 2));
  const Bus sel{m.add_input_port("s", 2)};
  EXPECT_THROW((void)mux_n(m, options, sel), std::invalid_argument);
  EXPECT_THROW((void)mux_n(m, {}, sel), std::invalid_argument);
}

class StorageShape : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(StorageShape, ReadsBackEveryWord) {
  const auto [words, width] = GetParam();
  int sel_bits = 1;
  while ((1 << sel_bits) < words) ++sel_bits;
  // Deterministic signed contents.
  std::vector<std::int64_t> contents;
  const std::int64_t lo = -(std::int64_t{1} << (width - 1));
  const std::int64_t hi = (std::int64_t{1} << (width - 1)) - 1;
  for (int i = 0; i < words; ++i) {
    contents.push_back(lo + (7919 * i) % (hi - lo + 1));
  }
  Module m;
  const Bus sel{m.add_input_port("s", sel_bits)};
  const Bus out = mux_storage(m, contents, width, sel);
  EXPECT_EQ(out.width(), width);
  Harness h(m);
  for (int i = 0; i < words; ++i) {
    h.set("s", static_cast<std::uint64_t>(i));
    h.run();
    EXPECT_EQ(h.signed_of(out), contents[static_cast<std::size_t>(i)])
        << words << "x" << width << " word " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, StorageShape,
                         ::testing::Values(std::make_pair(2, 4),
                                           std::make_pair(3, 5),
                                           std::make_pair(4, 6),
                                           std::make_pair(6, 6),
                                           std::make_pair(10, 7),
                                           std::make_pair(45, 8)));

TEST(MuxStorage, InteriorLevelsArePhysicalMuxes) {
  Module m;
  const Bus sel{m.add_input_port("s", 2)};
  // 4 words x 4 bits: leaf level folds, interior level must be 4 real MUX2.
  (void)mux_storage(m, {3, -2, 5, -8}, 4, sel);
  const auto stats = m.stats();
  EXPECT_EQ(stats.counts_by_type[static_cast<int>(CellType::kMux2)], 4u);
}

TEST(MuxStorage, IdenticalWordsCollapse) {
  Module m;
  const Bus sel{m.add_input_port("s", 1)};
  const Bus out = mux_storage(m, {5, 5}, 4, sel);
  EXPECT_TRUE(m.cells().empty()) << "equal words need no logic";
  Harness h(m);
  h.run();
  EXPECT_EQ(h.signed_of(out), 5);
}

TEST(MuxStorage, SingleWordIsConstant) {
  Module m;
  const Bus sel{m.add_input_port("s", 1)};
  const Bus out = mux_storage(m, {-3}, 4, sel);
  EXPECT_TRUE(m.cells().empty());
  Harness h(m);
  h.set("s", 0);
  h.run();
  EXPECT_EQ(h.signed_of(out), -3);
  h.set("s", 1);  // don't-care select replicates the last word
  h.run();
  EXPECT_EQ(h.signed_of(out), -3);
}

}  // namespace
}  // namespace pml::synth
