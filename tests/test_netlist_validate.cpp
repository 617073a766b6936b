// Structural validation: undriven nets, multiple drivers, combinational
// cycles, constant/PI driving.

#include <gtest/gtest.h>

#include "pml/netlist/module.hpp"

namespace pml::netlist {
namespace {

TEST(Validate, CleanModulePasses) {
  Module m;
  const auto p = m.add_input_port("p", 2);
  const auto x = m.and2(p[0], p[1]);
  m.add_output_port("y", {x});
  EXPECT_EQ(m.validate(), std::nullopt);
}

TEST(Validate, EmptyModulePasses) {
  Module m;
  EXPECT_EQ(m.validate(), std::nullopt);
}

TEST(Validate, UndrivenCellInput) {
  Module m;
  const auto dangling = m.new_net();
  const auto p = m.add_input_port("p", 1);
  (void)m.and2(p[0], dangling);
  const auto err = m.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("undriven"), std::string::npos);
}

TEST(Validate, UndrivenOutputPort) {
  Module m;
  m.add_output_port("y", {m.new_net()});
  const auto err = m.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("output port"), std::string::npos);
}

TEST(Validate, MultipleDrivers) {
  Module m;
  const auto p = m.add_input_port("p", 2);
  const auto x = m.add_gate_raw(CellType::kAnd2, p[0], p[1]);
  m.drive_net(x, p[0]);  // second driver
  const auto err = m.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("multiple drivers"), std::string::npos);
}

TEST(Validate, CombinationalCycle) {
  Module m;
  const auto p = m.add_input_port("p", 1);
  const auto hole = m.new_net();
  const auto x = m.and2(p[0], hole);
  const auto y = m.or2(x, p[0]);
  m.drive_net(hole, y);  // cycle: hole -> x -> y -> hole
  const auto err = m.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("cycle"), std::string::npos);
  // The offender is named: cell index, type, and driven net.
  EXPECT_NE(err->find("through cell 0"), std::string::npos) << *err;
  EXPECT_NE(err->find("AND2"), std::string::npos) << *err;
  EXPECT_NE(err->find(std::string("driving net ").append(std::to_string(x))),
            std::string::npos)
      << *err;
}

TEST(Validate, CycleThroughDffIsFine) {
  Module m;
  const auto d = m.new_net();
  const auto q = m.dff(d);
  m.drive_net(d, m.inv(q));
  EXPECT_EQ(m.validate(), std::nullopt);
}

TEST(Validate, SequentialSelfLoopViaEnableMux) {
  // The register-with-enable idiom: q -> mux -> d -> q.
  Module m;
  const auto en = m.add_input_port("en", 1)[0];
  const auto data = m.add_input_port("d", 1)[0];
  const auto d_net = m.new_net();
  const auto q = m.dff(d_net);
  m.drive_net(d_net, m.mux2(q, data, en));
  m.add_output_port("q", {q});
  EXPECT_EQ(m.validate(), std::nullopt);
}

}  // namespace
}  // namespace pml::netlist
