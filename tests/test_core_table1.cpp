// Table I driver: smoke test on the cheapest dataset, summary arithmetic,
// paper-reference lookups, and concurrent-vs-serial design builds.

#include <gtest/gtest.h>

#include "pml/core/baselines.hpp"
#include "pml/core/paper_reference.hpp"
#include "pml/core/table1.hpp"
#include "report_test_util.hpp"

namespace pml::core {
namespace {

TEST(PaperReference, TableShapeAndLookups) {
  EXPECT_EQ(paper_table1().size(), 18u);
  const auto ours_cardio = paper_row("Cardio", "Ours");
  ASSERT_TRUE(ours_cardio.has_value());
  EXPECT_DOUBLE_EQ(ours_cardio->energy_mj, 1.373);
  EXPECT_DOUBLE_EQ(ours_cardio->power_mw, 17.6);
  EXPECT_FALSE(paper_row("Derm.", "MLP [4]").has_value())
      << "the paper has no Dermatology MLP row";
  EXPECT_FALSE(paper_row("Nope", "Ours").has_value());
  // The paper's aggregate claims, recomputed from its own table.  The
  // quoted "10.6x over [2]" is the ratio of *average* energies (the same
  // sentence quotes ours' average of 2.46 mJ), not the mean of ratios.
  double e2_sum = 0.0, ours_sum = 0.0;
  int n = 0;
  for (const auto& row : paper_table1()) {
    if (row.model != "SVM [2]") continue;
    const auto ours = paper_row(row.dataset, "Ours");
    ASSERT_TRUE(ours.has_value());
    e2_sum += row.energy_mj;
    ours_sum += ours->energy_mj;
    ++n;
  }
  EXPECT_EQ(n, 5);
  EXPECT_NEAR(ours_sum / n, 2.46, 0.02) << "ours' average energy";
  EXPECT_NEAR(e2_sum / ours_sum, 10.6, 0.1);
}

TEST(Table1, MlpConfigsAreDatasetSpecific) {
  EXPECT_EQ(mlp_baseline_options_for(ml::UciProfile::kPenDigits).hidden, 10);
  EXPECT_EQ(mlp_baseline_options_for(ml::UciProfile::kRedWine).hidden, 2);
  EXPECT_GT(mlp_baseline_options_for(ml::UciProfile::kPenDigits).weight_bits,
            mlp_baseline_options_for(ml::UciProfile::kRedWine).weight_bits - 2);
}

TEST(Table1, SingleDatasetRunIsConsistent) {
  Table1Options opts;
  opts.profiles = {ml::UciProfile::kRedWine};  // smallest training cost
  opts.power_samples = 12;
  const auto lib = cells::CellLibrary::egfet();
  const Table1Result result = run_table1(lib, opts);

  ASSERT_EQ(result.rows.size(), 4u);  // [2], [3], [4], Ours
  for (const auto& row : result.rows) {
    EXPECT_TRUE(row.verified) << row.model;
    EXPECT_GT(row.accuracy, 0.3) << row.model;
    EXPECT_GT(row.area_cm2, 0.0);
    EXPECT_GT(row.energy_mj, 0.0);
    EXPECT_EQ(row.dataset, "RW");
  }
  const auto& ours = result.rows.back();
  EXPECT_EQ(ours.model, "Ours");
  EXPECT_EQ(ours.cycles_per_inference, 6);

  const auto& s = result.summary;
  EXPECT_EQ(s.ours_total, 1);
  EXPECT_EQ(s.sota_total, 3);
  EXPECT_GT(s.energy_gain_vs_svm2, 1.0) << "ours must beat parallel OvO";
  EXPECT_GT(s.energy_gain_vs_svm3, 1.0);
  EXPECT_GT(s.energy_gain_overall, 1.0);
  EXPECT_NEAR(s.ours_avg_power_mw, ours.power_mw, 1e-9);
  EXPECT_NEAR(s.ours_avg_energy_mj, ours.energy_mj, 1e-9);
  EXPECT_EQ(s.ours_feasible, 1) << "sequential design fits the Molex budget";
}

TEST(Table1, OursOnlyModeSkipsBaselines) {
  Table1Options opts;
  opts.profiles = {ml::UciProfile::kRedWine};
  opts.include_baselines = false;
  opts.power_samples = 8;
  const auto lib = cells::CellLibrary::egfet();
  const Table1Result result = run_table1(lib, opts);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].model, "Ours");
  EXPECT_EQ(result.summary.sota_total, 0);
}

// num_threads = 0 builds each dataset's four designs concurrently on the
// shared pool; num_threads = 1 builds them one after another.  Rows (in
// their fixed order) and the summary must not tell the two apart.
TEST(Table1, ConcurrentDesignsMatchSerialRows) {
  Table1Options opts;
  opts.profiles = {ml::UciProfile::kCardio};
  opts.power_samples = 8;
  const auto lib = cells::CellLibrary::egfet();
  opts.num_threads = 0;
  const Table1Result concurrent = run_table1(lib, opts);
  opts.num_threads = 1;
  const Table1Result serial = run_table1(lib, opts);

  ASSERT_EQ(concurrent.rows.size(), 4u);
  ASSERT_EQ(serial.rows.size(), concurrent.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    SCOPED_TRACE(serial.rows[i].model);
    testutil::expect_reports_equal(concurrent.rows[i], serial.rows[i]);
  }
  const Table1Summary& c = concurrent.summary;
  const Table1Summary& s = serial.summary;
  EXPECT_EQ(c.ours_peak_power_mw, s.ours_peak_power_mw);
  EXPECT_EQ(c.ours_avg_power_mw, s.ours_avg_power_mw);
  EXPECT_EQ(c.ours_avg_energy_mj, s.ours_avg_energy_mj);
  EXPECT_EQ(c.energy_gain_vs_svm2, s.energy_gain_vs_svm2);
  EXPECT_EQ(c.energy_gain_vs_svm3, s.energy_gain_vs_svm3);
  EXPECT_EQ(c.energy_gain_vs_mlp4, s.energy_gain_vs_mlp4);
  EXPECT_EQ(c.energy_gain_overall, s.energy_gain_overall);
  EXPECT_EQ(c.acc_delta_vs_svm2, s.acc_delta_vs_svm2);
  EXPECT_EQ(c.acc_delta_vs_svm3, s.acc_delta_vs_svm3);
  EXPECT_EQ(c.acc_delta_vs_mlp4, s.acc_delta_vs_mlp4);
  EXPECT_EQ(c.ours_feasible, s.ours_feasible);
  EXPECT_EQ(c.ours_total, s.ours_total);
  EXPECT_EQ(c.sota_feasible, s.sota_feasible);
  EXPECT_EQ(c.sota_total, s.sota_total);
}

}  // namespace
}  // namespace pml::core
