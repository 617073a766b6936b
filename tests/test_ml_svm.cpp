// Linear SVM training: separability, margins, multiclass wrappers,
// class weighting, tuning, bias calibration, and equivalence of the
// pool-parallel multiclass trainers with serial training.

#include <gtest/gtest.h>

#include "pml/ml/linear_svm.hpp"
#include "pml/ml/metrics.hpp"
#include "pml/ml/multiclass.hpp"
#include "pml/ml/rng.hpp"
#include "pml/ml/synthetic_datasets.hpp"
#include "pml/obs/metrics.hpp"

namespace pml::ml {
namespace {

/// Two linearly separable 2-D blobs.
Dataset separable_blobs(std::size_t n, double gap, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  d.name = "sep";
  d.num_features = 2;
  d.num_classes = 2;
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    const double cx = label == 0 ? 0.3 : 0.3 + gap;
    d.X.push_back({rng.normal(cx, 0.05), rng.normal(0.5, 0.05)});
    d.y.push_back(label);
  }
  return d;
}

TEST(BinarySvm, SeparatesCleanBlobs) {
  const Dataset d = separable_blobs(200, 0.5, 3);
  std::vector<int> y;
  for (const int label : d.y) y.push_back(label == 0 ? -1 : +1);
  const BinarySvm model = train_binary_svm(d.X, y, SvmTrainOptions{});
  int correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double f = model.decision(d.X[i]);
    if ((f > 0) == (y[i] > 0)) ++correct;
  }
  EXPECT_EQ(correct, 200);
}

TEST(BinarySvm, WeightsPointAcrossTheGap) {
  const Dataset d = separable_blobs(200, 0.5, 4);
  std::vector<int> y;
  for (const int label : d.y) y.push_back(label == 0 ? -1 : +1);
  const BinarySvm model = train_binary_svm(d.X, y, SvmTrainOptions{});
  // Class +1 sits at larger x0: w[0] must dominate and be positive.
  EXPECT_GT(model.w[0], 0.0);
  EXPECT_GT(std::abs(model.w[0]), std::abs(model.w[1]) * 3);
}

TEST(BinarySvm, RegularizationShrinksWeights) {
  const Dataset d = separable_blobs(100, 0.2, 5);
  std::vector<int> y;
  for (const int label : d.y) y.push_back(label == 0 ? -1 : +1);
  SvmTrainOptions strong;
  strong.C = 0.001;
  SvmTrainOptions weak;
  weak.C = 100.0;
  const auto m_strong = train_binary_svm(d.X, y, strong);
  const auto m_weak = train_binary_svm(d.X, y, weak);
  const auto norm = [](const BinarySvm& m) {
    double s = 0;
    for (const double w : m.w) s += w * w;
    return s;
  };
  EXPECT_LT(norm(m_strong), norm(m_weak));
}

TEST(BinarySvm, RejectsBadInputs) {
  EXPECT_THROW((void)train_binary_svm({}, {}, SvmTrainOptions{}),
               std::invalid_argument);
  EXPECT_THROW((void)train_binary_svm({{1.0}}, {1, -1}, SvmTrainOptions{}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)train_binary_svm({{1.0}}, {1}, SvmTrainOptions{}, {1.0, 2.0}),
      std::invalid_argument);
  SvmTrainOptions negative_c;
  negative_c.C = -1.0;
  EXPECT_THROW((void)train_binary_svm({{1.0}}, {1}, negative_c),
               std::invalid_argument);
  const BinarySvm m{{1.0, 2.0}, 0.0};
  EXPECT_THROW((void)m.decision({1.0}), std::invalid_argument);
}

TEST(OneVsRest, HighAccuracyOnBlobProfile) {
  const Dataset d = make_uci_like(UciProfile::kDermatology);
  const Split s = stratified_split(d, 0.8, 11);
  MulticlassTrainOptions opts;
  const MulticlassSvm model = train_one_vs_rest(s.train, opts);
  EXPECT_EQ(model.classifiers.size(), 6u);
  EXPECT_GT(accuracy(model.predict_all(s.test.X), s.test.y), 0.9);
}

TEST(OneVsOne, PairCountAndAccuracy) {
  const Dataset d = make_uci_like(UciProfile::kDermatology);
  const Split s = stratified_split(d, 0.8, 11);
  MulticlassTrainOptions opts;
  const MulticlassSvm model = train_one_vs_one(s.train, opts);
  EXPECT_EQ(model.classifiers.size(), 15u);  // 6*5/2
  EXPECT_EQ(model.pairs.size(), 15u);
  EXPECT_EQ(model.pairs[0], (std::pair<int, int>{0, 1}));
  EXPECT_GT(accuracy(model.predict_all(s.test.X), s.test.y), 0.9);
}

TEST(Multiclass, StoredCoefficientsCount) {
  const Dataset d = make_uci_like(UciProfile::kCardio);
  const Split s = stratified_split(d, 0.9, 11);
  MulticlassTrainOptions opts;
  const auto ovr = train_one_vs_rest(s.train, opts);
  const auto ovo = train_one_vs_one(s.train, opts);
  EXPECT_EQ(ovr.stored_coefficients(), 3u * 22u);   // n=3 classifiers
  EXPECT_EQ(ovo.stored_coefficients(), 3u * 22u);   // 3 pairs for n=3
  // OvR stores strictly fewer coefficients for n > 3.
  const Dataset pd = make_uci_like(UciProfile::kPenDigits);
  const Split ps = stratified_split(pd, 0.5, 11);
  const auto pd_ovr = train_one_vs_rest(ps.train, opts);
  const auto pd_ovo = train_one_vs_one(ps.train, opts);
  EXPECT_EQ(pd_ovr.stored_coefficients(), 10u * 17u);
  EXPECT_EQ(pd_ovo.stored_coefficients(), 45u * 17u);
}

TEST(Multiclass, PredictTieGoesToLowestIndex) {
  MulticlassSvm model;
  model.strategy = MulticlassStrategy::kOneVsRest;
  model.num_classes = 3;
  // All-zero classifiers: every decision is the bias.
  model.classifiers = {{{0.0}, 1.0}, {{0.0}, 1.0}, {{0.0}, 0.5}};
  EXPECT_EQ(model.predict({0.0}), 0);
}

TEST(Multiclass, OvoVoteSemantics) {
  MulticlassSvm model;
  model.strategy = MulticlassStrategy::kOneVsOne;
  model.num_classes = 3;
  model.pairs = {{0, 1}, {0, 2}, {1, 2}};
  // decisions: (0,1) -> +1 votes 0; (0,2) -> -1 votes 2; (1,2) -> +1 votes 1.
  // One vote each: tie resolves to class 0.
  model.classifiers = {{{0.0}, 1.0}, {{0.0}, -1.0}, {{0.0}, 1.0}};
  EXPECT_EQ(model.predict({0.0}), 0);
  // Zero decision votes the SECOND class of the pair.
  model.classifiers = {{{0.0}, 0.0}, {{0.0}, -1.0}, {{0.0}, -1.0}};
  // (0,1)->1, (0,2)->2, (1,2)->2: class 2 wins with 2 votes.
  EXPECT_EQ(model.predict({0.0}), 2);
}

TEST(ClassBalancing, HelpsMinorityRecall) {
  // 95/5 imbalance: balanced costs should recover minority predictions.
  Rng rng(17);
  Dataset d;
  d.num_features = 2;
  d.num_classes = 2;
  for (int i = 0; i < 400; ++i) {
    const bool minority = i % 20 == 0;
    d.X.push_back({rng.normal(minority ? 0.62 : 0.4, 0.08),
                   rng.normal(0.5, 0.08)});
    d.y.push_back(minority ? 1 : 0);
  }
  MulticlassTrainOptions plain;
  MulticlassTrainOptions balanced;
  balanced.class_balanced = true;
  const auto m_plain = train_one_vs_rest(d, plain);
  const auto m_bal = train_one_vs_rest(d, balanced);
  const auto cm_plain = confusion_matrix(m_plain.predict_all(d.X), d.y, 2);
  const auto cm_bal = confusion_matrix(m_bal.predict_all(d.X), d.y, 2);
  EXPECT_GE(cm_bal[1][1], cm_plain[1][1])
      << "balanced training should not reduce minority true positives";
}

TEST(TrainTuned, PicksWorkingConfiguration) {
  const Dataset d = make_uci_like(UciProfile::kCardio);
  const Split s = stratified_split(d, 0.8, 21);
  const MulticlassSvm model =
      train_tuned(s.train, MulticlassStrategy::kOneVsRest, {0.1, 1.0, 8.0},
                  /*search_balanced=*/true, 0.25, 7);
  EXPECT_GT(accuracy(model.predict_all(s.test.X), s.test.y), 0.85);
  EXPECT_THROW((void)train_tuned(s.train, MulticlassStrategy::kOneVsRest, {},
                                 true, 0.25, 7),
               std::invalid_argument);
}

// --- parallel training == serial training -----------------------------------
// The multiclass trainers fan out on the shared task pool; these serial
// reference implementations are what they must reproduce exactly.

std::vector<double> serial_class_weights(const Dataset& train) {
  const auto counts = train.class_counts();
  std::vector<double> w(counts.size(), 1.0);
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] > 0) {
      w[k] = static_cast<double>(train.size()) /
             (static_cast<double>(counts.size()) *
              static_cast<double>(counts[k]));
    }
  }
  return w;
}

MulticlassSvm serial_ovr(const Dataset& train,
                         const MulticlassTrainOptions& options) {
  MulticlassSvm model;
  model.strategy = MulticlassStrategy::kOneVsRest;
  model.num_classes = train.num_classes;
  const auto class_w = serial_class_weights(train);
  for (int k = 0; k < train.num_classes; ++k) {
    std::vector<int> y;
    std::vector<double> cw;
    for (std::size_t i = 0; i < train.size(); ++i) {
      y.push_back(train.y[i] == k ? +1 : -1);
      if (options.class_balanced) {
        cw.push_back(class_w[static_cast<std::size_t>(train.y[i])]);
      }
    }
    SvmTrainOptions opts = options.base;
    opts.seed = options.base.seed + static_cast<std::uint64_t>(k) * 7919;
    model.classifiers.push_back(train_binary_svm(train.X, y, opts, cw));
  }
  return model;
}

MulticlassSvm serial_ovo(const Dataset& train,
                         const MulticlassTrainOptions& options) {
  MulticlassSvm model;
  model.strategy = MulticlassStrategy::kOneVsOne;
  model.num_classes = train.num_classes;
  const auto class_w = serial_class_weights(train);
  for (int i = 0; i < train.num_classes; ++i) {
    for (int j = i + 1; j < train.num_classes; ++j) {
      std::vector<std::vector<double>> X;
      std::vector<int> y;
      std::vector<double> cw;
      for (std::size_t s = 0; s < train.size(); ++s) {
        if (train.y[s] != i && train.y[s] != j) continue;
        X.push_back(train.X[s]);
        y.push_back(train.y[s] == i ? +1 : -1);
        if (options.class_balanced) {
          cw.push_back(class_w[static_cast<std::size_t>(train.y[s])]);
        }
      }
      SvmTrainOptions opts = options.base;
      opts.seed = options.base.seed +
                  static_cast<std::uint64_t>(i * 131 + j) * 7919;
      model.pairs.emplace_back(i, j);
      model.classifiers.push_back(train_binary_svm(X, y, opts, cw));
    }
  }
  return model;
}

MulticlassSvm serial_fit(const Dataset& train, MulticlassStrategy strategy,
                         double c, bool balanced, std::uint64_t seed) {
  MulticlassTrainOptions opts;
  opts.base.C = c;
  opts.base.seed = seed;
  opts.class_balanced = balanced;
  return strategy == MulticlassStrategy::kOneVsRest ? serial_ovr(train, opts)
                                                    : serial_ovo(train, opts);
}

/// Grid search as a plain serial scan: unbalanced candidates first, first
/// strict maximum wins, then a refit on all of `train`.
MulticlassSvm serial_tuned(const Dataset& train, MulticlassStrategy strategy,
                           const std::vector<double>& c_grid,
                           bool search_balanced, double validation_fraction,
                           std::uint64_t seed) {
  const Split val = stratified_split(train, 1.0 - validation_fraction,
                                     seed ^ 0xC0FFEEull);
  double best_acc = -1.0;
  double best_c = c_grid.front();
  bool best_balanced = false;
  for (const bool balanced : {false, true}) {
    if (balanced && !search_balanced) break;
    for (const double c : c_grid) {
      const double acc =
          accuracy(serial_fit(val.train, strategy, c, balanced, seed)
                       .predict_all(val.test.X),
                   val.test.y);
      if (acc > best_acc) {
        best_acc = acc;
        best_c = c;
        best_balanced = balanced;
      }
    }
  }
  return serial_fit(train, strategy, best_c, best_balanced, seed);
}

void expect_identical(const MulticlassSvm& got, const MulticlassSvm& want) {
  EXPECT_EQ(got.strategy, want.strategy);
  EXPECT_EQ(got.num_classes, want.num_classes);
  EXPECT_EQ(got.pairs, want.pairs);
  ASSERT_EQ(got.classifiers.size(), want.classifiers.size());
  for (std::size_t k = 0; k < got.classifiers.size(); ++k) {
    EXPECT_EQ(got.classifiers[k].w, want.classifiers[k].w) << "classifier " << k;
    EXPECT_EQ(got.classifiers[k].b, want.classifiers[k].b) << "classifier " << k;
  }
}

/// Three well-separated 2-D blobs at the corners of a triangle: every
/// class is linearly separable from the rest, so every C reaches 100%
/// validation accuracy and the grid search is one big tie.
Dataset corner_blobs(std::size_t n, std::uint64_t seed) {
  static constexpr double kCenters[3][2] = {{0.1, 0.1}, {0.9, 0.1}, {0.5, 0.9}};
  Rng rng(seed);
  Dataset d;
  d.name = "corners";
  d.num_features = 2;
  d.num_classes = 3;
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 3);
    d.X.push_back({rng.normal(kCenters[label][0], 0.03),
                   rng.normal(kCenters[label][1], 0.03)});
    d.y.push_back(label);
  }
  return d;
}

TEST(ParallelTraining, OneVsRestMatchesSerialLoop) {
  const Dataset d = make_uci_like(UciProfile::kDermatology);
  for (const bool balanced : {false, true}) {
    MulticlassTrainOptions opts;
    opts.base.C = 0.5;
    opts.base.seed = 13;
    opts.class_balanced = balanced;
    expect_identical(train_one_vs_rest(d, opts), serial_ovr(d, opts));
  }
}

TEST(ParallelTraining, OneVsOneMatchesSerialLoop) {
  const Dataset d = make_uci_like(UciProfile::kDermatology);
  for (const bool balanced : {false, true}) {
    MulticlassTrainOptions opts;
    opts.base.C = 2.0;
    opts.base.seed = 17;
    opts.class_balanced = balanced;
    expect_identical(train_one_vs_one(d, opts), serial_ovo(d, opts));
  }
}

TEST(ParallelTraining, TrainTunedMatchesSerialGridSearch) {
  // A stratified third of Cardio keeps the class imbalance (so balancing
  // matters) at a size the sanitizer jobs can afford.
  const Dataset d =
      stratified_split(make_uci_like(UciProfile::kCardio), 0.33, 19).train;
  const std::vector<double> grid = {0.05, 0.25, 1.0, 4.0};
  for (const auto strategy :
       {MulticlassStrategy::kOneVsRest, MulticlassStrategy::kOneVsOne}) {
    for (const bool search_balanced : {false, true}) {
      expect_identical(
          train_tuned(d, strategy, grid, search_balanced, 0.25, 5),
          serial_tuned(d, strategy, grid, search_balanced, 0.25, 5));
    }
  }
}

TEST(ParallelTraining, TiedCandidatesResolveToTheFirstInGridOrder) {
  const Dataset d = corner_blobs(240, 41);
  const std::vector<double> grid = {0.5, 1.0, 1.0, 8.0};
  const MulticlassSvm tuned = train_tuned(d, MulticlassStrategy::kOneVsRest,
                                          grid, true, 0.25, 3);
  expect_identical(tuned, serial_tuned(d, MulticlassStrategy::kOneVsRest,
                                       grid, true, 0.25, 3));
  // Every candidate ties at 100%; the first (C = 0.5, unbalanced) wins,
  // and it is distinguishable from the later ones.
  const MulticlassSvm first =
      serial_fit(d, MulticlassStrategy::kOneVsRest, 0.5, false, 3);
  expect_identical(tuned, first);
  EXPECT_NE(first.classifiers[0].w,
            serial_fit(d, MulticlassStrategy::kOneVsRest, 8.0, false, 3)
                .classifiers[0].w);
}

TEST(ParallelTraining, ThrowingCandidateSurfacesFromTrainTuned) {
  const Dataset d = corner_blobs(120, 43);
  // C = -1 is rejected inside train_binary_svm, in one grid slot only.
  EXPECT_THROW((void)train_tuned(d, MulticlassStrategy::kOneVsRest,
                                 {1.0, -1.0, 8.0}, true, 0.25, 3),
               std::invalid_argument);
  EXPECT_THROW((void)train_tuned(d, MulticlassStrategy::kOneVsOne,
                                 {1.0, 2.0, -1.0}, false, 0.25, 3),
               std::invalid_argument);
  // The pool is healthy afterwards.
  expect_identical(
      train_tuned(d, MulticlassStrategy::kOneVsRest, {1.0, 8.0}, true, 0.25,
                  3),
      serial_tuned(d, MulticlassStrategy::kOneVsRest, {1.0, 8.0}, true, 0.25,
                   3));
}

TEST(ParallelTraining, FitCounterCountsEveryBinaryFit) {
  const Dataset d = corner_blobs(120, 47);
  const auto before = obs::snapshot_metrics();
  (void)train_tuned(d, MulticlassStrategy::kOneVsRest, {0.5, 1.0, 8.0}, true,
                    0.25, 3);
  const auto delta = obs::diff_metrics(before, obs::snapshot_metrics());
  // (2 balancing modes x 3 C values + 1 refit) x 3 classes.
  EXPECT_EQ(delta.counter_value("ml.svm.fits"), 21u);
}

TEST(BiasCalibration, NeverHurtsValidationAccuracy) {
  const Dataset d = make_uci_like(UciProfile::kRedWine);
  const Split s = stratified_split(d, 0.8, 31);
  MulticlassTrainOptions opts;
  MulticlassSvm model = train_one_vs_rest(s.train, opts);
  const Split val = stratified_split(s.train, 0.75, 32);
  const double before = accuracy(model.predict_all(val.test.X), val.test.y);
  calibrate_ovr_biases(model, val.test);
  const double after = accuracy(model.predict_all(val.test.X), val.test.y);
  EXPECT_GE(after + 1e-12, before) << "coordinate ascent cannot regress";
}

TEST(BiasCalibration, RejectsOvo) {
  MulticlassSvm model;
  model.strategy = MulticlassStrategy::kOneVsOne;
  Dataset d;
  EXPECT_THROW(calibrate_ovr_biases(model, d), std::invalid_argument);
}

TEST(Metrics, AccuracyAndConfusion) {
  EXPECT_DOUBLE_EQ(accuracy({1, 0, 1}, {1, 1, 1}), 2.0 / 3.0);
  EXPECT_THROW((void)accuracy({}, {}), std::invalid_argument);
  EXPECT_THROW((void)accuracy({1}, {1, 2}), std::invalid_argument);
  const auto cm = confusion_matrix({0, 1, 1, 0}, {0, 1, 0, 0}, 2);
  EXPECT_EQ(cm[0][0], 2);
  EXPECT_EQ(cm[0][1], 1);
  EXPECT_EQ(cm[1][1], 1);
  EXPECT_EQ(cm[1][0], 0);
  const double f1 = macro_f1({0, 1, 1, 0}, {0, 1, 0, 0}, 2);
  EXPECT_GT(f1, 0.0);
  EXPECT_LE(f1, 1.0);
}

}  // namespace
}  // namespace pml::ml
