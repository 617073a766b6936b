#pragma once
// Multi-class SVMs: One-vs-Rest (the paper's choice — n classifiers, fewer
// stored coefficients, trivial control) and One-vs-One (the state of the
// art's choice — n(n-1)/2 classifiers, pairwise voting).
//
// Prediction semantics here are the *reference* the circuits must match
// bit-for-bit after quantization:
//   OvR: argmax of decision values, first maximum on ties.
//   OvO: majority vote; classifier (i,j) votes i iff decision > 0;
//        vote ties resolve to the lowest class index.
//
// Training fans out on the shared util::TaskPool (per class, per pair,
// and per train_tuned grid candidate).  Every result is merged by index,
// so trained models are bit-identical for any pool width.

#include <cstdint>
#include <utility>
#include <vector>

#include "pml/ml/dataset.hpp"
#include "pml/ml/linear_svm.hpp"

namespace pml::ml {

enum class MulticlassStrategy { kOneVsRest, kOneVsOne };

struct MulticlassSvm {
  MulticlassStrategy strategy = MulticlassStrategy::kOneVsRest;
  int num_classes = 0;
  /// OvR: classifier k separates class k from the rest.
  /// OvO: classifier t separates pairs[t].first (+1) from pairs[t].second.
  std::vector<BinarySvm> classifiers;
  std::vector<std::pair<int, int>> pairs;  ///< OvO only

  [[nodiscard]] std::vector<double> decision_values(
      const std::vector<double>& x) const;
  [[nodiscard]] int predict(const std::vector<double>& x) const;
  [[nodiscard]] std::vector<int> predict_all(
      const std::vector<std::vector<double>>& X) const;

  /// Coefficients stored in hardware: (features + 1 bias) per classifier.
  [[nodiscard]] std::size_t stored_coefficients() const;
};

struct MulticlassTrainOptions {
  SvmTrainOptions base;
  /// Scale each sample's C by n_samples / (n_classes * count(class)) —
  /// scikit-learn's "balanced" mode.  Helps the imbalanced profiles.
  bool class_balanced = false;
};

[[nodiscard]] MulticlassSvm train_one_vs_rest(
    const Dataset& train, const MulticlassTrainOptions& options);

[[nodiscard]] MulticlassSvm train_one_vs_one(
    const Dataset& train, const MulticlassTrainOptions& options);

/// Post-training One-vs-Rest bias calibration: greedy coordinate ascent on
/// per-class bias offsets, maximizing accuracy on `validation`.  OvR
/// decision values of independently trained classifiers are not mutually
/// calibrated; on imbalanced data this recovers several accuracy points.
/// Free in hardware — the biases are stored constants anyway.  Part of
/// "our" training flow; the baselines don't do it.
void calibrate_ovr_biases(MulticlassSvm& model, const Dataset& validation,
                          int rounds = 3);

/// Tune hyperparameters on a held-out fraction of `train` (grid search over
/// C and, when `search_balanced`, over class-balanced vs plain costs), then
/// retrain on all of `train` with the winner.  This is the hyperparameter
/// care the paper's flow applies to *its* SVMs; the baselines train with
/// fixed defaults.
[[nodiscard]] MulticlassSvm train_tuned(
    const Dataset& train, MulticlassStrategy strategy,
    const std::vector<double>& c_grid, bool search_balanced,
    double validation_fraction, std::uint64_t seed);

}  // namespace pml::ml
