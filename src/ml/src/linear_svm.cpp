#include "pml/ml/linear_svm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pml/ml/rng.hpp"
#include "pml/obs/metrics.hpp"

namespace pml::ml {

double BinarySvm::decision(const std::vector<double>& x) const {
  if (x.size() != w.size()) {
    throw std::invalid_argument("BinarySvm::decision: dimension mismatch");
  }
  double s = b;
  for (std::size_t j = 0; j < w.size(); ++j) s += w[j] * x[j];
  return s;
}

BinarySvm train_binary_svm(const std::vector<std::vector<double>>& X,
                           const std::vector<int>& y,
                           const SvmTrainOptions& options,
                           const std::vector<double>& per_sample_c) {
  PML_OBS_COUNT("ml.svm.fits", 1);
  if (X.empty() || X.size() != y.size()) {
    throw std::invalid_argument("train_binary_svm: bad inputs");
  }
  if (!per_sample_c.empty() && per_sample_c.size() != X.size()) {
    throw std::invalid_argument("train_binary_svm: per_sample_c size");
  }
  if (!(options.C > 0.0) || !std::isfinite(options.C)) {
    throw std::invalid_argument("train_binary_svm: C must be positive");
  }
  const std::size_t n = X.size();
  const std::size_t m = X[0].size();
  const std::size_t ma = m + 1;  // augmented bias feature

  // Precompute Q_ii = ||x~_i||^2 and per-sample upper bounds.
  std::vector<double> qii(n), ub(n);
  for (std::size_t i = 0; i < n; ++i) {
    double q = options.bias_scale * options.bias_scale;
    for (const double v : X[i]) q += v * v;
    qii[i] = q;
    ub[i] = options.C * (per_sample_c.empty() ? 1.0 : per_sample_c[i]);
  }

  std::vector<double> alpha(n, 0.0);
  std::vector<double> w(ma, 0.0);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  Rng rng(options.seed);
  for (int pass = 0; pass < options.max_passes; ++pass) {
    rng.shuffle(order);
    double max_pg = 0.0;
    for (const std::size_t i : order) {
      const double yi = y[i] > 0 ? 1.0 : -1.0;
      // G = y_i w.x~_i - 1
      double dot = w[m] * options.bias_scale;
      for (std::size_t j = 0; j < m; ++j) dot += w[j] * X[i][j];
      const double g = yi * dot - 1.0;

      double pg = g;
      if (alpha[i] <= 0.0) {
        pg = std::min(g, 0.0);
      } else if (alpha[i] >= ub[i]) {
        pg = std::max(g, 0.0);
      }
      max_pg = std::max(max_pg, std::fabs(pg));
      if (std::fabs(pg) < 1e-12) continue;

      const double a_new =
          std::clamp(alpha[i] - g / qii[i], 0.0, ub[i]);
      const double delta = (a_new - alpha[i]) * yi;
      if (delta == 0.0) continue;
      alpha[i] = a_new;
      for (std::size_t j = 0; j < m; ++j) w[j] += delta * X[i][j];
      w[m] += delta * options.bias_scale;
    }
    if (max_pg < options.tol) break;
  }

  BinarySvm model;
  model.w.assign(w.begin(), w.begin() + static_cast<std::ptrdiff_t>(m));
  model.b = w[m] * options.bias_scale;
  return model;
}

}  // namespace pml::ml
