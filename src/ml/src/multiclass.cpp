#include "pml/ml/multiclass.hpp"

#include <stdexcept>

#include "pml/ml/metrics.hpp"
#include "pml/util/task_pool.hpp"

namespace pml::ml {

std::vector<double> MulticlassSvm::decision_values(
    const std::vector<double>& x) const {
  std::vector<double> out;
  out.reserve(classifiers.size());
  for (const auto& c : classifiers) out.push_back(c.decision(x));
  return out;
}

int MulticlassSvm::predict(const std::vector<double>& x) const {
  const std::vector<double> d = decision_values(x);
  if (strategy == MulticlassStrategy::kOneVsRest) {
    int best = 0;
    for (int k = 1; k < static_cast<int>(d.size()); ++k) {
      if (d[static_cast<std::size_t>(k)] > d[static_cast<std::size_t>(best)]) {
        best = k;
      }
    }
    return best;
  }
  std::vector<int> votes(static_cast<std::size_t>(num_classes), 0);
  for (std::size_t t = 0; t < pairs.size(); ++t) {
    const auto [i, j] = pairs[t];
    ++votes[static_cast<std::size_t>(d[t] > 0.0 ? i : j)];
  }
  int best = 0;
  for (int k = 1; k < num_classes; ++k) {
    if (votes[static_cast<std::size_t>(k)] > votes[static_cast<std::size_t>(best)]) {
      best = k;
    }
  }
  return best;
}

std::vector<int> MulticlassSvm::predict_all(
    const std::vector<std::vector<double>>& X) const {
  std::vector<int> out;
  out.reserve(X.size());
  for (const auto& x : X) out.push_back(predict(x));
  return out;
}

std::size_t MulticlassSvm::stored_coefficients() const {
  std::size_t total = 0;
  for (const auto& c : classifiers) total += c.w.size() + 1;
  return total;
}

namespace {

std::vector<double> balanced_weights(const Dataset& train) {
  const auto counts = train.class_counts();
  std::vector<double> class_w(counts.size(), 1.0);
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] > 0) {
      class_w[k] = static_cast<double>(train.size()) /
                   (static_cast<double>(counts.size()) *
                    static_cast<double>(counts[k]));
    }
  }
  return class_w;
}

}  // namespace

// Training fans out on the shared util::TaskPool: one slot per OvR class
// or OvO pair.  Each slot writes its classifier by index and derives its
// seed from that index alone, so a model does not depend on the pool
// width or on which worker ran which slot.

MulticlassSvm train_one_vs_rest(const Dataset& train,
                                const MulticlassTrainOptions& options) {
  if (train.num_classes < 2) {
    throw std::invalid_argument("train_one_vs_rest: need >= 2 classes");
  }
  MulticlassSvm model;
  model.strategy = MulticlassStrategy::kOneVsRest;
  model.num_classes = train.num_classes;
  model.classifiers.resize(static_cast<std::size_t>(train.num_classes));

  const auto class_w =
      options.class_balanced ? balanced_weights(train) : std::vector<double>{};

  util::TaskPool::instance().run_group(
      model.classifiers.size(), "ml.ovr", [&](std::size_t k) {
        std::vector<int> y(train.size());
        std::vector<double> cw;
        if (!class_w.empty()) cw.resize(train.size());
        for (std::size_t i = 0; i < train.size(); ++i) {
          y[i] = (train.y[i] == static_cast<int>(k)) ? +1 : -1;
          if (!cw.empty()) {
            cw[i] = class_w[static_cast<std::size_t>(train.y[i])];
          }
        }
        SvmTrainOptions opts = options.base;
        opts.seed = options.base.seed + static_cast<std::uint64_t>(k) * 7919;
        model.classifiers[k] = train_binary_svm(train.X, y, opts, cw);
      });
  return model;
}

MulticlassSvm train_one_vs_one(const Dataset& train,
                               const MulticlassTrainOptions& options) {
  if (train.num_classes < 2) {
    throw std::invalid_argument("train_one_vs_one: need >= 2 classes");
  }
  MulticlassSvm model;
  model.strategy = MulticlassStrategy::kOneVsOne;
  model.num_classes = train.num_classes;
  for (int i = 0; i < train.num_classes; ++i) {
    for (int j = i + 1; j < train.num_classes; ++j) {
      model.pairs.emplace_back(i, j);
    }
  }
  model.classifiers.resize(model.pairs.size());

  const auto class_w =
      options.class_balanced ? balanced_weights(train) : std::vector<double>{};

  util::TaskPool::instance().run_group(
      model.pairs.size(), "ml.ovo", [&](std::size_t t) {
        const auto [i, j] = model.pairs[t];
        std::vector<std::vector<double>> X;
        std::vector<int> y;
        std::vector<double> cw;
        for (std::size_t s = 0; s < train.size(); ++s) {
          if (train.y[s] == i || train.y[s] == j) {
            X.push_back(train.X[s]);
            y.push_back(train.y[s] == i ? +1 : -1);
            if (!class_w.empty()) {
              cw.push_back(class_w[static_cast<std::size_t>(train.y[s])]);
            }
          }
        }
        SvmTrainOptions opts = options.base;
        opts.seed = options.base.seed +
                    static_cast<std::uint64_t>(i * 131 + j) * 7919;
        model.classifiers[t] = train_binary_svm(X, y, opts, cw);
      });
  return model;
}

void calibrate_ovr_biases(MulticlassSvm& model, const Dataset& validation,
                          int rounds) {
  if (model.strategy != MulticlassStrategy::kOneVsRest) {
    throw std::invalid_argument("calibrate_ovr_biases: OvR models only");
  }
  const int n = model.num_classes;
  std::vector<std::vector<double>> scores(validation.size());
  for (std::size_t i = 0; i < validation.size(); ++i) {
    scores[i] = model.decision_values(validation.X[i]);
  }
  std::vector<double> delta(static_cast<std::size_t>(n), 0.0);
  auto accuracy_with = [&](const std::vector<double>& d) {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < validation.size(); ++i) {
      int best = 0;
      for (int k = 1; k < n; ++k) {
        const auto ks = static_cast<std::size_t>(k);
        const auto bs = static_cast<std::size_t>(best);
        if (scores[i][ks] + d[ks] > scores[i][bs] + d[bs]) best = k;
      }
      if (best == validation.y[i]) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(validation.size());
  };
  static constexpr double kSteps[] = {-0.5, -0.2, -0.1, -0.05, -0.02,
                                      0.02, 0.05, 0.1,  0.2,   0.5};
  double best_acc = accuracy_with(delta);
  for (int round = 0; round < rounds; ++round) {
    for (int k = 0; k < n; ++k) {
      for (const double step : kSteps) {
        std::vector<double> cand = delta;
        cand[static_cast<std::size_t>(k)] += step;
        const double acc = accuracy_with(cand);
        if (acc > best_acc) {
          best_acc = acc;
          delta = std::move(cand);
        }
      }
    }
  }
  for (int k = 0; k < n; ++k) {
    model.classifiers[static_cast<std::size_t>(k)].b +=
        delta[static_cast<std::size_t>(k)];
  }
}

MulticlassSvm train_tuned(const Dataset& train, MulticlassStrategy strategy,
                          const std::vector<double>& c_grid,
                          bool search_balanced, double validation_fraction,
                          std::uint64_t seed) {
  if (c_grid.empty()) throw std::invalid_argument("train_tuned: empty grid");
  const Split val_split = stratified_split(train, 1.0 - validation_fraction,
                                           seed ^ 0xC0FFEEull);
  const auto fit = [&](const Dataset& data, std::size_t candidate) {
    MulticlassTrainOptions opts;
    opts.base.C = c_grid[candidate % c_grid.size()];
    opts.base.seed = seed;
    opts.class_balanced = candidate >= c_grid.size();
    return strategy == MulticlassStrategy::kOneVsRest
               ? train_one_vs_rest(data, opts)
               : train_one_vs_one(data, opts);
  };
  // Candidate i = b * |C| + c (b = 1: class-balanced) fits in its own pool
  // slot; the per-class fan-outs nested inside run inline when the pool is
  // busy.  The winner is the first maximum in candidate order, exactly as
  // in a serial scan.
  std::vector<double> accs((search_balanced ? 2 : 1) * c_grid.size());
  util::TaskPool::instance().run_group(
      accs.size(), "ml.train_tuned", [&](std::size_t i) {
        const MulticlassSvm candidate = fit(val_split.train, i);
        accs[i] = accuracy(candidate.predict_all(val_split.test.X),
                           val_split.test.y);
      });
  std::size_t best = 0;
  for (std::size_t i = 1; i < accs.size(); ++i) {
    if (accs[i] > accs[best]) best = i;
  }
  return fit(train, best);
}

}  // namespace pml::ml
