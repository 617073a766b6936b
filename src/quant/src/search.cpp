#include "pml/quant/search.hpp"

#include <algorithm>
#include <stdexcept>

#include "pml/ml/metrics.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/obs/trace.hpp"
#include "pml/util/task_pool.hpp"

namespace pml::quant {

PrecisionSearchResult search_min_precision(
    const ml::MulticlassSvm& model, const ml::Dataset& holdout,
    const PrecisionSearchOptions& options) {
  if (holdout.X.empty()) {
    throw std::invalid_argument("search_min_precision: empty holdout");
  }
  PrecisionSearchResult result;
  result.float_accuracy =
      ml::accuracy(model.predict_all(holdout.X), holdout.y);

  // Enumerate candidates ordered by hardware cost.  Multiplier area scales
  // roughly with input_bits * weight_bits; ties prefer fewer weight bits
  // (weights dominate storage).
  struct Cand {
    int bx, bw;
  };
  std::vector<Cand> cands;
  for (int bx = options.min_input_bits; bx <= options.max_input_bits; ++bx) {
    for (int bw = options.min_weight_bits; bw <= options.max_weight_bits;
         ++bw) {
      cands.push_back({bx, bw});
    }
  }
  std::stable_sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    const int ca = a.bx * a.bw, cb = b.bx * b.bw;
    if (ca != cb) return ca < cb;
    return a.bw < b.bw;
  });

  // Evaluate candidates one num_threads-wide chunk at a time, in cost
  // order.  Quantize + holdout accuracy is pure and deterministic, so the
  // fan-out cannot change any value, and scanning each chunk serially
  // keeps the winner, the sweep entries, and the early exit bit-identical
  // to the old one-at-a-time search (num_threads == 1 IS that search; a
  // wider chunk over-evaluates at most chunk-1 points past the winner and
  // discards them from the sweep).
  const std::size_t num_threads = std::max<std::size_t>(
      1, std::min(cands.size(), options.num_threads != 0
                                    ? options.num_threads
                                    : util::TaskPool::instance().size()));
  std::vector<double> accs(cands.size(), 0.0);
  bool found = false;
  for (std::size_t begin = 0; begin < cands.size() && !found;) {
    const std::size_t end = std::min(cands.size(), begin + num_threads);
    // One slot per candidate of the chunk.
    util::TaskPool::instance().run_group(
        end - begin, "quant.search", [&](std::size_t slot) {
          PML_OBS_SPAN("quant.search.worker");
          PML_OBS_COUNT("quant.candidates", 1);
          const std::size_t i = begin + slot;
          const QuantizedSvm q = quantize_svm(model, cands[i].bx, cands[i].bw);
          accs[i] = ml::accuracy(q.predict_all(holdout.X), holdout.y);
        });
    for (std::size_t i = begin; i < end; ++i) {
      const double acc = accs[i];
      result.sweep.push_back({cands[i].bx, cands[i].bw, acc});
      if (acc + 1e-12 >= result.float_accuracy - options.tolerance) {
        result.input_bits = cands[i].bx;
        result.weight_bits = cands[i].bw;
        result.quantized_accuracy = acc;
        found = true;
        // The sweep stops at the winner, exactly like the serial search:
        // callers wanting the full surface use explicit quantize_svm calls.
        break;
      }
    }
    begin = end;
  }
  if (!found) {
    // Fall back to the most precise configuration.
    const QuantizedSvm q =
        quantize_svm(model, options.max_input_bits, options.max_weight_bits);
    result.input_bits = options.max_input_bits;
    result.weight_bits = options.max_weight_bits;
    result.quantized_accuracy =
        ml::accuracy(q.predict_all(holdout.X), holdout.y);
  }
  return result;
}

}  // namespace pml::quant
