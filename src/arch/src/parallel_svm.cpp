#include "pml/arch/parallel_svm.hpp"

#include <string>
#include <vector>

#include "pml/arch/sequential_svm.hpp"  // group-name constants
#include "pml/synth/arith.hpp"
#include "pml/synth/mult.hpp"
#include "pml/synth/reduce.hpp"

namespace pml::arch {

using netlist::Module;
using netlist::NetId;
using synth::Bus;

ParallelSvmCircuit build_parallel_svm(const quant::QuantizedSvm& model,
                                      const ParallelSvmOptions& options) {
  const int n = model.num_classes;
  const int m = static_cast<int>(model.classifiers.front().w.size());
  const int bx = model.input_format.total_bits;
  const bool ovo = model.strategy == ml::MulticlassStrategy::kOneVsOne;
  const int score_bits = model.score_bits();

  ParallelSvmCircuit out;
  out.module = Module(std::string(ovo ? "par_ovo_svm_" : "par_ovr_svm_") +
                      std::to_string(n) + "c" + std::to_string(m) + "f");
  Module& mod = out.module;

  std::vector<Bus> x;
  x.reserve(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    x.push_back(Bus{
        mod.add_input_port(std::string("x").append(std::to_string(j)), bx)});
  }

  // --- compute: one bespoke classifier block per binary classifier --------
  mod.begin_group(kGroupCompute);
  std::vector<Bus> decisions;
  decisions.reserve(model.classifiers.size());
  for (const auto& clf : model.classifiers) {
    std::vector<Bus> terms;
    terms.reserve(clf.w.size() + 1);
    for (std::size_t j = 0; j < clf.w.size(); ++j) {
      if (clf.w[j] == 0) continue;  // hardwired zero: no hardware at all
      terms.push_back(synth::mult_const_csd(mod, clf.w[j], x[j]));
    }
    terms.push_back(synth::constant_bus(clf.b, score_bits));
    Bus d = options.accumulator == Accumulator::kChain
                ? synth::adder_chain_signed(mod, terms)
                : synth::adder_tree_signed(mod, std::move(terms));
    decisions.push_back(synth::sext(d, score_bits));
  }
  mod.end_group();

  // --- voter ----------------------------------------------------------------
  mod.begin_group(kGroupVoter);
  Bus cls;
  if (ovo) {
    // Classifier t votes pairs[t].first when decision > 0, else .second.
    std::vector<std::vector<NetId>> votes(static_cast<std::size_t>(n));
    for (std::size_t t = 0; t < model.pairs.size(); ++t) {
      const NetId pos = synth::greater_signed(mod, decisions[t],
                                              synth::constant_bus(0, 1));
      votes[static_cast<std::size_t>(model.pairs[t].first)].push_back(pos);
      votes[static_cast<std::size_t>(model.pairs[t].second)].push_back(
          mod.inv(pos));
    }
    std::vector<Bus> counts;
    counts.reserve(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      counts.push_back(
          synth::popcount(mod, votes[static_cast<std::size_t>(k)]));
    }
    cls = synth::argmax_unsigned(mod, counts).index;
  } else {
    cls = synth::argmax_signed(mod, decisions).index;
  }
  mod.end_group();

  out.class_bits = cls.width();
  mod.add_output_port("class", cls.bits);
  out.opt = opt::optimize(mod, options.opt);
  return out;
}

}  // namespace pml::arch
