#include "pml/arch/sequential_svm.hpp"

#include <stdexcept>
#include <string>

#include <algorithm>

#include "pml/fixed/format.hpp"
#include "pml/synth/arith.hpp"
#include "pml/synth/mult.hpp"
#include "pml/synth/mux.hpp"
#include "pml/synth/reduce.hpp"
#include "pml/synth/seq.hpp"

namespace pml::arch {

using netlist::Module;
using netlist::NetId;
using synth::Bus;

SequentialSvmCircuit build_sequential_svm(const quant::QuantizedSvm& model,
                                          const opt::OptOptions& opt_options) {
  if (model.strategy != ml::MulticlassStrategy::kOneVsRest) {
    throw std::invalid_argument(
        "build_sequential_svm: model must be One-vs-Rest");
  }
  const int n = model.num_classes;
  const int m = static_cast<int>(model.classifiers.front().w.size());
  const int bx = model.input_format.total_bits;
  const int bw = model.weight_format.total_bits;
  const int score_bits = model.score_bits();

  SequentialSvmCircuit out;
  out.module = Module("seq_svm_" + std::to_string(n) + "c" +
                      std::to_string(m) + "f");
  Module& mod = out.module;
  out.cycles_per_inference = n;
  out.score_bits = score_bits;

  // Feature inputs (held stable during the n-cycle sweep).
  std::vector<Bus> x;
  x.reserve(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    x.push_back(Bus{
        mod.add_input_port(std::string("x").append(std::to_string(j)), bx)});
  }

  // --- control: modulo-n support-vector counter ---------------------------
  mod.begin_group(kGroupControl);
  const synth::Counter ctr = synth::counter_mod(mod, n);
  const NetId at_first =
      synth::equal_unsigned(mod, ctr.count, synth::constant_bus(0, 1));
  mod.end_group();
  out.class_bits = ctr.count.width();

  // --- storage: bespoke MUX units, data pins hardwired ---------------------
  mod.begin_group(kGroupStorage);
  // Per feature, the n stacked weights; the counter picks the live one.
  std::vector<Bus> w_sel;
  w_sel.reserve(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    std::vector<std::int64_t> words;
    words.reserve(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      words.push_back(
          model.classifiers[static_cast<std::size_t>(k)]
              .w[static_cast<std::size_t>(j)]);
    }
    // Defensive width: approximated (CSD-truncated) weights can exceed the
    // nominal format by one power of two.
    int width = bw;
    for (const std::int64_t w : words) {
      width = std::max(width, fixed::bits_for_code(w));
    }
    w_sel.push_back(synth::mux_storage(mod, words, width, ctr.count));
  }
  std::vector<std::int64_t> bias_words;
  bias_words.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    bias_words.push_back(model.classifiers[static_cast<std::size_t>(k)].b);
  }
  const Bus bias_sel =
      synth::mux_storage(mod, bias_words, score_bits, ctr.count);
  mod.end_group();

  // --- compute engine: m multipliers + multi-operand adder -----------------
  mod.begin_group(kGroupCompute);
  std::vector<Bus> terms;
  terms.reserve(static_cast<std::size_t>(m) + 1);
  for (int j = 0; j < m; ++j) {
    terms.push_back(synth::mult_signed_unsigned(
        mod, w_sel[static_cast<std::size_t>(j)],
        x[static_cast<std::size_t>(j)]));
  }
  terms.push_back(bias_sel);
  Bus score = synth::adder_tree_signed(mod, std::move(terms));
  score = synth::sext(score, score_bits);  // bound proven by score_bits()
  mod.end_group();

  // --- voter: sequential argmax (two registers + one comparator) -----------
  mod.begin_group(kGroupVoter);
  // Forward-declare register D nets to close the feedback.
  std::vector<NetId> best_d = mod.new_nets(score_bits);
  Bus best_score;
  for (int i = 0; i < score_bits; ++i) {
    best_score.bits.push_back(mod.dff(best_d[static_cast<std::size_t>(i)]));
  }
  std::vector<NetId> id_d = mod.new_nets(ctr.count.width());
  Bus best_id;
  for (int i = 0; i < ctr.count.width(); ++i) {
    best_id.bits.push_back(mod.dff(id_d[static_cast<std::size_t>(i)]));
  }
  const NetId greater = synth::greater_signed(mod, score, best_score);
  const NetId load = mod.or2(at_first, greater);
  const Bus next_score = synth::mux2_bus(mod, best_score, score, load);
  const Bus next_id =
      synth::mux2_bus(mod, best_id, ctr.count, load, /*signed_align=*/false);
  for (int i = 0; i < score_bits; ++i) {
    mod.drive_net(best_d[static_cast<std::size_t>(i)], next_score[i]);
  }
  for (int i = 0; i < ctr.count.width(); ++i) {
    mod.drive_net(id_d[static_cast<std::size_t>(i)], next_id[i]);
  }
  mod.end_group();

  mod.add_output_port("class", best_id.bits);
  mod.add_output_port("done", {ctr.at_last});
  mod.add_output_port("score", score.bits);

  // Post-generation cleanup: what the paper's synthesis step does to the
  // hardwired-coefficient logic.  Ports survive; interior NetIds don't.
  out.opt = opt::optimize(mod, opt_options);
  return out;
}

}  // namespace pml::arch
