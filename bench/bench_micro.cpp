// Google-benchmark microbenchmarks of the flow's engineering substrate:
// trainer throughput, quantization, circuit generation, both simulators,
// task-pool fan-out, and STA.  These guard the tooling's performance,
// not the paper's claims.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>

#include "pml/arch/parallel_svm.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/cells/library.hpp"
#include "pml/ml/multiclass.hpp"
#include "pml/ml/scaler.hpp"
#include "pml/ml/synthetic_datasets.hpp"
#include "pml/quant/svm_quant.hpp"
#include "pml/sim/cycle_sim.hpp"
#include "pml/sim/event_sim.hpp"
#include "pml/sta/timing.hpp"
#include "pml/util/task_pool.hpp"

namespace {

using namespace pml;

struct Fixture {
  ml::Dataset train;
  ml::Dataset test;
  quant::QuantizedSvm quantized;

  static const Fixture& get() {
    static const Fixture f = [] {
      Fixture fx;
      const ml::Dataset raw = ml::make_uci_like(ml::UciProfile::kCardio);
      ml::Split split = ml::stratified_split(raw, 0.8, 1);
      ml::MinMaxScaler scaler;
      scaler.fit(split.train);
      fx.train = scaler.transform(split.train);
      fx.test = scaler.transform(split.test);
      ml::MulticlassTrainOptions opts;
      fx.quantized =
          quant::quantize_svm(ml::train_one_vs_rest(fx.train, opts), 4, 5);
      return fx;
    }();
    return f;
  }
};

void BM_TrainBinarySvm(benchmark::State& state) {
  const auto& fx = Fixture::get();
  std::vector<int> y;
  for (const int label : fx.train.y) y.push_back(label == 0 ? 1 : -1);
  ml::SvmTrainOptions opts;
  opts.max_passes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::train_binary_svm(fx.train.X, y, opts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.train.size()) *
                          state.range(0));
}
BENCHMARK(BM_TrainBinarySvm)->Arg(10)->Arg(50);

void BM_QuantizeSvm(benchmark::State& state) {
  const auto& fx = Fixture::get();
  ml::MulticlassTrainOptions opts;
  const auto model = ml::train_one_vs_rest(fx.train, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::quantize_svm(model, 4, 5));
  }
}
BENCHMARK(BM_QuantizeSvm);

void BM_IntegerInference(benchmark::State& state) {
  const auto& fx = Fixture::get();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.quantized.predict(fx.test.X[i++ % fx.test.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IntegerInference);

void BM_BuildSequentialCircuit(benchmark::State& state) {
  const auto& fx = Fixture::get();
  for (auto _ : state) {
    auto circuit = arch::build_sequential_svm(fx.quantized);
    benchmark::DoNotOptimize(circuit.module.cells().size());
  }
}
BENCHMARK(BM_BuildSequentialCircuit);

void BM_BuildParallelCircuit(benchmark::State& state) {
  const auto& fx = Fixture::get();
  for (auto _ : state) {
    auto circuit = arch::build_parallel_svm(fx.quantized);
    benchmark::DoNotOptimize(circuit.module.cells().size());
  }
}
BENCHMARK(BM_BuildParallelCircuit);

void BM_CycleSimClassification(benchmark::State& state) {
  const auto& fx = Fixture::get();
  auto circuit = arch::build_sequential_svm(fx.quantized);
  sim::CycleSimulator sim(circuit.module);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto xq = quant::quantize_features(
        fx.test.X[i++ % fx.test.size()], fx.quantized.input_format);
    for (std::size_t j = 0; j < xq.size(); ++j) {
      sim.set_port(std::string("x").append(std::to_string(j)),
                   static_cast<std::uint64_t>(xq[j]));
    }
    for (int c = 0; c < circuit.cycles_per_inference; ++c) sim.step();
    benchmark::DoNotOptimize(sim.port_unsigned("class"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CycleSimClassification);

void BM_EventSimClassification(benchmark::State& state) {
  const auto& fx = Fixture::get();
  auto circuit = arch::build_sequential_svm(fx.quantized);
  const auto lib = cells::CellLibrary::egfet();
  sim::EventSimulator sim(circuit.module, lib);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto xq = quant::quantize_features(
        fx.test.X[i++ % fx.test.size()], fx.quantized.input_format);
    for (std::size_t j = 0; j < xq.size(); ++j) {
      sim.set_port(std::string("x").append(std::to_string(j)),
                   static_cast<std::uint64_t>(xq[j]));
    }
    for (int c = 0; c < circuit.cycles_per_inference; ++c) sim.step();
    benchmark::DoNotOptimize(sim.port_unsigned("class"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventSimClassification);

void BM_StaticTimingAnalysis(benchmark::State& state) {
  const auto& fx = Fixture::get();
  auto circuit = arch::build_sequential_svm(fx.quantized);
  const auto lib = cells::CellLibrary::egfet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sta::analyze(circuit.module, lib));
  }
}
BENCHMARK(BM_StaticTimingAnalysis);

void BM_TaskPoolFanout(benchmark::State& state) {
  // Pure fan-out overhead on the warm process pool: the batch drivers'
  // claim-loop shape at the small group sizes the batch drivers use.
  // Compare against bench_task_pool's spawn/join reference for the gated
  // per-call speedup; this tracks the pool's own dispatch latency.
  util::TaskPool& pool = util::TaskPool::instance();
  const auto slots = static_cast<std::size_t>(state.range(0));
  pool.run_group(slots, "micro.warm", [](std::size_t) {});
  for (auto _ : state) {
    std::atomic<std::size_t> next{0};
    std::uint64_t sums[8] = {};
    pool.run_group(slots, "micro.fanout", [&](std::size_t slot) {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= 64) return;
        sums[slot % 8] += i;
      }
    });
    benchmark::DoNotOptimize(sums[0]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TaskPoolFanout)->Arg(2)->Arg(4)->Arg(8);

void BM_DatasetSynthesis(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ml::make_uci_like(ml::UciProfile::kRedWine, seed++));
  }
}
BENCHMARK(BM_DatasetSynthesis);

}  // namespace
