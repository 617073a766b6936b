// The activity replay counts the test set replayed back to back, whatever
// the thread count or sample count.
//
// A replay runs one lane per sample on u64 lane words: the lane warms up
// on the zero-delay engine with the sample before its own, the event
// engine adopts that state and counts the sample, and a word-for-word
// check that every lane was warmed into its predecessor's end state
// guards the result, with a one-lane back-to-back re-run when it fails
// (see pml/core/activity.hpp).  These differentials prove:
//  - the zero-delay warm-up leaves exactly the lane state the event
//    engine's own warm-up leaves, for every generator and for random
//    DFF-bearing netlists (engine level, through the public engine API);
//  - the merged ActivityStats are identical at one thread and at the pool
//    width, for sample counts around the u64 word, in ceil(n / 64)
//    batches.  They equal the scalar per-sample protocol on the generated
//    designs (where it equals the back-to-back replay, checked at the
//    largest count), and the scalar back-to-back replay on the random
//    netlists;
//  - a netlist whose state depends on more than the last input (a
//    free-running toggle flop) takes the fallback exactly once per replay
//    and still matches the scalar back-to-back replay;
//  - PML_SIM_BACKEND does not reach the replay: under every available
//    backend it runs the same u64 batches to the same counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "pml/arch/mlp_circuit.hpp"
#include "pml/arch/parallel_svm.hpp"
#include "pml/arch/sequential_mlp.hpp"
#include "pml/arch/sequential_svm.hpp"
#include "pml/cells/library.hpp"
#include "pml/core/activity.hpp"
#include "pml/netlist/module.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/sim/backend.hpp"
#include "pml/sim/batch_event_sim.hpp"
#include "pml/sim/batch_sim.hpp"
#include "pml/sim/event_sim.hpp"
#include "backend_env_test_util.hpp"
#include "design_test_util.hpp"

namespace pml::core {
namespace {

using netlist::Module;
using testutil::random_dff_module;
using testutil::random_mlp;
using testutil::random_svm;
using testutil::toggle_flop_module;
using testutil::xorshift;

using Rows = std::vector<std::vector<std::int64_t>>;

constexpr std::size_t kSampleCounts[] = {1, 2, 63, 64, 65, 200};
constexpr std::size_t kLanes = sim::BatchEventSimulator::kLanes;

CircuitWorkload random_workload(std::size_t n, int features,
                                std::uint64_t seed) {
  std::uint64_t s = seed | 1;
  CircuitWorkload wl;
  wl.feature_codes.assign(n, {});
  for (auto& row : wl.feature_codes) {
    for (int j = 0; j < features; ++j) {
      row.push_back(static_cast<std::int64_t>(xorshift(s) % 8));
    }
  }
  wl.expected_class.assign(n, 0);
  return wl;
}

struct Design {
  std::string name;
  Module module;
  int cycles = 1;
  int features = 0;
  bool boundary_state = true;  ///< state depends on the last input only
};

/// Every generator (sequential and parallel SVM, MLP, and the sequential
/// MLP that bench_folded_mlp builds) plus random DFF-bearing netlists,
/// all small enough for TSan.
std::vector<Design> designs() {
  std::vector<Design> out;
  const auto q = random_svm(3, 2, 11);
  const auto m = random_mlp(2, 3, 3, 13);
  {
    auto c = arch::build_sequential_svm(q);
    out.push_back({"sequential_svm", std::move(c.module),
                   c.cycles_per_inference, 2, true});
  }
  {
    auto c = arch::build_parallel_svm(q);
    out.push_back({"parallel_svm", std::move(c.module),
                   c.cycles_per_inference, 2, true});
  }
  {
    auto c = arch::build_mlp_circuit(m);
    out.push_back(
        {"mlp", std::move(c.module), c.cycles_per_inference, 2, true});
  }
  {
    auto c = arch::build_sequential_mlp(m);
    out.push_back({"sequential_mlp", std::move(c.module),
                   c.cycles_per_inference, 2, true});
  }
  // One clock per inference and feedback through the flops: their state
  // can depend on the whole input history, so they may take the
  // fallback.
  for (const std::uint64_t seed : {3u, 7u}) {
    out.push_back({std::string("random_dff_").append(std::to_string(seed)),
                   random_dff_module(seed, 2, 40, 4), 1, 2, false});
  }
  return out;
}

void expect_stats_equal(const sim::ActivityStats& a,
                        const sim::ActivityStats& b) {
  EXPECT_EQ(a.net_toggles, b.net_toggles);
  EXPECT_EQ(a.net_functional, b.net_functional);
  EXPECT_EQ(a.dff_clock_events, b.dff_clock_events);
  EXPECT_EQ(a.cycles, b.cycles);
}

const cells::CellLibrary& library() {
  static const cells::CellLibrary lib = cells::CellLibrary::egfet();
  return lib;
}

/// The scalar oracle: one EventSimulator replaying workload samples.
class ScalarReplay {
 public:
  ScalarReplay(const Design& d, const CircuitWorkload& wl)
      : d_(d),
        wl_(wl),
        lv_(sim::levelize_shared(d.module)),
        ports_(feature_ports(d.module, wl.feature_codes[0].size())),
        es_(d.module, library(), kTimeQuantumMs, lv_) {}

  /// Reset, run sample `warm` uncounted, then count sample `s`.
  sim::ActivityStats warmed(std::size_t warm, std::size_t s) {
    es_.reset();
    apply(warm);
    es_.clear_activity();
    apply(s);
    return es_.activity();
  }
  /// The paper's protocol: reset, run sample n - 1 uncounted, then count
  /// samples 0 .. n-1 back to back.
  sim::ActivityStats back_to_back(std::size_t n) {
    es_.reset();
    apply(n - 1);
    es_.clear_activity();
    for (std::size_t s = 0; s < n; ++s) apply(s);
    return es_.activity();
  }

 private:
  void apply(std::size_t s) {
    for (std::size_t j = 0; j < ports_.size(); ++j) {
      es_.set_port(*ports_[j],
                   static_cast<std::uint64_t>(wl_.feature_codes[s][j]));
    }
    if (lv_->dffs.empty()) {
      es_.settle();
    } else {
      for (int c = 0; c < d_.cycles; ++c) es_.step();
    }
  }

  const Design& d_;
  const CircuitWorkload& wl_;
  std::shared_ptr<const sim::Levelization> lv_;
  std::vector<const netlist::Port*> ports_;
  sim::EventSimulator es_;
};

/// The schedule a replay took, as the counter deltas it left.
struct Schedule {
  std::uint64_t batches = 0;
  std::uint64_t live_lanes = 0;
  std::uint64_t seam_fallbacks = 0;
};

Schedule replay(sim::ActivityStats& out, const Design& d,
                const CircuitWorkload& wl, std::size_t n,
                const ActivityOptions& opts) {
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  collect_activity_into(out, d.module, library(), d.cycles, wl, n, opts);
  const auto delta = obs::diff_metrics(before, obs::snapshot_metrics());
  return {delta.counter_value("sim.batch_event.batches"),
          delta.counter_value("sim.batch_event.live_lanes"),
          delta.counter_value("sim.batch_event.seam_fallbacks")};
}

/// Run one inference on `rows[first + l % count]` in every lane l.
template <class Sim>
void run_inference(Sim& sim, const std::vector<const netlist::Port*>& ports,
                   const Rows& rows, std::size_t first, std::size_t count,
                   int cycles, bool sequential) {
  std::uint64_t lane_values[Sim::kLanes];
  for (std::size_t j = 0; j < ports.size(); ++j) {
    for (std::size_t lane = 0; lane < Sim::kLanes; ++lane) {
      lane_values[lane] =
          static_cast<std::uint64_t>(rows[first + lane % count][j]);
    }
    sim.set_port(*ports[j], lane_values, Sim::kLanes);
  }
  if (sequential) {
    for (int c = 0; c < cycles; ++c) sim.step();
  } else if constexpr (requires { sim.settle(); }) {
    sim.settle();
  } else {
    sim.propagate();
  }
}

/// Zero-delay vs event-engine warm-up, word for word: from reset, both
/// engines run one inference on the first half of `rows` (lane l on row
/// l % half), then their exported states are compared; an event engine
/// that adopted the zero-delay state must then count the next inference,
/// on the second half, exactly as the event engine that warmed itself
/// up.  Returns the differing words and counters; 0 = identical.
std::size_t warmup_state_mismatches(const Design& d, const Rows& rows) {
  const auto lv = sim::levelize_shared(d.module);
  const bool sequential = !lv->dffs.empty();
  const std::vector<const netlist::Port*> ports =
      feature_ports(d.module, rows.front().size());
  const std::size_t half = rows.size() / 2;

  sim::BatchSimulator zsim(d.module, lv);
  sim::BatchEventSimulator warmed(d.module, library(), kTimeQuantumMs, lv);
  sim::BatchEventSimulator adopted(d.module, library(), kTimeQuantumMs, lv);
  run_inference(zsim, ports, rows, 0, half, d.cycles, sequential);
  run_inference(warmed, ports, rows, 0, half, d.cycles, sequential);

  std::vector<std::uint64_t> zs(zsim.state_words());
  std::vector<std::uint64_t> es(warmed.state_words());
  zsim.export_state(zs.data());
  warmed.export_state(es.data());
  std::size_t diff = zs.size() == es.size() ? 0 : 1;
  for (std::size_t i = 0; i < std::min(zs.size(), es.size()); ++i) {
    diff += zs[i] != es[i];
  }

  adopted.import_state(zsim);
  warmed.clear_activity();
  adopted.clear_activity();
  run_inference(warmed, ports, rows, half, half, d.cycles, sequential);
  run_inference(adopted, ports, rows, half, half, d.cycles, sequential);
  diff += warmed.activity().net_toggles != adopted.activity().net_toggles;
  diff += warmed.activity().net_functional !=
          adopted.activity().net_functional;
  diff += warmed.activity().dff_clock_events !=
          adopted.activity().dff_clock_events;
  warmed.export_state(es.data());
  adopted.export_state(zs.data());
  diff += zs != es;
  return diff;
}

TEST(Replay, ZeroDelayWarmupMatchesEventWarmup) {
  for (const Design& d : designs()) {
    SCOPED_TRACE(d.name);
    // 45 warm-up rows then 45 counted rows, cycled over the lanes.
    const CircuitWorkload wl = random_workload(90, d.features, 17);
    EXPECT_EQ(warmup_state_mismatches(d, wl.feature_codes), 0u);
  }
}

TEST(Replay, CountsIgnoreThreadsAndBatching) {
  for (const Design& d : designs()) {
    SCOPED_TRACE(d.name);
    const CircuitWorkload wl = random_workload(200, d.features, 23);
    ScalarReplay scalar(d, wl);
    // The per-sample protocol: sample s warms up on sample (s - 1) mod n.
    // Samples 1 .. n-1 count the same for every n, so their sum grows
    // with n; only sample 0 warms up on n - 1.
    sim::ActivityStats tail;
    tail.net_toggles.assign(d.module.num_nets(), 0);
    tail.net_functional.assign(d.module.num_nets(), 0);
    std::size_t summed = 1;
    for (const std::size_t n : kSampleCounts) {
      SCOPED_TRACE(testing::Message() << "n " << n);
      sim::ActivityStats ref;
      if (d.boundary_state) {
        for (; summed < n; ++summed) {
          tail.accumulate(scalar.warmed(summed - 1, summed));
        }
        ref = scalar.warmed(n - 1, 0);
        ref.accumulate(tail);
        // The state at an inference boundary depends on the last input
        // only, so the per-sample and back-to-back protocols agree.
        if (n == std::end(kSampleCounts)[-1]) {
          expect_stats_equal(scalar.back_to_back(n), ref);
        }
      } else {
        // A warm-up need not reproduce the state its predecessor left, so
        // the reference is the back-to-back replay the fallback runs.
        ref = scalar.back_to_back(n);
      }
      for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
        SCOPED_TRACE(testing::Message() << threads << " threads");
        ActivityOptions opts;
        opts.num_threads = threads;
        sim::ActivityStats got;
        const Schedule s = replay(got, d, wl, n, opts);
        expect_stats_equal(got, ref);
        EXPECT_EQ(s.batches, (n + kLanes - 1) / kLanes);
        EXPECT_EQ(s.live_lanes, n);
        EXPECT_LE(s.seam_fallbacks, 1u);
        if (d.boundary_state) {
          EXPECT_EQ(s.seam_fallbacks, 0u);
        }
      }
    }
  }
}

TEST(Replay, HistoryDependentStateTakesTheFallback) {
  const Design d{"toggle", toggle_flop_module(), 1, 1, false};
  const CircuitWorkload wl = random_workload(200, 1, 29);
  for (const std::size_t n : kSampleCounts) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    const sim::ActivityStats ref = ScalarReplay(d, wl).back_to_back(n);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
      SCOPED_TRACE(testing::Message() << threads << " threads");
      ActivityOptions opts;
      opts.num_threads = threads;
      sim::ActivityStats got;
      const Schedule s = replay(got, d, wl, n, opts);
      // The flop toggles every clock: a lane warmed up from reset holds
      // the opposite Q to its predecessor's end state.
      EXPECT_EQ(s.seam_fallbacks, 1u);
      EXPECT_EQ(s.batches, (n + kLanes - 1) / kLanes);
      expect_stats_equal(got, ref);
      EXPECT_EQ(got.cycles, n);
    }
  }
}

TEST(Replay, IgnoresBackendEnvironment) {
  const std::vector<Design> all = designs();
  const Design& d = all.front();  // the sequential SVM
  const CircuitWorkload wl = random_workload(200, d.features, 31);
  sim::ActivityStats ref;
  {
    testutil::ScopedBackendEnv unset(nullptr);
    EXPECT_EQ(replay(ref, d, wl, 200, {}).batches, 4u);
  }
  for (const sim::Backend b : sim::available_backends()) {
    SCOPED_TRACE(sim::backend_name(b));
    testutil::ScopedBackendEnv forced(sim::backend_name(b));
    sim::ActivityStats got;
    const Schedule s = replay(got, d, wl, 200, {});
    EXPECT_EQ(s.batches, 4u);
    EXPECT_EQ(s.live_lanes, 200u);
    expect_stats_equal(got, ref);
  }
}

}  // namespace
}  // namespace pml::core
