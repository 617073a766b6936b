// The activity replay counts the test set replayed back to back, whatever
// the backend, thread count or sample count.
//
// A replay runs one lane per sample: the lane warms up on the zero-delay
// engine with the sample before its own, the event engine adopts that
// state and counts the sample, and a word-for-word check that every lane
// was warmed into its predecessor's end state guards the result, with a
// one-lane back-to-back re-run when it fails (see pml/core/activity.hpp).
// These differentials prove:
//  - the zero-delay warm-up leaves exactly the lane state the event
//    engine's own warm-up leaves, for every generator and for random
//    DFF-bearing netlists, on every backend (engine level, through the
//    public engine API; see warmup_state_check.hpp);
//  - the merged ActivityStats are identical on every backend and kAuto,
//    at one thread and at the pool width, for sample counts around the
//    u64 word.  They equal the scalar per-sample protocol on the
//    generated designs (where it equals the back-to-back replay, checked
//    at the largest count), and the scalar back-to-back replay on the
//    random netlists;
//  - a netlist whose state depends on more than the last input (a
//    free-running toggle flop) takes the fallback exactly once per replay
//    and still matches the scalar back-to-back replay.

#include <gtest/gtest.h>

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
#include "pml/sim/event_sim.hpp"
#include "design_test_util.hpp"
#include "warmup_state_check.hpp"

namespace pml::core {
namespace {

using netlist::Module;
using sim::Backend;
using testutil::random_dff_module;
using testutil::random_mlp;
using testutil::random_svm;
using testutil::toggle_flop_module;
using testutil::xorshift;

constexpr std::size_t kSampleCounts[] = {1, 2, 63, 64, 65, 200};

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

std::vector<Backend> backends_and_auto() {
  std::vector<Backend> out = sim::available_backends();
  out.push_back(Backend::kAuto);
  return out;
}

TEST(Replay, ZeroDelayWarmupMatchesEventWarmup) {
  for (const Design& d : designs()) {
    SCOPED_TRACE(d.name);
    // 45 warm-up rows then 45 counted rows, cycled over the lanes.
    const CircuitWorkload wl = random_workload(90, d.features, 17);
    const testutil::Rows& rows = wl.feature_codes;
    for (const Backend b : sim::available_backends()) {
      SCOPED_TRACE(sim::backend_name(b));
      std::size_t mismatches = 0;
      switch (b) {
        case Backend::kU64:
          mismatches = testutil::warmup_state_mismatches<sim::LaneU64>(
              d.module, library(), d.cycles, rows);
          break;
#if defined(PML_SIM_HAVE_AVX2)
        case Backend::kAvx2:
          mismatches = testutil::warmup_state_mismatches_avx2(
              d.module, library(), d.cycles, rows);
          break;
#endif
#if defined(PML_SIM_HAVE_AVX512)
        case Backend::kAvx512:
          mismatches = testutil::warmup_state_mismatches_avx512(
              d.module, library(), d.cycles, rows);
          break;
#endif
        default:
          ADD_FAILURE() << "backend without a warm-up check";
      }
      EXPECT_EQ(mismatches, 0u);
    }
  }
}

TEST(Replay, CountsIgnoreBackendThreadsAndBatching) {
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
      for (const Backend b : backends_and_auto()) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
          SCOPED_TRACE(testing::Message() << sim::backend_name(b) << ", "
                                          << threads << " threads");
          ActivityOptions opts;
          opts.backend = b;
          opts.num_threads = threads;
          sim::ActivityStats got;
          const Schedule s = replay(got, d, wl, n, opts);
          expect_stats_equal(got, ref);
          const std::size_t lanes =
              sim::backend_lanes(sim::resolve_backend(b, n));
          EXPECT_EQ(s.batches, (n + lanes - 1) / lanes);
          EXPECT_EQ(s.live_lanes, n);
          EXPECT_LE(s.seam_fallbacks, 1u);
          if (d.boundary_state) {
            EXPECT_EQ(s.seam_fallbacks, 0u);
          }
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
    for (const Backend b : backends_and_auto()) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
        SCOPED_TRACE(testing::Message() << sim::backend_name(b) << ", "
                                        << threads << " threads");
        ActivityOptions opts;
        opts.backend = b;
        opts.num_threads = threads;
        sim::ActivityStats got;
        const Schedule s = replay(got, d, wl, n, opts);
        // The flop toggles every clock: a lane warmed up from reset holds
        // the opposite Q to its predecessor's end state.
        EXPECT_EQ(s.seam_fallbacks, 1u);
        expect_stats_equal(got, ref);
        EXPECT_EQ(got.cycles, n);
      }
    }
  }
}

}  // namespace
}  // namespace pml::core
