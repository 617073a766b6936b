// The activity replay's schedule never changes its counts.
//
// A replay warms every batch up on the zero-delay engine and may split a
// batch's counted rounds into segments on different workers, joined by a
// word-for-word seam check (see pml/core/activity.hpp).  These
// differentials prove:
//  - the zero-delay warm-up leaves exactly the lane state the event
//    engine's own warm-up leaves, for every generator and for random
//    DFF-bearing netlists, on every backend (engine level, through the
//    public engine API; see warmup_state_check.hpp);
//  - the merged ActivityStats are identical at every segment count x
//    chunk size x ragged sample count (the segment count is pinned
//    through the internal detail::collect_activity_scheduled, and the
//    schedule taken is read from the sim.batch_event counters);
//  - a netlist whose state depends on more than the last input (a
//    free-running toggle flop) takes the seam fallback and still matches
//    the unsplit replay.

#include <gtest/gtest.h>

#include <cstdint>
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

/// Every generator (sequential and parallel SVM, MLP, sequential MLP)
/// plus random DFF-bearing netlists, all small enough for TSan.
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
  // One clock per inference: most of their seams differ, so these also
  // take the fallback, across batches too.
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

/// The schedule a replay took, as the counter deltas it left.
struct Schedule {
  std::uint64_t batches = 0;  ///< both passes when the seams fell back
  std::uint64_t segments = 0;
  std::uint64_t seam_fallbacks = 0;
};

Schedule replay(sim::ActivityStats& out, const Design& d,
                const CircuitWorkload& wl, std::size_t n,
                const ActivityOptions& opts, std::size_t segments) {
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  detail::collect_activity_scheduled(out, d.module, library(), d.cycles, wl,
                                     n, opts, segments);
  const auto delta = obs::diff_metrics(before, obs::snapshot_metrics());
  return {delta.counter_value("sim.batch_event.batches"),
          delta.counter_value("sim.batch_event.segments"),
          delta.counter_value("sim.batch_event.seam_fallbacks")};
}

TEST(ReplaySegments, ZeroDelayWarmupMatchesEventWarmup) {
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

TEST(ReplaySegments, CountsIgnoreSegmentsAndChunking) {
  struct Case {
    std::size_t chunk, n;
    Backend backend;
  };
  // 31 samples leave a ragged final chunk at chunk 3, 4 and 7; 200 at
  // chunk 3 on u64 fills two batches, the second with a ragged chunk.
  const Case cases[] = {{1, 31, Backend::kAuto},
                        {3, 31, Backend::kAuto},
                        {4, 31, Backend::kAuto},
                        {7, 31, Backend::kAuto},
                        {3, 200, Backend::kU64}};
  for (const Design& d : designs()) {
    SCOPED_TRACE(d.name);
    const CircuitWorkload wl = random_workload(200, d.features, 23);
    for (const Case& c : cases) {
      SCOPED_TRACE(testing::Message() << "chunk " << c.chunk << ", n " << c.n);
      ActivityOptions opts;
      opts.chunk_samples = c.chunk;
      opts.backend = c.backend;
      sim::ActivityStats ref;
      (void)replay(ref, d, wl, c.n, opts, 1);
      for (const std::size_t segments : {2u, 3u, 4u}) {
        SCOPED_TRACE(segments);
        sim::ActivityStats got;
        const Schedule s = replay(got, d, wl, c.n, opts, segments);
        expect_stats_equal(got, ref);
        // Clamped to the counted rounds of the shortest batch: every
        // batch here counts `chunk` rounds.  A fallback re-runs every
        // batch unsplit, one segment each, and counts its batches again.
        const std::uint64_t per_batch = std::min(segments, c.chunk);
        EXPECT_GT(s.batches, 0u);
        EXPECT_LE(s.seam_fallbacks, 1u);
        if (s.seam_fallbacks == 0) {
          EXPECT_EQ(s.segments, s.batches * per_batch);
        } else {
          EXPECT_EQ(s.batches % 2, 0u);
          EXPECT_EQ(s.segments, s.batches / 2 * (per_batch + 1));
        }
        if (d.boundary_state) {
          EXPECT_EQ(s.seam_fallbacks, 0u);
        }
      }
    }
  }
}

TEST(ReplaySegments, HistoryDependentStateTakesTheSeamFallback) {
  const Design d{"toggle", toggle_flop_module(), 1, 1, false};
  const CircuitWorkload wl = random_workload(30, 1, 29);
  ActivityOptions opts;
  // Segments of rounds {0} and {1, 2}: the seam compares Q after two
  // steps (warm-up, round 0) with Q after one (the warm-up on round 0).
  opts.chunk_samples = 3;
  sim::ActivityStats ref;
  (void)replay(ref, d, wl, 30, opts, 1);

  sim::ActivityStats got;
  const Schedule s = replay(got, d, wl, 30, opts, 2);
  EXPECT_EQ(s.seam_fallbacks, 1u);
  // The split pass (one batch x 2 segments), then the unsplit re-run.
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.segments, 3u);
  expect_stats_equal(got, ref);
  EXPECT_EQ(got.cycles, 30u);
}

}  // namespace
}  // namespace pml::core
