#pragma once
// Shared helpers for the benchmark harnesses: dataset preparation, flag
// parsing, wall-clock timing, and the per-bench observability session
// (trace file, metrics delta, manifest-stamped perf record) — all the
// boilerplate the benches used to hand-roll per binary.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pml/ml/dataset.hpp"
#include "pml/ml/scaler.hpp"
#include "pml/ml/synthetic_datasets.hpp"
#include "pml/obs/json.hpp"
#include "pml/obs/manifest.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/obs/trace.hpp"
#include "pml/util/task_pool.hpp"

namespace pml::benchutil {

/// Widest fan-out the benches should measure: the shared TaskPool's
/// worker count (max(2, hardware threads), or the PML_POOL_THREADS
/// override).  This is exactly what num_threads = 0 resolves to inside
/// the library, so the thread-scaling axes and the "auto" legs agree —
/// and one env knob pins every bench on a noisy shared runner.
inline std::size_t hardware_threads() {
  return util::TaskPool::instance().size();
}

/// Thread-count axis for the scaling legs: 1, powers of two up to
/// hardware_threads(), and hardware_threads() itself.
inline std::vector<std::size_t> thread_scaling_axis() {
  const std::size_t hw = hardware_threads();
  std::vector<std::size_t> counts{1};
  for (std::size_t t = 2; t <= hw; t *= 2) counts.push_back(t);
  if (counts.back() != hw) counts.push_back(hw);
  return counts;
}

struct PreparedData {
  ml::Dataset train;
  ml::Dataset test;
  std::string name;
};

/// Synthesize, split 80/20, and min-max normalize one profile, exactly as
/// the paper's experimental setup prescribes.
inline PreparedData prepare(ml::UciProfile profile,
                            std::uint64_t seed = ml::kDefaultDataSeed) {
  const ml::Dataset raw = ml::make_uci_like(profile, seed);
  ml::Split split = ml::stratified_split(raw, 0.8, seed ^ 0x5eed);
  ml::MinMaxScaler scaler;
  scaler.fit(split.train);
  return {scaler.transform(split.train), scaler.transform(split.test),
          ml::profile_info(profile).name};
}

/// The flags every bench/example understands:
///   --quick          reduced sample counts / dataset sets (CI smoke)
///   --smoke          smallest meaningful workload (single dataset)
///   --trace <file>   write a Chrome trace-event JSON of the run
///   --metrics        print the metrics-registry delta to stderr at exit
///   --backend <b>    lane-word SIMD backend (u64|avx2|avx512|auto) for
///                    the gated batch legs of bench_batch_sim and
///                    bench_fault_injection.  Defaults to "u64" — the
///                    reference backend — so the baseline-gated
///                    batch.speedup_vs_scalar numbers stay comparable
///                    across machines; the SIMD comparison legs always
///                    run every available wide backend regardless.
struct ObsArgs {
  bool quick = false;
  bool smoke = false;
  bool metrics = false;
  std::string trace_file;  ///< empty = tracing off
  std::string backend = "u64";
};

inline ObsArgs parse_args(int argc, char** argv) {
  ObsArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      args.metrics = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      args.trace_file = argv[++i];
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      args.backend = argv[++i];
    }
  }
  return args;
}

/// True when `--quick` was passed (kept for benches that take no other
/// flags).
inline bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

/// Wall-clock stopwatch — replaces the per-bench seconds_since() copies.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void restart() { start_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Per-bench observability session.  Construct before the workload:
/// installs a tracer when --trace was given and snapshots the metrics
/// registry.  Call finish() after the workload (the destructor does it as
/// a fallback): writes the trace file and, with --metrics, the counter
/// deltas to stderr.  record() is the manifest-stamped root object for
/// the machine-readable perf JSON.
class ObsSession {
 public:
  ObsSession(std::string bench, ObsArgs args, std::uint64_t seed = 0,
             const std::string& options_desc = {})
      : name_(std::move(bench)), args_(std::move(args)) {
    manifest_ = obs::RunManifest::collect();
    manifest_.seed = seed;
    if (!options_desc.empty()) manifest_.digest_options(options_desc);
    if (!args_.trace_file.empty()) {
      tracer_ = std::make_unique<obs::ScopedTracer>();
      obs::set_thread_name("main");
    }
    before_ = obs::snapshot_metrics();
  }
  ~ObsSession() { finish(); }
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  [[nodiscard]] const obs::RunManifest& manifest() const { return manifest_; }
  [[nodiscard]] const ObsArgs& args() const { return args_; }

  /// Root record for the perf JSON, pre-stamped with bench name and
  /// manifest (check_perf.py gates dotted paths the bench adds on top).
  [[nodiscard]] obs::Json record() const {
    auto j = obs::Json::object();
    j.set("bench", name_);
    j.set("manifest", manifest_.to_json());
    return j;
  }

  /// Counter deltas since the session started.
  [[nodiscard]] obs::MetricsSnapshot metrics_delta() const {
    return obs::diff_metrics(before_, obs::snapshot_metrics());
  }

  /// False when the requested trace file could not be written.
  [[nodiscard]] bool ok() const { return ok_; }

  void finish() {
    if (finished_) return;
    finished_ = true;
    if (args_.metrics) {
      const obs::MetricsSnapshot delta = metrics_delta();
      std::cerr << name_ << ": metrics since start\n";
      for (const auto& [metric, value] : delta.counters) {
        std::cerr << "  " << metric << " = " << value << "\n";
      }
    }
    if (tracer_ != nullptr) {
      auto other = obs::Json::object();
      other.set("manifest", manifest_.to_json());
      std::ofstream out(args_.trace_file);
      if (out) {
        tracer_->tracer().write(out, std::move(other));
        std::cerr << name_ << ": trace written to " << args_.trace_file
                  << "\n";
      } else {
        std::cerr << name_ << ": cannot open trace file " << args_.trace_file
                  << "\n";
        ok_ = false;
      }
      tracer_.reset();  // uninstall before the process tears down
    }
  }

 private:
  std::string name_;
  ObsArgs args_;
  obs::RunManifest manifest_;
  obs::MetricsSnapshot before_;
  std::unique_ptr<obs::ScopedTracer> tracer_;
  bool finished_ = false;
  bool ok_ = true;
};

}  // namespace pml::benchutil
