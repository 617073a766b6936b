#include "pml/obs/metrics.hpp"

#include <algorithm>
#include <deque>
#include <mutex>

namespace pml::obs {

namespace {

/// The registry: deques give stable addresses for the references handed
/// out; the mutex guards only registration and snapshotting, never the
/// counting hot path.
struct Registry {
  std::mutex mu;
  std::deque<Counter> counters;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: metrics outlive exit paths
  return *r;
}

}  // namespace

Counter& counter(std::string_view name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (Counter& c : r.counters) {
    if (c.name() == name) return c;
  }
  return r.counters.emplace_back(std::string(name));
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

MetricsSnapshot snapshot_metrics() {
  Registry& r = registry();
  MetricsSnapshot snap;
  {
    const std::lock_guard<std::mutex> lock(r.mu);
    snap.counters.reserve(r.counters.size());
    for (const Counter& c : r.counters) {
      snap.counters.emplace_back(c.name(), c.value());
    }
  }
  std::sort(snap.counters.begin(), snap.counters.end());
  return snap;
}

MetricsSnapshot diff_metrics(const MetricsSnapshot& before,
                             const MetricsSnapshot& after) {
  MetricsSnapshot out;
  for (const auto& [name, value] : after.counters) {
    const std::uint64_t prev = before.counter_value(name);
    out.counters.emplace_back(name, value >= prev ? value - prev : 0);
  }
  return out;
}

}  // namespace pml::obs
