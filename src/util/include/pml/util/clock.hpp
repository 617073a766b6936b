#pragma once
// Injectable time source for deadline logic.
//
// Production code (svc::SweepService) talks to the Clock interface so
// the robustness tests can substitute a ManualClock: deadlines "expire"
// and injected straggler delays "sleep" by advancing a counter, which
// makes every timeout scenario deterministic and instant — the test
// suite never calls a real sleep.  SteadyClock is the production
// implementation (std::chrono::steady_clock, monotonic).

#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>

namespace pml::util {

/// Monotonic time source.  now_ns() has no defined epoch — only
/// differences are meaningful.  Implementations must be safe to call
/// from any thread.
class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual std::uint64_t now_ns() = 0;
  /// Block the calling thread for `ns` (or, for virtual clocks, advance
  /// time by `ns` without blocking).
  virtual void sleep_ns(std::uint64_t ns) = 0;
};

/// Real wall time (std::chrono::steady_clock).
class SteadyClock final : public Clock {
 public:
  [[nodiscard]] std::uint64_t now_ns() override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  void sleep_ns(std::uint64_t ns) override {
    if (ns != 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
  }
};

/// Process-wide SteadyClock instance (what services default to when no
/// clock is injected).
[[nodiscard]] Clock& steady_clock();

/// Deterministic test clock: time only moves when advance() is called or
/// a sleep_ns() auto-advances it, so nothing ever blocks.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(std::uint64_t start_ns = 0) : now_(start_ns) {}

  [[nodiscard]] std::uint64_t now_ns() override {
    const std::lock_guard<std::mutex> lock(mu_);
    return now_;
  }
  /// Never blocks: advances virtual time by `ns`.
  void sleep_ns(std::uint64_t ns) override { advance(ns); }
  void advance(std::uint64_t ns) {
    const std::lock_guard<std::mutex> lock(mu_);
    now_ += ns;
  }

 private:
  std::mutex mu_;
  std::uint64_t now_ = 0;
};

}  // namespace pml::util
