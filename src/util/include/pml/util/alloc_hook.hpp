#pragma once
// Per-thread heap-allocation counting, the proof mechanism behind the
// zero-allocation evaluation core.
//
// The library side is just a thread-local counter: thread_alloc_count()
// is cheap enough that core::evaluate_circuit reads it unconditionally
// around every call and surfaces the delta as the `eval.allocs` obs
// counter.  In a normal binary nothing ever increments it, so the
// counter stays 0 and costs two TLS reads per evaluation.
//
// A *test or bench binary* that wants real numbers places
// PML_INSTALL_COUNTING_ALLOC_HOOK at namespace scope in exactly one
// translation unit: it replaces the global operator new/delete family
// with malloc-backed versions that bump the calling thread's counter.
// The hook is never linked into the pml library itself — only binaries
// that opt in pay for it, and only they observe nonzero `eval.allocs`.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace pml::util {

/// Number of operator-new calls made by this thread since it started.
/// Always 0 unless the binary installed PML_INSTALL_COUNTING_ALLOC_HOOK.
[[nodiscard]] std::uint64_t& thread_alloc_count() noexcept;

/// Armed allocation-failure countdown for this thread: when the counting
/// hook is installed and the countdown is n > 0, the nth subsequent
/// allocation on this thread throws std::bad_alloc (and disarms).  0 =
/// disarmed (the default; a no-op without the hook).  This is the
/// chaos-engineering lever behind chaos::FaultPlan's fail-allocation
/// action, the TaskPool group-submission-failure test, and the
/// evaluation-context recovery walk.
[[nodiscard]] std::uint64_t& thread_alloc_fail_countdown() noexcept;

/// Make the nth allocation on this thread fail (1 = the very next one).
inline void arm_alloc_failure(std::uint64_t nth) noexcept {
  thread_alloc_fail_countdown() = nth;
}
inline void disarm_alloc_failure() noexcept {
  thread_alloc_fail_countdown() = 0;
}

}  // namespace pml::util

// Replacement operator new/delete family (C++20 replaceable set).  The
// nothrow forms are not replaced: their defaults forward to the throwing
// forms below, so they are still counted.
#define PML_INSTALL_COUNTING_ALLOC_HOOK                                       \
  void* operator new(std::size_t size) {                                      \
    return ::pml::util::detail::counting_alloc(size);                         \
  }                                                                           \
  void* operator new[](std::size_t size) {                                    \
    return ::pml::util::detail::counting_alloc(size);                         \
  }                                                                           \
  void* operator new(std::size_t size, std::align_val_t align) {              \
    return ::pml::util::detail::counting_alloc_aligned(                       \
        size, static_cast<std::size_t>(align));                               \
  }                                                                           \
  void* operator new[](std::size_t size, std::align_val_t align) {            \
    return ::pml::util::detail::counting_alloc_aligned(                       \
        size, static_cast<std::size_t>(align));                               \
  }                                                                           \
  void operator delete(void* p) noexcept { std::free(p); }                    \
  void operator delete[](void* p) noexcept { std::free(p); }                  \
  void operator delete(void* p, std::size_t) noexcept { std::free(p); }       \
  void operator delete[](void* p, std::size_t) noexcept { std::free(p); }     \
  void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }  \
  void operator delete[](void* p, std::align_val_t) noexcept {                \
    std::free(p);                                                             \
  }                                                                           \
  void operator delete(void* p, std::size_t, std::align_val_t) noexcept {     \
    std::free(p);                                                             \
  }                                                                           \
  void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {   \
    std::free(p);                                                             \
  }                                                                           \
  static_assert(true, "require a trailing semicolon")

namespace pml::util::detail {

/// Decrement an armed failure countdown; throw when it strikes zero.
inline void consume_armed_failure() {
  std::uint64_t& countdown = thread_alloc_fail_countdown();
  if (countdown != 0 && --countdown == 0) throw std::bad_alloc();
}

inline void* counting_alloc(std::size_t size) {
  ++thread_alloc_count();
  consume_armed_failure();
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void* counting_alloc_aligned(std::size_t size, std::size_t align) {
  ++thread_alloc_count();
  consume_armed_failure();
  if (size == 0) size = 1;
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace pml::util::detail
