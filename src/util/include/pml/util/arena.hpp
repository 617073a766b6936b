#pragma once
// Bump-pointer arena for per-phase analysis scratch.
//
// The zero-allocation evaluation core (core::EvalContext) hands one Arena
// to every phase that needs transient, size-known-up-front working memory
// (levelization indegrees/driver maps, STA arrival/predecessor arrays):
// the first pass over a module grows the arena's blocks, every later
// reset() rewinds the bump pointers without freeing, so steady-state
// repeated evaluation of same-shaped modules performs no heap allocation.
//
// Only trivial value types are supported — alloc<T>() returns
// *uninitialized* storage and reset() runs no destructors.  Not
// thread-safe; give each worker its own arena (or its own EvalContext).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace pml::util {

class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Rewind every block to empty, keeping the memory.  All pointers
  /// previously returned by alloc() are invalidated.
  void reset() noexcept {
    for (Block& b : blocks_) b.used = 0;
    cursor_ = 0;
  }

  /// Uninitialized storage for `count` Ts (nullptr when count == 0).
  /// Grows the arena on first use; steady-state reuse is allocation-free.
  template <typename T>
  [[nodiscard]] T* alloc(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "Arena holds trivial scratch only");
    if (count == 0) return nullptr;
    return reinterpret_cast<T*>(raw(count * sizeof(T), alignof(T)));
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static constexpr std::size_t kMinBlockBytes = 4096;

  std::byte* raw(std::size_t bytes, std::size_t align) {
    for (; cursor_ < blocks_.size(); ++cursor_) {
      Block& b = blocks_[cursor_];
      const std::size_t start = (b.used + align - 1) & ~(align - 1);
      if (start + bytes <= b.size) {
        b.used = start + bytes;
        return b.data.get() + start;
      }
      // A later block may still have room, but skipping fragments the
      // arena unpredictably; sealing exhausted blocks keeps the reuse
      // pattern deterministic run to run.
    }
    static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= 16,
                  "block bases assumed aligned for all trivial scratch");
    std::size_t size = kMinBlockBytes;
    if (!blocks_.empty()) size = blocks_.back().size * 2;
    if (size < bytes) size = bytes;
    Block b;
    b.data = std::make_unique<std::byte[]>(size);
    b.size = size;
    blocks_.push_back(std::move(b));
    cursor_ = blocks_.size() - 1;
    Block& nb = blocks_.back();
    nb.used = bytes;
    return nb.data.get();
  }

  std::vector<Block> blocks_;
  std::size_t cursor_ = 0;
};

}  // namespace pml::util
