#pragma once
// Standard-library allocator for large scratch buffers that come and go
// with short-lived owners.
//
// glibc serves a large request with its own mapping, but when such a
// block is freed it raises its mmap threshold to the block's size: later
// requests of that size come from the per-thread heaps, and once freed
// they stay cached there.  Engines built per evaluation on several pool
// threads then leave each heap holding their biggest buffers long after
// they are gone, and the process's resident set grows run by run.
// PageAllocator maps requests of kMinBytes or more straight from the OS
// and unmaps them on deallocation, so a freed buffer leaves at once and
// the malloc thresholds never move; smaller requests use operator new.
// A mapping commits pages only as they are first written (it opts out of
// transparent huge pages, which would commit 2 MiB at a touch), so a
// generous reserve() costs address space, not memory, and
// release_pages() hands a long-lived buffer's pages back between uses.
// Where <sys/mman.h> is missing, every request uses operator new and
// release_pages() does nothing.

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if __has_include(<sys/mman.h>) && __has_include(<unistd.h>)
#include <sys/mman.h>
#include <unistd.h>
#define PML_PAGE_ALLOCATOR_MMAP 1
#endif

namespace pml::util {

template <class T>
struct PageAllocator {
  using value_type = T;
  /// Smallest request mapped from the OS (glibc's initial threshold).
  static constexpr std::size_t kMinBytes = std::size_t{128} << 10;

  PageAllocator() = default;
  template <class U>
  explicit PageAllocator(const PageAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    const std::size_t bytes = n * sizeof(T);
#if defined(PML_PAGE_ALLOCATOR_MMAP)
    if (bytes >= kMinBytes) {
      void* const p =
          ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
#if defined(MADV_NOHUGEPAGE)
      ::madvise(p, bytes, MADV_NOHUGEPAGE);
#endif
      return static_cast<T*>(p);
    }
#endif
    return static_cast<T*>(::operator new(bytes));
  }
  void deallocate(T* p, std::size_t n) noexcept {
#if defined(PML_PAGE_ALLOCATOR_MMAP)
    if (n * sizeof(T) >= kMinBytes) {
      ::munmap(p, n * sizeof(T));
      return;
    }
#endif
    ::operator delete(p);
  }

  friend bool operator==(const PageAllocator& /*a*/,
                         const PageAllocator& /*b*/) noexcept {
    return true;
  }
};

/// Return the pages behind v[from, v.size()) to the OS when v's storage
/// is one of PageAllocator's mappings, keeping the mapping: the contents
/// are lost, and the pages come back, zeroed, when next written.
template <class T>
void release_pages(std::vector<T, PageAllocator<T>>& v,
                   std::size_t from) noexcept {
#if defined(PML_PAGE_ALLOCATOR_MMAP)
  if (v.capacity() * sizeof(T) < PageAllocator<T>::kMinBytes ||
      from >= v.size()) {
    return;
  }
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto first = reinterpret_cast<std::uintptr_t>(v.data() + from);
  const auto last = reinterpret_cast<std::uintptr_t>(v.data() + v.size());
  const std::uintptr_t begin = (first + page - 1) / page * page;
  const std::uintptr_t end = last / page * page;
  if (end > begin) {
    ::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_DONTNEED);
  }
#else
  (void)v;
  (void)from;
#endif
}

}  // namespace pml::util
