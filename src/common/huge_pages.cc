#include "common/huge_pages.h"

#include <cstdint>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace aligraph {

#if defined(__linux__)

void* AllocateHugePageBlock(size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
#if defined(MADV_HUGEPAGE)
  constexpr uintptr_t kMask = kHugePageBytes - 1;
  const uintptr_t begin = (reinterpret_cast<uintptr_t>(p) + kMask) & ~kMask;
  const uintptr_t end = (reinterpret_cast<uintptr_t>(p) + bytes) & ~kMask;
  // A kernel without transparent huge pages refuses the advice; the block
  // then stays on 4 KB pages.
  (void)madvise(reinterpret_cast<void*>(begin), end - begin, MADV_HUGEPAGE);
#endif
  return p;
}

void FreeHugePageBlock(void* p, size_t bytes) noexcept { munmap(p, bytes); }

#else

void* AllocateHugePageBlock(size_t bytes) { return ::operator new(bytes); }

void FreeHugePageBlock(void* p, size_t /*bytes*/) noexcept {
  ::operator delete(p);
}

#endif

}  // namespace aligraph
