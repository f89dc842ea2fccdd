// Per-thread free lists for the simulator core's small, short-lived
// blocks: coroutine frames (Task, spawn), future states and in-flight
// message records.
//
// A run creates and destroys millions of these, a few hundred bytes each,
// in a steady stream whose live set stays small.  SmallPool rounds a
// request up to a 64-byte size class and keeps released blocks on the
// thread's list for that class, so a warmed-up run allocates nothing on
// these paths.  Blocks come from ::operator new one at a time (no slabs)
// and go back to it when the thread exits.  Requests above kMaxBytes go
// straight to ::operator new.
//
// A released block is poisoned for AddressSanitizer and unpoisoned when it
// is handed out again, so a use-after-free of a pooled frame or future
// state still reports under ASan (until the block is reused).
#pragma once

#include <cstddef>
#include <new>

namespace faastcc::sim {

class SmallPool {
 public:
  static constexpr size_t kClassBytes = 64;
  static constexpr size_t kMaxBytes = 2048;

  static void* allocate(size_t bytes);
  // `bytes` must be the size the block was allocated with.
  static void deallocate(void* p, size_t bytes) noexcept;
};

// Standard allocator over SmallPool, for allocate_shared.
template <typename T>
struct PoolAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "pooled blocks carry the default new alignment only");
  using value_type = T;

  PoolAllocator() = default;
  // Rebinding: allocate_shared allocates its control block through it.
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(SmallPool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept {
    SmallPool::deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace faastcc::sim
