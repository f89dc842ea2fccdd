#include "sim/pool.h"

#if defined(__has_include)
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace faastcc::sim {
namespace {

constexpr size_t kClasses = SmallPool::kMaxBytes / SmallPool::kClassBytes;

struct FreeBlock {
  FreeBlock* next;
};

// Set once this thread's lists are destroyed; blocks released after that
// (by thread_local objects destroyed later) go straight back to the heap.
// Trivially destructible, so it stays readable through thread exit.
thread_local bool lists_gone = false;

struct FreeLists {
  FreeBlock* head[kClasses] = {};

  ~FreeLists() {
    for (size_t c = 0; c < kClasses; ++c) {
      while (head[c] != nullptr) {
        FreeBlock* b = head[c];
        ASAN_UNPOISON_MEMORY_REGION(b, (c + 1) * SmallPool::kClassBytes);
        head[c] = b->next;
        ::operator delete(b);
      }
    }
    lists_gone = true;
  }
};

thread_local FreeLists lists;

size_t class_of(size_t bytes) {
  return bytes == 0 ? 0 : (bytes - 1) / SmallPool::kClassBytes;
}

}  // namespace

void* SmallPool::allocate(size_t bytes) {
  if (bytes > kMaxBytes || lists_gone) return ::operator new(bytes);
  const size_t c = class_of(bytes);
  FreeBlock* b = lists.head[c];
  if (b == nullptr) return ::operator new((c + 1) * kClassBytes);
  ASAN_UNPOISON_MEMORY_REGION(b, (c + 1) * kClassBytes);
  lists.head[c] = b->next;
  return b;
}

void SmallPool::deallocate(void* p, size_t bytes) noexcept {
  if (bytes > kMaxBytes || lists_gone) {
    ::operator delete(p);
    return;
  }
  const size_t c = class_of(bytes);
  auto* b = static_cast<FreeBlock*>(p);
  b->next = lists.head[c];
  lists.head[c] = b;
  ASAN_POISON_MEMORY_REGION(b, (c + 1) * kClassBytes);
}

}  // namespace faastcc::sim
