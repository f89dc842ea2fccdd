// Immutable, intrusively refcounted array: the representation behind
// Value (bytes) and cache::DepList (stored dependency lists).
//
// A handle is one pointer.  It points at a single heap block: a 16-byte
// header (reference count, element count) followed by the elements
// inline.  Building an array costs one allocation; copying a handle bumps
// the count; the last holder to let go frees the block.  An empty array
// holds no block at all.
//
// The count is a plain integer, not an atomic.  Every simulation runs on
// one thread: nothing in src/, tools/, tests/ or perfbench/ starts a
// std::thread, and the parallel sweep runner forks one process per run,
// so a block is never reachable from two threads.  The count is 64 bits
// wide and cannot wrap: every holder is an 8-byte handle in memory, and a
// single block routinely has a million of them (the pre-warm value held
// by every entry of every unbounded cache).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace faastcc {

template <class T>
class SharedArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "elements are built in place and freed with the block");

 public:
  SharedArray() = default;
  // Copies `n` elements from `src` into a new block (none when n == 0).
  SharedArray(const T* src, size_t n)
      : SharedArray(
            build(n, [src, n](T* out) { std::copy_n(src, n, out); })) {}

  // Allocates a block of `n` default-initialized elements and lets
  // `fill(T*)` write them before anyone else can see the block.  If `fill`
  // throws, the block is freed.
  template <class Fill>
  static SharedArray build(size_t n, Fill&& fill) {
    SharedArray a;
    if (n == 0) return a;
    if (n > (SIZE_MAX - sizeof(Header)) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    a.h_ = ::new (::operator new(sizeof(Header) + n * sizeof(T)))
        Header{1, n};
    std::uninitialized_default_construct_n(a.elems(), n);
    fill(a.elems());
    return a;
  }

  SharedArray(const SharedArray& o) noexcept : h_(o.h_) {
    if (h_ != nullptr) ++h_->refs;
  }
  SharedArray(SharedArray&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  SharedArray& operator=(const SharedArray& o) noexcept {
    // Retain before release: self-assignment keeps the block alive.
    Header* h = o.h_;
    if (h != nullptr) ++h->refs;
    release();
    h_ = h;
    return *this;
  }
  SharedArray& operator=(SharedArray&& o) noexcept {
    if (this != &o) {
      release();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  ~SharedArray() { release(); }

  size_t size() const { return h_ != nullptr ? h_->size : 0; }
  bool empty() const { return h_ == nullptr; }
  const T* data() const { return h_ != nullptr ? elems() : nullptr; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }
  const T& operator[](size_t i) const { return elems()[i]; }

  // Whether both handles point at the same block (equal contents follow).
  bool shares_block_with(const SharedArray& o) const { return h_ == o.h_; }

 private:
  struct Header {
    uint64_t refs;
    uint64_t size;
  };
  static_assert(alignof(T) <= alignof(Header));

  T* elems() const { return reinterpret_cast<T*>(h_ + 1); }
  void release() noexcept {
    if (h_ != nullptr && --h_->refs == 0) ::operator delete(h_);
    h_ = nullptr;
  }

  Header* h_ = nullptr;
};

}  // namespace faastcc
