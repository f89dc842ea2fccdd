// Per-key subscriber sets of the storage notification service (TccPartition
// and EvReplica): a flat key table whose payload is a small sorted vector
// of cache addresses.  A key with no subscriber has no slot, so the table
// stays proportional to the subscribed keys.  Push fan-out walks a key's
// subscribers in ascending address order.
#pragma once

#include <algorithm>
#include <cstdint>

#include "cache/slot_table.h"
#include "common/types.h"
#include "net/network.h"

namespace faastcc::storage {

// An ascending set of addresses.  The first kInline live inside the object;
// more move to one heap array that grows by doubling.
class AddressList {
 public:
  AddressList() = default;
  AddressList(AddressList&& o) noexcept { take(o); }
  AddressList& operator=(AddressList&& o) noexcept {
    if (this != &o) {
      free_heap();
      take(o);
    }
    return *this;
  }
  AddressList(const AddressList&) = delete;
  AddressList& operator=(const AddressList&) = delete;
  ~AddressList() { free_heap(); }

  const net::Address* begin() const { return data(); }
  const net::Address* end() const { return data() + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void reserve(size_t n) {
    if (n <= cap_) return;
    auto* grown = new net::Address[n];
    std::copy(begin(), end(), grown);
    free_heap();
    heap_ = grown;
    cap_ = static_cast<uint32_t>(n);
  }

  // False if `a` was already present.
  bool insert(net::Address a) {
    const net::Address* pos = std::lower_bound(begin(), end(), a);
    if (pos != end() && *pos == a) return false;
    const size_t at = static_cast<size_t>(pos - begin());
    if (size_ == cap_) reserve(2 * static_cast<size_t>(cap_));
    net::Address* d = data();
    std::copy_backward(d + at, d + size_, d + size_ + 1);
    d[at] = a;
    ++size_;
    return true;
  }

  // False if `a` was absent.
  bool erase(net::Address a) {
    net::Address* d = data();
    net::Address* pos = std::lower_bound(d, d + size_, a);
    if (pos == d + size_ || *pos != a) return false;
    std::copy(pos + 1, d + size_, pos);
    --size_;
    return true;
  }

 private:
  static constexpr uint32_t kInline = 2;

  bool on_heap() const { return cap_ > kInline; }
  net::Address* data() { return on_heap() ? heap_ : inline_; }
  const net::Address* data() const { return on_heap() ? heap_ : inline_; }

  void free_heap() {
    if (on_heap()) delete[] heap_;
  }
  // Moves `o`'s contents here (this holds no heap array) and empties `o`.
  void take(AddressList& o) {
    size_ = o.size_;
    cap_ = o.cap_;
    if (o.on_heap()) {
      heap_ = o.heap_;
    } else {
      std::copy(o.inline_, o.inline_ + o.size_, inline_);
    }
    o.size_ = 0;
    o.cap_ = kInline;
  }

  uint32_t size_ = 0;
  uint32_t cap_ = kInline;
  union {
    net::Address inline_[kInline];
    net::Address* heap_;
  };
};

class SubscriberTable {
 public:
  size_t size() const { return table_.size(); }  // subscribed keys

  // Sizes the table for `keys` subscribed keys at once (pre-warming).
  void reserve(size_t keys) { table_.reserve(keys); }

  // k's subscribers, created empty if `k` has none; add with insert().
  AddressList& list(Key k) { return *table_.emplace(k).first; }

  // k's subscribers, or nullptr if it has none.
  const AddressList* find(Key k) const { return table_.find(k); }
  bool contains(Key k) const { return table_.contains(k); }

  // Drops `cache` from k's subscribers, and `k` itself once none is left.
  // False if `cache` was not subscribed to `k`.
  bool remove(Key k, net::Address cache) {
    AddressList* subs = table_.find(k);
    if (subs == nullptr || !subs->erase(cache)) return false;
    if (subs->empty()) table_.erase(k);
    return true;
  }

 private:
  cache::SlotTable<AddressList> table_;
};

}  // namespace faastcc::storage
