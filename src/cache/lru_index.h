// Least-recently-used bookkeeping shared by all three cache designs.
// The paper uses LRU replacement for the bounded-cache experiment (§6.7);
// the cache algorithms themselves are replacement-policy agnostic (§4.3).
//
// The caches keep their entries in a SlotTable, which carries this order
// itself; LruIndex is the same table with no payload, for callers that
// track recency of keys stored elsewhere.
#pragma once

#include <optional>

#include "cache/slot_table.h"
#include "common/types.h"

namespace faastcc::cache {

class LruIndex {
 public:
  // Inserts `k` as most-recently-used, or moves it there if present.
  void touch(Key k) {
    if (table_.touch(k) == nullptr) table_.emplace(k);
  }

  void erase(Key k) { table_.erase(k); }

  // The least-recently-used key, if any.
  std::optional<Key> least_recent() const { return table_.least_recent(); }

  bool contains(Key k) const { return table_.contains(k); }
  size_t size() const { return table_.size(); }

 private:
  struct NoPayload {};
  SlotTable<NoPayload> table_;
};

}  // namespace faastcc::cache
