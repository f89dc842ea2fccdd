// Property tests for the flat per-key containers: cache::SlotTable,
// cache::LruIndex (a SlotTable with no payload) and the storage layer's
// AddressList.  Random operation sequences run against reference models
// built from node-based standard containers; the recency model is the
// std::list + std::unordered_map LruIndex the caches used before.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "cache/lru_index.h"
#include "cache/slot_table.h"
#include "common/rng.h"
#include "storage/subscriber_table.h"

namespace faastcc::cache {
namespace {

// The reference: keys in recency order (front = most recent) plus a map
// from key to list position and payload.
class ModelLru {
 public:
  bool touch(Key k) {
    auto it = index_.find(k);
    if (it == index_.end()) return false;
    order_.splice(order_.begin(), order_, it->second.first);
    return true;
  }
  // Inserts as most recent; an existing key keeps its payload and position.
  bool insert(Key k, uint64_t v) {
    if (index_.count(k) != 0) return false;
    order_.push_front(k);
    index_.emplace(k, std::make_pair(order_.begin(), v));
    return true;
  }
  bool erase(Key k) {
    auto it = index_.find(k);
    if (it == index_.end()) return false;
    order_.erase(it->second.first);
    index_.erase(it);
    return true;
  }
  std::optional<Key> least_recent() const {
    if (order_.empty()) return std::nullopt;
    return order_.back();
  }
  const uint64_t* find(Key k) const {
    auto it = index_.find(k);
    return it == index_.end() ? nullptr : &it->second.second;
  }
  uint64_t* find(Key k) {
    auto it = index_.find(k);
    return it == index_.end() ? nullptr : &it->second.second;
  }
  size_t size() const { return index_.size(); }
  std::map<Key, uint64_t> contents() const {
    std::map<Key, uint64_t> out;
    for (const auto& [k, e] : index_) out.emplace(k, e.second);
    return out;
  }

 private:
  std::list<Key> order_;
  std::unordered_map<Key, std::pair<std::list<Key>::iterator, uint64_t>>
      index_;
};

// Bucket functions that make keys collide on purpose.  Few homes give long
// probe runs; homes at the top of the index force runs to wrap around, so
// backward-shift deletion crosses the end of the bucket array.
struct FewHomes {
  size_t operator()(Key k) const { return static_cast<size_t>(k % 3); }
};
struct WrapHomes {
  size_t operator()(Key k) const { return SIZE_MAX - k % 5; }
};
struct Identity {
  size_t operator()(Key k) const { return static_cast<size_t>(k); }
};

template <typename Hash>
void check_same(SlotTable<uint64_t, Hash>& table, const ModelLru& model) {
  ASSERT_EQ(table.size(), model.size());
  ASSERT_EQ(table.least_recent(), model.least_recent());
  std::map<Key, uint64_t> seen;
  table.for_each([&seen](Key k, uint64_t v) { seen.emplace(k, v); });
  ASSERT_EQ(seen, model.contents());
}

// Random touch / insert / erase / find / least_recent, with bursts of
// insert-then-evict churn at `capacity` entries.  Returns the victim
// sequence after checking it against the model's.
template <typename Hash>
std::vector<Key> run_against_model(uint64_t seed, uint64_t universe,
                                   size_t capacity, int ops) {
  SlotTable<uint64_t, Hash> table;
  ModelLru model;
  Rng rng(seed);
  std::vector<Key> victims;
  for (int i = 0; i < ops; ++i) {
    const Key k = rng.next_below(universe);
    switch (rng.next_below(6)) {
      case 0: {  // touch
        uint64_t* got = table.touch(k);
        EXPECT_EQ(got != nullptr, model.touch(k));
        break;
      }
      case 1:
      case 2: {  // insert, then evict down to capacity like a cache
        const uint64_t v = rng.next_u64();
        auto [payload, inserted] = table.emplace(k, v);
        EXPECT_EQ(inserted, model.insert(k, v));
        EXPECT_EQ(*payload, *model.find(k));
        while (table.size() > capacity) {
          const auto victim = table.least_recent();
          EXPECT_EQ(victim, model.least_recent());
          victims.push_back(*victim);
          EXPECT_TRUE(table.erase(*victim));
          model.erase(*victim);
        }
        break;
      }
      case 3:  // erase
        EXPECT_EQ(table.erase(k), model.erase(k));
        break;
      case 4: {  // find, and update through the returned pointer
        uint64_t* got = table.find(k);
        uint64_t* want = model.find(k);
        EXPECT_EQ(got != nullptr, want != nullptr);
        if (got != nullptr && want != nullptr) {
          EXPECT_EQ(*got, *want);
          *got = *want = rng.next_u64();
        }
        break;
      }
      default:
        EXPECT_EQ(table.least_recent(), model.least_recent());
        EXPECT_EQ(table.contains(k), model.find(k) != nullptr);
        break;
    }
    if (i % 512 == 0) check_same(table, model);
  }
  check_same(table, model);
  // Drain in victim order: the full recency order must agree.
  while (auto victim = table.least_recent()) {
    EXPECT_EQ(victim, model.least_recent());
    victims.push_back(*victim);
    table.erase(*victim);
    model.erase(*victim);
  }
  EXPECT_EQ(model.size(), 0u);
  return victims;
}

TEST(SlotTable, MatchesListModelThroughGrowth) {
  // Capacity far above the universe: the table grows from empty through
  // several rehashes and never evicts except in the final drain.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    run_against_model<KeyMix>(seed, 5000, SIZE_MAX, 40000);
  }
}

TEST(SlotTable, MatchesListModelUnderEvictionChurnAtMaxLoad) {
  // 96 entries fill 3/4 of 128 buckets, the table's maximum load; 97 (one
  // insert before its eviction) forces 256.  Both sit right at the edge.
  for (size_t capacity : {size_t{95}, size_t{96}, size_t{97}}) {
    const auto victims = run_against_model<KeyMix>(capacity, 400, capacity,
                                                    60000);
    EXPECT_GT(victims.size(), 10000u);
  }
}

TEST(SlotTable, MatchesListModelWhenKeysCollide) {
  run_against_model<FewHomes>(11, 300, 48, 30000);
  run_against_model<WrapHomes>(12, 300, 48, 30000);
  // Consecutive keys take consecutive buckets: runs merge into clusters.
  run_against_model<Identity>(13, 200, 96, 30000);
  run_against_model<FewHomes>(14, 2000, SIZE_MAX, 20000);
}

TEST(SlotTable, ReserveKeepsContentsAndOrder) {
  SlotTable<uint64_t> table;
  ModelLru model;
  for (Key k = 0; k < 100; ++k) {
    table.emplace(k * 7, k);
    model.insert(k * 7, k);
  }
  table.touch(0);
  model.touch(0);
  table.reserve(100000);
  check_same(table, model);
  for (Key k = 100; k < 5000; ++k) {
    table.emplace(k * 7, k);
    model.insert(k * 7, k);
  }
  check_same(table, model);
}

TEST(LruIndex, VictimSequenceMatchesListModel) {
  // The public LruIndex API, driven like a cache of capacity 64 over 1000
  // keys with Zipf-like skew from squaring a uniform draw.
  LruIndex lru;
  ModelLru model;
  Rng rng(21);
  std::vector<Key> got, want;
  for (int i = 0; i < 200000; ++i) {
    const double u = rng.next_double();
    const Key k = static_cast<Key>(u * u * 1000);
    if (rng.next_below(10) == 0) {
      lru.erase(k);
      model.erase(k);
    } else {
      lru.touch(k);
      if (!model.touch(k)) model.insert(k, 0);
    }
    while (lru.size() > 64) {
      got.push_back(*lru.least_recent());
      want.push_back(*model.least_recent());
      lru.erase(got.back());
      model.erase(want.back());
    }
    ASSERT_EQ(lru.size(), model.size());
    ASSERT_EQ(lru.contains(k), model.find(k) != nullptr);
  }
  EXPECT_EQ(got, want);
  EXPECT_GT(got.size(), 1000u);
  for (Key k = 0; k < 1000; ++k) {
    EXPECT_EQ(lru.contains(k), model.find(k) != nullptr) << k;
  }
}

TEST(AddressList, StaysAscendingLikeASet) {
  // Random inserts and erases, spilling past the inline capacity and back,
  // while the enclosing table moves lists around on growth and erasure.
  SlotTable<storage::AddressList> lists;
  std::map<Key, std::set<net::Address>> model;
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const Key k = rng.next_below(50);
    const auto a = static_cast<net::Address>(3000 + rng.next_below(12));
    if (rng.next_below(3) == 0) {
      storage::AddressList* l = lists.find(k);
      const bool erased = l != nullptr && l->erase(a);
      EXPECT_EQ(erased, model[k].erase(a) == 1);
      if (l != nullptr && l->empty()) lists.erase(k);
    } else {
      EXPECT_EQ(lists.emplace(k).first->insert(a), model[k].insert(a).second);
    }
  }
  for (auto& [k, want] : model) {
    const storage::AddressList* l = lists.find(k);
    if (want.empty()) {
      EXPECT_EQ(l, nullptr);
      continue;
    }
    ASSERT_NE(l, nullptr);
    EXPECT_TRUE(std::equal(l->begin(), l->end(), want.begin(), want.end()));
  }
}

}  // namespace
}  // namespace faastcc::cache
