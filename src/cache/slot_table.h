// A flat per-key table with an intrusive least-recently-used order: the one
// container behind every cache tier (FaaSTCC, HydroCache, Cloudburst) and
// the storage layer's per-key subscriber tables.
//
// Entries live in one dense array of slots, each holding the key, the
// payload and two uint32_t LRU links.  An open-addressing index maps keys to
// slot positions (linear probing, backward-shift deletion, no tombstones).
// Erasing moves the last slot into the hole, so the slot array stays dense
// and memory is proportional to the entries held, never to the key space.
// A warm key costs one slot plus about two 4-byte index buckets, and no heap
// node of its own.
//
// Pointers returned by find()/emplace() stay valid until the next insertion
// or erasure; touch() never moves a slot.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"

namespace faastcc::cache {

// Dense key ids differ only in their low bits; the index takes its bucket
// from the low bits, so keys are mixed first (the splitmix64 finaliser).
// A hash that kept neighbouring keys in neighbouring buckets would pack a
// dense key range (a warm cache) into one probe run that every miss scans
// to its end.
struct KeyMix {
  size_t operator()(Key k) const {
    k ^= k >> 30;
    k *= 0xbf58476d1ce4e5b9ULL;
    k ^= k >> 27;
    k *= 0x94d049bb133111ebULL;
    k ^= k >> 31;
    return static_cast<size_t>(k);
  }
};

template <typename Payload, typename Hash = KeyMix>
class SlotTable {
 public:
  size_t size() const { return slots_.size(); }
  // Bytes of one slot in the dense array (key, LRU links and payload).
  static constexpr size_t slot_bytes() { return sizeof(Slot); }

  // Sizes the slot array and the index for `n` entries at once.
  void reserve(size_t n) {
    slots_.reserve(n);
    if (n > max_load()) rehash(buckets_for(n));
  }

  Payload* find(Key k) {
    const size_t b = bucket_of(k);
    return b == kNoBucket ? nullptr : &slots_[index_[b]].value;
  }
  const Payload* find(Key k) const {
    const size_t b = bucket_of(k);
    return b == kNoBucket ? nullptr : &slots_[index_[b]].value;
  }
  bool contains(Key k) const { return bucket_of(k) != kNoBucket; }

  // Inserts `k` as the most recent entry, its payload built from `args`.
  // An existing entry is returned untouched (neither replaced nor moved in
  // the recency order); `second` says whether an insertion happened.
  template <typename... Args>
  std::pair<Payload*, bool> emplace(Key k, Args&&... args) {
    if (slots_.size() + 1 > max_load()) {
      rehash(buckets_for(slots_.size() + 1));
    }
    size_t b = home(k);
    for (; index_[b] != kEmpty; b = (b + 1) & mask_) {
      if (slots_[index_[b]].key == k) return {&slots_[index_[b]].value, false};
    }
    const auto s = static_cast<uint32_t>(slots_.size());
    slots_.push_back(Slot{k, kNil, kNil, Payload(std::forward<Args>(args)...)});
    index_[b] = s;
    link_front(s);
    return {&slots_[s].value, true};
  }

  // Moves `k` to the most recent position; nullptr if absent.
  Payload* touch(Key k) {
    const size_t b = bucket_of(k);
    if (b == kNoBucket) return nullptr;
    const uint32_t s = index_[b];
    if (s != head_) {
      unlink(s);
      link_front(s);
    }
    return &slots_[s].value;
  }

  bool erase(Key k) {
    size_t hole = bucket_of(k);
    if (hole == kNoBucket) return false;
    const uint32_t s = index_[hole];
    unlink(s);
    // Backward-shift deletion: pull each later member of the probe run
    // into the hole unless its home lies cyclically in (hole, j].
    for (size_t j = (hole + 1) & mask_; index_[j] != kEmpty;
         j = (j + 1) & mask_) {
      const size_t h = home(slots_[index_[j]].key);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = kEmpty;
    // Keep the slot array dense: the last slot fills the gap.
    const auto last = static_cast<uint32_t>(slots_.size() - 1);
    if (s != last) {
      slots_[s] = std::move(slots_[last]);
      Slot& moved = slots_[s];
      if (moved.newer == kNil) head_ = s; else slots_[moved.newer].older = s;
      if (moved.older == kNil) tail_ = s; else slots_[moved.older].newer = s;
      size_t b = home(moved.key);
      while (index_[b] != last) b = (b + 1) & mask_;
      index_[b] = s;
    }
    slots_.pop_back();
    return true;
  }

  std::optional<Key> least_recent() const {
    if (tail_ == kNil) return std::nullopt;
    return slots_[tail_].key;
  }

  // Visits every entry as f(key, payload&) in slot order, which is neither
  // key nor recency order: callers whose output must not depend on it sort.
  template <typename F>
  void for_each(F&& f) {
    for (Slot& s : slots_) f(s.key, s.value);
  }
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) f(s.key, s.value);
  }

 private:
  struct Slot {
    Key key;
    uint32_t newer;  // towards the most recent slot; kNil at the head
    uint32_t older;  // towards the least recent slot; kNil at the tail
    [[no_unique_address]] Payload value;
  };

  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kNoBucket = SIZE_MAX;

  // At most 3/4 of the buckets are in use.
  size_t max_load() const { return index_.size() / 4 * 3; }
  static size_t buckets_for(size_t n) {
    size_t b = 8;
    while (b / 4 * 3 < n) b *= 2;
    return b;
  }

  size_t home(Key k) const { return Hash{}(k) & mask_; }

  size_t bucket_of(Key k) const {
    if (index_.empty()) return kNoBucket;
    for (size_t b = home(k); index_[b] != kEmpty; b = (b + 1) & mask_) {
      if (slots_[index_[b]].key == k) return b;
    }
    return kNoBucket;
  }

  void rehash(size_t buckets) {
    index_.assign(buckets, kEmpty);
    mask_ = buckets - 1;
    for (uint32_t s = 0; s < slots_.size(); ++s) {
      size_t b = home(slots_[s].key);
      while (index_[b] != kEmpty) b = (b + 1) & mask_;
      index_[b] = s;
    }
  }

  void link_front(uint32_t s) {
    slots_[s].newer = kNil;
    slots_[s].older = head_;
    if (head_ != kNil) slots_[head_].newer = s; else tail_ = s;
    head_ = s;
  }

  void unlink(uint32_t s) {
    const Slot& slot = slots_[s];
    if (slot.newer == kNil) head_ = slot.older;
    else slots_[slot.newer].older = slot.older;
    if (slot.older == kNil) tail_ = slot.newer;
    else slots_[slot.older].newer = slot.newer;
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> index_;  // slot position per bucket, or kEmpty
  size_t mask_ = 0;
  uint32_t head_ = kNil;  // most recent
  uint32_t tail_ = kNil;  // least recent
};

}  // namespace faastcc::cache
