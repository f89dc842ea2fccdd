// Basic identifier and time types shared by every FaaSTCC module.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>

#include "common/shared_array.h"

namespace faastcc {

// Simulated time, in microseconds since simulation start.
using SimTime = int64_t;
using Duration = int64_t;

constexpr Duration microseconds(int64_t us) { return us; }
constexpr Duration milliseconds(int64_t ms) { return ms * 1000; }
constexpr Duration seconds(int64_t s) { return s * 1000 * 1000; }

constexpr double to_millis(Duration d) { return static_cast<double>(d) / 1000.0; }
constexpr double to_seconds(Duration d) { return static_cast<double>(d) / 1e6; }

// Identifies a process in the simulated cluster (storage partition,
// compute node, scheduler, client, ...).  Dense, assigned by the cluster
// builder.
using NodeId = uint32_t;

// Identifies a storage partition (shard) within the storage layer.
using PartitionId = uint32_t;

// Keys are dense integers; the workload generator draws them from a Zipf
// distribution over [0, num_keys).  A dense key space keeps serialized
// metadata sizes exact (8 bytes/key), mirroring the paper's accounting.
using Key = uint64_t;

// Values are opaque immutable byte strings (the paper uses 8-byte
// payloads), shared by reference count: one 8-byte handle to a block that
// holds the count, the length and the bytes inline (SharedArray).  The
// count is not atomic: a simulation runs on one thread and never hands a
// value to another.  Copying a Value bumps the count instead of
// deep-copying the bytes, so a payload travelling mv_store -> partition ->
// cache -> client is allocated once, and an 8-byte payload costs one
// 32-byte malloc chunk.  The string-like
// read surface (size/empty/view/iteration/comparison) is what the codec
// and the byte-accounting paths consume — `size()` is the payload length,
// so Fig. 5/7/8 wire and cache byte counts do not depend on the
// representation.  An empty value holds no allocation at all.
class Value {
 public:
  Value() = default;
  Value(std::string_view s)  // NOLINT(google-explicit-constructor)
      : bytes_(s.data(), s.size()) {}
  Value(const std::string& s)  // NOLINT(google-explicit-constructor)
      : Value(std::string_view(s)) {}
  Value(const char* s)  // NOLINT(google-explicit-constructor)
      : Value(std::string_view(s)) {}
  Value(size_t count, char fill)
      : bytes_(SharedArray<char>::build(
            count, [count, fill](char* p) { std::memset(p, fill, count); })) {}

  size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }

  std::string_view view() const {
    return std::string_view(bytes_.data(), bytes_.size());
  }
  operator std::string_view() const { return view(); }  // NOLINT
  const char* data() const { return bytes_.data(); }

  auto begin() const { return view().begin(); }
  auto end() const { return view().end(); }
  char operator[](size_t i) const { return bytes_[i]; }

  friend bool operator==(const Value& a, const Value& b) {
    return a.bytes_.shares_block_with(b.bytes_) || a.view() == b.view();
  }
  friend bool operator==(const Value& a, std::string_view b) {
    return a.view() == b;
  }
  // Exact-match overload so `v == "literal"` needs no user-defined
  // conversion on either side (which would be ambiguous with the implicit
  // string_view conversion above).
  friend bool operator==(const Value& a, const char* b) {
    return a.view() == std::string_view(b);
  }
  friend bool operator==(const Value& a, const std::string& b) {
    return a.view() == std::string_view(b);
  }
  friend std::ostream& operator<<(std::ostream& os, const Value& v) {
    return os << v.view();
  }

 private:
  SharedArray<char> bytes_;
};
static_assert(sizeof(Value) == 8);

// Unique id of one DAG execution (== one transaction attempt).
using TxnId = uint64_t;

constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

}  // namespace faastcc
