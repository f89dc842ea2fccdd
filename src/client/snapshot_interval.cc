#include "client/snapshot_interval.h"

#include <algorithm>

namespace faastcc::client {

SnapshotInterval SnapshotInterval::merge(
    std::span<const SnapshotInterval> parents) {
  SnapshotInterval out;
  if (parents.empty()) return out;
  out = parents[0];
  for (size_t i = 1; i < parents.size(); ++i) {
    out.low = std::max(out.low, parents[i].low);
    out.high = std::min(out.high, parents[i].high);
  }
  return out;
}

std::string SnapshotInterval::to_string() const {
  std::string out = "[";
  out += low.to_string();
  out += ", ";
  out += high.to_string();
  out += "]";
  return out;
}

}  // namespace faastcc::client
