#include "common/zipf.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

namespace faastcc {

ZipfSampler::ZipfSampler(uint64_t num_keys, double theta)
    : num_keys_(num_keys), theta_(theta), table_(table_for(num_keys, theta)) {}

std::shared_ptr<const ZipfSampler::Table> ZipfSampler::table_for(
    uint64_t num_keys, double theta) {
  assert(num_keys > 0);
  static std::mutex mu;
  static std::map<std::pair<uint64_t, double>, std::weak_ptr<const Table>>
      built;
  std::lock_guard<std::mutex> lock(mu);
  std::weak_ptr<const Table>& cached = built[{num_keys, theta}];
  if (auto t = cached.lock()) return t;

  auto t = std::make_shared<Table>();
  std::vector<double>& cdf = t->cdf;
  cdf.resize(num_keys);
  double acc = 0.0;
  for (uint64_t i = 0; i < num_keys; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf[i] = acc;
  }
  const double total = acc;
  for (auto& c : cdf) c /= total;
  cdf.back() = 1.0;  // guard against floating-point shortfall

  // About one bucket per rank, so a search covers a handful of ranks even
  // in the flat tail.
  while ((uint64_t{1} << t->guide_bits) < num_keys) ++t->guide_bits;
  const size_t buckets = size_t{1} << t->guide_bits;
  t->scale = static_cast<double>(buckets);
  t->guide.resize(buckets + 1);
  size_t rank = 0;
  for (size_t b = 0; b <= buckets; ++b) {
    const double lower = std::ldexp(static_cast<double>(b), -t->guide_bits);
    while (rank < num_keys && cdf[rank] <= lower) ++rank;
    t->guide[b] = static_cast<uint32_t>(rank);
  }
  cached = t;
  return t;
}

Key ZipfSampler::rank_of(double u) const {
  // b / 2^bits <= u < (b + 1) / 2^bits exactly, and upper_bound is monotone
  // in u, so its answer lies in [guide[b], guide[b + 1]].
  assert(u >= 0.0 && u < 1.0);
  const auto b = static_cast<size_t>(u * table_->scale);
  const double* cdf = table_->cdf.data();
  const double* it = std::upper_bound(cdf + table_->guide[b],
                                      cdf + table_->guide[b + 1], u);
  const auto idx = static_cast<uint64_t>(it - cdf);
  return idx < num_keys_ ? idx : num_keys_ - 1;
}

double ZipfSampler::pmf(uint64_t r) const {
  assert(r < num_keys_);
  const std::vector<double>& cdf = table_->cdf;
  return r == 0 ? cdf[0] : cdf[r] - cdf[r - 1];
}

}  // namespace faastcc
