// Zipf-distributed key sampler.
//
// The paper's workloads draw keys from Zipf distributions with exponents
// 1.0, 1.25 and 1.5 over a 100 000-key dataset.  We precompute the CDF once
// per (n, theta) pair and sample by inverting it: the rank for a uniform
// draw u is the first CDF entry above u (std::upper_bound).  A guide table
// over u narrows that search to the few ranks whose CDF entries can lie in
// u's bucket, so the answer is the same index the full binary search gives.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace faastcc {

class ZipfSampler {
 public:
  // theta == 0 degenerates to the uniform distribution.
  ZipfSampler(uint64_t num_keys, double theta);

  Key sample(Rng& rng) const { return rank_of(rng.next_double()); }

  // The rank a uniform draw u in [0, 1) maps to.
  Key rank_of(double u) const;

  uint64_t num_keys() const { return num_keys_; }
  double theta() const { return theta_; }

  // Probability mass of rank `r` (0-based); exposed for tests.
  double pmf(uint64_t r) const;
  const std::vector<double>& cdf() const { return table_->cdf; }

 private:
  // Immutable, and shared by every sampler of one (num_keys, theta): a
  // run builds one workload generator per client.
  struct Table {
    std::vector<double> cdf;
    // guide[b] = first rank whose CDF entry exceeds b / 2^guide_bits, for
    // b in [0, 2^guide_bits]; a power-of-two bucket count keeps u's bucket
    // (u * scale) and the bucket bounds exact in floating point.
    std::vector<uint32_t> guide;
    int guide_bits = 0;
    double scale = 1.0;  // 2^guide_bits
  };
  static std::shared_ptr<const Table> table_for(uint64_t num_keys,
                                                double theta);

  uint64_t num_keys_;
  double theta_;
  std::shared_ptr<const Table> table_;
};

}  // namespace faastcc
