// Layer: 1 (des) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_DES_ZIPF_H_
#define AIRINDEX_DES_ZIPF_H_

#include <vector>

#include "des/random.h"

namespace airindex {

/// Zipf(theta) sampler over ranks 0..n-1 (rank 0 hottest):
/// P(rank k) proportional to 1 / (k+1)^theta. theta = 0 degenerates to
/// the uniform distribution; theta around 0.8–1.0 models the skewed
/// request popularity used throughout the broadcast-scheduling
/// literature (Acharya et al.'s broadcast disks).
///
/// Sampling is inverse-CDF over a precomputed cumulative table, indexed
/// by a Chen–Asau guide table: guide[k] is the rank of k/n, so a draw u
/// starts at guide[floor(u·n)] and steps to its rank — O(1) expected
/// per draw, since the n cumulative entries spread over n guide cells.
/// The rank returned is exactly std::lower_bound's over the cumulative
/// table for every u, so streams do not depend on the lookup method.
/// O(n) construction. Immutable after construction, so one table may be
/// shared by concurrent samplers.
class ZipfDistribution {
 public:
  /// `n` >= 1 ranks, `theta` >= 0.
  ZipfDistribution(int n, double theta);

  /// Draws a rank in [0, n): RankOf(rng->NextDouble()).
  int Sample(Rng* rng) const { return RankOf(rng->NextDouble()); }

  /// The rank of a uniform draw `u` in [0, 1]: the first k with
  /// cumulative()[k] >= u.
  int RankOf(double u) const;

  /// Probability of rank k.
  double Probability(int k) const;

  int n() const { return n_; }
  double theta() const { return theta_; }
  /// cumulative()[k] = P(rank <= k); the last entry is exactly 1.
  const std::vector<double>& cumulative() const { return cumulative_; }

 private:
  int n_;
  double theta_;
  std::vector<double> cumulative_;
  /// n + 1 start ranks: guide_[k] is the first rank whose cumulative
  /// probability reaches k/n.
  std::vector<int> guide_;
};

}  // namespace airindex

#endif  // AIRINDEX_DES_ZIPF_H_
