#include "des/zipf.h"

#include <algorithm>
#include <cmath>

namespace airindex {

ZipfDistribution::ZipfDistribution(int n, double theta)
    : n_(std::max(n, 1)), theta_(std::max(theta, 0.0)) {
  cumulative_.resize(static_cast<std::size_t>(n_));
  double total = 0.0;
  for (int k = 0; k < n_; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), theta_);
    cumulative_[static_cast<std::size_t>(k)] = total;
  }
  for (double& c : cumulative_) c /= total;
  cumulative_.back() = 1.0;  // guard against rounding
  // One merged pass over (k/n, cumulative): both are non-decreasing, and
  // cumulative_.back() == 1.0 >= k/n stops the walk at rank n-1.
  guide_.resize(static_cast<std::size_t>(n_) + 1);
  int rank = 0;
  for (int k = 0; k <= n_; ++k) {
    const double u = static_cast<double>(k) / n_;
    while (cumulative_[static_cast<std::size_t>(rank)] < u) ++rank;
    guide_[static_cast<std::size_t>(k)] = rank;
  }
}

int ZipfDistribution::RankOf(double u) const {
  // floor(u·n) can round up across a cell boundary, so the start may lie
  // past u's rank: step down first, then up to the first entry >= u.
  const int cell = std::min(static_cast<int>(u * n_), n_);
  int rank = guide_[static_cast<std::size_t>(cell)];
  while (rank > 0 && cumulative_[static_cast<std::size_t>(rank - 1)] >= u) {
    --rank;
  }
  while (cumulative_[static_cast<std::size_t>(rank)] < u) ++rank;
  return rank;
}

double ZipfDistribution::Probability(int k) const {
  if (k < 0 || k >= n_) return 0.0;
  const double lo =
      k == 0 ? 0.0 : cumulative_[static_cast<std::size_t>(k - 1)];
  return cumulative_[static_cast<std::size_t>(k)] - lo;
}

}  // namespace airindex
