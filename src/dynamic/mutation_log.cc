// Layer: 4 (dynamic) — see docs/ARCHITECTURE.md for the layer map.
#include "dynamic/mutation_log.h"

#include <cmath>

namespace airindex {

MutationLog::MutationLog(int universe_size, double rate, double zipf_theta,
                         std::uint64_t seed)
    : rate_(rate),
      rng_(seed),
      live_(static_cast<std::size_t>(universe_size), 1),
      versions_(static_cast<std::size_t>(universe_size), 0),
      live_count_(universe_size) {
  if (zipf_theta > 0.0 && universe_size > 0) {
    zipf_.emplace_back(universe_size, zipf_theta);
  }
}

std::int64_t MutationLog::TakeEpochDraws() {
  credit_ += rate_ * static_cast<double>(live_.size());
  const auto draws = static_cast<std::int64_t>(std::floor(credit_));
  credit_ -= static_cast<double>(draws);
  return draws;
}

}  // namespace airindex
