#include "des/random.h"

#include <cmath>

namespace airindex {

std::uint64_t ReplicationSeed(std::uint64_t master_seed,
                              std::uint64_t replication_id) {
  return master_seed ^ Mix64(replication_id);
}

namespace {

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // splitmix64 expansion; guarantees a non-zero state.
  std::uint64_t z = seed;
  for (auto& s : s_) {
    z += 0x9e3779b97f4a7c15ULL;
    s = Mix64(z);
  }
}

std::uint64_t Rng::NextUint64() {
  const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  // Lemire's nearly-divisionless method with rejection for exactness.
  std::uint64_t x = NextUint64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = NextUint64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextDoubleOpen() {
  return (static_cast<double>(NextUint64() >> 11) + 1.0) * 0x1.0p-53;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextExponential(double mean) {
  return -mean * std::log(NextDoubleOpen());
}

Rng Rng::Split() { return Rng(NextUint64()); }

}  // namespace airindex
