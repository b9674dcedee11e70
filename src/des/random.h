#ifndef AIRINDEX_DES_RANDOM_H_
#define AIRINDEX_DES_RANDOM_H_

#include <cstdint>

namespace airindex {

/// Mixes a 64-bit value into a well-distributed 64-bit hash (splitmix64
/// finalizer). Used both for seeding and as the hash function of the
/// simple-hashing scheme. Inline: signature generation runs long chains
/// of it.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of replication `replication_id` under `master_seed`:
///
///   seed = master_seed ^ splitmix64(replication_id)
///
/// Every replication of an experiment gets its own xoshiro256++ stream
/// seeded this way, so the replication's request sequence depends only on
/// (master_seed, replication_id) — never on which worker thread runs it
/// or in what order. That is what lets the parallel replication engine
/// produce bit-identical statistics for any --jobs value. The splitmix64
/// mix keeps adjacent ids far apart in seed space; Rng then expands the
/// seed through four more splitmix64 steps, so streams of adjacent
/// replications start from unrelated internal states.
std::uint64_t ReplicationSeed(std::uint64_t master_seed,
                              std::uint64_t replication_id);

/// Deterministic pseudo-random generator (xoshiro256++).
///
/// The testbed requires reproducible runs: every experiment is seeded, and
/// two runs with the same seed produce identical request streams and thus
/// identical metrics. xoshiro256++ is small, fast, and passes BigCrush;
/// we implement it directly rather than relying on unspecified standard
/// library engines so results are stable across platforms.
class Rng {
 public:
  /// Creates a generator seeded from `seed` via splitmix64 expansion.
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit output.
  std::uint64_t NextUint64();

  /// Uniform integer in [0, bound), bias-free (Lemire rejection). `bound`
  /// must be positive.
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [0, 1] excluding exact 0 (safe for log()).
  double NextDoubleOpen();

  /// Bernoulli draw with success probability `p` (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Exponentially distributed draw with the given mean (> 0).
  ///
  /// The paper's RequestGenerator draws request inter-arrival times from
  /// an exponential distribution (Table 1).
  double NextExponential(double mean);

  /// Splits off an independent generator (seeded from this one's stream).
  /// Used to give each testbed component its own stream so adding draws in
  /// one component does not perturb another.
  Rng Split();

 private:
  std::uint64_t s_[4];
};

}  // namespace airindex

#endif  // AIRINDEX_DES_RANDOM_H_
