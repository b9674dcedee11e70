// Layer: 4 (dynamic) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_DYNAMIC_MUTATION_LOG_H_
#define AIRINDEX_DYNAMIC_MUTATION_LOG_H_

#include <cstdint>
#include <vector>

#include "des/random.h"
#include "des/zipf.h"

namespace airindex {

/// Fraction of draws on a live record that delete it instead of
/// updating it. The analytical staleness model (analytical/
/// dynamic_model.h) duplicates this constant — analytical must not link
/// the dynamic layer — and a test pins the two values equal. The
/// steady-state live fraction it induces is 1 / (1 + delta).
inline constexpr double kDynamicDeleteFraction = 0.1;

/// One resolved server-side mutation.
struct MutationOp {
  enum class Kind { kInsert, kDelete, kUpdate };
  Kind kind = Kind::kUpdate;
  /// Index of the mutated record in the *universe* dataset (the full
  /// synthetic dataset; liveness decides what is actually on air).
  int record_index = 0;
  /// Record version after this op (versions start at 0 and every
  /// applied op bumps the target's version by one).
  std::int64_t version = 0;
};

/// Deterministic server-side mutation stream over a fixed record
/// universe.
///
/// Time is sliced into epochs (one initial broadcast cycle each; see
/// DynamicRuntime). Every epoch draws `rate * universe_size` target
/// records — uniformly, or Zipf(zipf_theta) by record rank — and
/// resolves each draw against current liveness: a dead record is
/// re-inserted, a live one is deleted with probability
/// kDynamicDeleteFraction (never below 3 live records) and updated
/// otherwise. Fractional per-epoch draw budgets accumulate exactly, so
/// the long-run rate is honoured for any `rate`.
///
/// The whole stream is a pure function of the constructor arguments.
/// The replication engine gives each replication its own log seeded
/// from the replication seed, which is what keeps --jobs bit-identity:
/// a replication's mutation history never depends on which worker runs
/// it or what ran before it.
class MutationLog {
 public:
  MutationLog(int universe_size, double rate, double zipf_theta,
              std::uint64_t seed);

  /// Generates and applies the next epoch's mutations, handing each op
  /// to `visit` as soon as it is drawn and applied. The draw and the
  /// visitor share one inlined loop, so no op is buffered.
  template <typename Visitor>
  void NextEpoch(Visitor&& visit);

  /// Liveness / version of a universe record under everything emitted
  /// so far.
  bool live(int record_index) const {
    return live_[static_cast<std::size_t>(record_index)] != 0;
  }
  std::int64_t version(int record_index) const {
    return versions_[static_cast<std::size_t>(record_index)];
  }

  int universe_size() const { return static_cast<int>(live_.size()); }
  int live_count() const { return live_count_; }
  std::int64_t epochs() const { return epochs_; }

 private:
  double rate_;
  Rng rng_;
  std::vector<ZipfDistribution> zipf_;  // empty = uniform targeting
  std::vector<std::uint8_t> live_;
  std::vector<std::int64_t> versions_;
  int live_count_ = 0;
  /// Fractional draw budget carried between epochs.
  double credit_ = 0.0;
  std::int64_t epochs_ = 0;

  /// Adds one epoch's draw budget to the carried credit and takes out
  /// its whole part: the number of draws this epoch makes.
  std::int64_t TakeEpochDraws();
};

template <typename Visitor>
void MutationLog::NextEpoch(Visitor&& visit) {
  const auto n = static_cast<std::uint64_t>(live_.size());
  const std::int64_t draws = TakeEpochDraws();
  for (std::int64_t d = 0; d < draws && n > 0; ++d) {
    const int r = zipf_.empty()
                      ? static_cast<int>(rng_.NextBounded(n))
                      : zipf_.front().Sample(&rng_);
    MutationOp op;
    op.record_index = r;
    const auto index = static_cast<std::size_t>(r);
    if (live_[index] == 0) {
      op.kind = MutationOp::Kind::kInsert;
      live_[index] = 1;
      ++live_count_;
    } else if (live_count_ > 2 &&
               rng_.NextDouble() < kDynamicDeleteFraction) {
      op.kind = MutationOp::Kind::kDelete;
      live_[index] = 0;
      --live_count_;
    } else {
      op.kind = MutationOp::Kind::kUpdate;
    }
    op.version = ++versions_[index];
    visit(op);
  }
  ++epochs_;
}

}  // namespace airindex

#endif  // AIRINDEX_DYNAMIC_MUTATION_LOG_H_
