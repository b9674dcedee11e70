#ifndef AIRINDEX_CORE_ACCURACY_CONTROLLER_H_
#define AIRINDEX_CORE_ACCURACY_CONTROLLER_H_

#include "stats/confidence.h"

namespace airindex {

/// The testbed's AccuracyController (paper Section 3): "the simulation
/// process will not terminate unless the expected accuracy is achieved".
///
/// One observation per round (the round's mean) for each metric; the run
/// may stop once BOTH metrics satisfy the Student-t relative-half-width
/// rule at the configured level and accuracy, subject to the config's
/// min/max round bounds (ShouldStop).
class AccuracyController {
 public:
  AccuracyController(double confidence_level, double target_accuracy)
      : access_(confidence_level, target_accuracy),
        tuning_(confidence_level, target_accuracy) {}

  /// Feeds one completed round's means.
  void AddRound(double access_mean, double tuning_mean) {
    access_.AddObservation(access_mean);
    tuning_.AddObservation(tuning_mean);
  }

  /// Number of rounds observed.
  int rounds() const { return access_.count(); }

  /// True when both metrics meet the accuracy target.
  bool Satisfied() const {
    return access_.Check().satisfied && tuning_.Check().satisfied;
  }

  /// The testbed's stopping rule, checked after every round: stop when
  /// at least `min_rounds` rounds have run and both metrics meet the
  /// accuracy target, or at the `max_rounds` cap. The replication engine
  /// and bench_merge's shard replay both stop here, so they stop at the
  /// same round.
  bool ShouldStop(int min_rounds, int max_rounds) const {
    return (rounds() >= min_rounds && Satisfied()) || rounds() >= max_rounds;
  }

  /// Current checks, for reporting.
  ConfidenceCheck access_check() const { return access_.Check(); }
  ConfidenceCheck tuning_check() const { return tuning_.Check(); }

 private:
  ConfidenceEstimator access_;
  ConfidenceEstimator tuning_;
};

}  // namespace airindex

#endif  // AIRINDEX_CORE_ACCURACY_CONTROLLER_H_
