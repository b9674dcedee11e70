// Layer: 4 (client) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_CLIENT_AIR_WALK_H_
#define AIRINDEX_CLIENT_AIR_WALK_H_

#include <string_view>

#include "common/types.h"
#include "des/random.h"
#include "schemes/access.h"

namespace airindex {

/// Unreliable-channel model, after the error-prone mobile environments
/// of Lo & Chen (the paper's reference [9]). Each bucket read is
/// independently corrupted with probability `bucket_error_rate`
/// (checksum failure); a client that reads a corrupted bucket cannot
/// trust its pointers or payload.
struct ErrorModel {
  double bucket_error_rate = 0.0;
};

/// Client-impatience model: a mobile user abandons a request once
/// `access_deadline_bytes` of broadcast have elapsed without the record
/// arriving (e.g., a navigation query that is useless after the exit has
/// been passed). Deadline 0 disables the model.
struct DeadlinePolicy {
  Bytes access_deadline_bytes = 0;
};

/// Runs `scheme`'s access protocol over the unreliable channel.
///
/// Retry semantics: the walk proceeds until its first corrupted read;
/// the client then abandons the attempt and re-tunes from that moment,
/// repeating until the protocol completes cleanly or `max_retries`
/// attempts are exhausted (then found=false and one anomaly is
/// recorded). Because protocols are simulated as whole walks, the
/// corruption point within an attempt is approximated as a uniformly
/// chosen probe, charging the attempt a proportional share of its
/// access/tuning bytes — an approximation documented in DESIGN.md that
/// preserves the expected retry count and the relative per-scheme
/// vulnerability (long walks fail more).
AccessResult AccessWithErrors(const BroadcastScheme& scheme,
                              std::string_view key, Bytes tune_in,
                              const ErrorModel& model, Rng* rng,
                              int max_retries = 64);

/// Applies the policy to a completed protocol walk: a walk that would
/// finish after the deadline is truncated at the deadline — the client
/// powers down, the record is not obtained (found = false), and the
/// listening charge is prorated to the listening the client did before
/// giving up (protocol walks interleave listening uniformly enough that
/// proration is exact for scan schemes and a close bound for
/// probe schemes).
AccessResult ApplyDeadline(const AccessResult& walk,
                           const DeadlinePolicy& policy);

/// The client's over-the-air walk for `key` at `tune_in`: the lossy walk
/// (drawing corruptions from `error_rng`) when the channel has a bucket
/// error rate, else the plain walk, then the deadline. `error_rng` is
/// read only on a lossy channel. Both engines fetch through here: the
/// replication's ServerFetcher and the fleet's miss path.
inline AccessResult AirWalk(const BroadcastScheme& scheme,
                            std::string_view key, Bytes tune_in,
                            const ErrorModel& errors,
                            const DeadlinePolicy& deadline, Rng* error_rng) {
  AccessResult walk =
      errors.bucket_error_rate > 0.0
          ? AccessWithErrors(scheme, key, tune_in, errors, error_rng)
          : scheme.Access(key, tune_in);
  if (deadline.access_deadline_bytes > 0) walk = ApplyDeadline(walk, deadline);
  return walk;
}

}  // namespace airindex

#endif  // AIRINDEX_CLIENT_AIR_WALK_H_
