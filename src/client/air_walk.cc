#include "client/air_walk.h"

#include <algorithm>
#include <cmath>

namespace airindex {

AccessResult AccessWithErrors(const BroadcastScheme& scheme,
                              std::string_view key, Bytes tune_in,
                              const ErrorModel& model, Rng* rng,
                              int max_retries) {
  const double p = std::clamp(model.bucket_error_rate, 0.0, 1.0);
  AccessResult total;
  Bytes now = tune_in;
  for (int attempt = 0; attempt < max_retries; ++attempt) {
    const AccessResult walk = scheme.Access(key, now);
    total.false_drops += walk.false_drops;
    total.anomalies += walk.anomalies;

    // Did any of the walk's bucket reads corrupt? P = 1 - (1-p)^probes.
    bool corrupted = false;
    int corrupt_at = walk.probes;  // 1-based probe index of the failure
    if (p > 0.0) {
      for (int probe = 1; probe <= walk.probes; ++probe) {
        if (rng->NextBernoulli(p)) {
          corrupted = true;
          corrupt_at = probe;
          break;
        }
      }
    }
    if (!corrupted) {
      total.found = walk.found;
      total.probes += walk.probes;
      total.index_probes += walk.index_probes;
      total.overflow_hops += walk.overflow_hops;
      total.tuning_time += walk.tuning_time;
      total.access_time = now + walk.access_time - tune_in;
      // Channel accounting comes from the clean attempt alone: an aborted
      // walk's hop position relative to the corrupted probe is unknown,
      // so aborted attempts charge neither hops nor switch bytes.
      total.channel_hops = walk.channel_hops;
      total.switch_bytes = walk.switch_bytes;
      total.start_channel = walk.start_channel;
      total.final_channel = walk.final_channel;
      total.final_channel_tuning = walk.final_channel_tuning;
      return total;
    }
    // The aborted walk's bucket reads count as plain probes below; its
    // index/overflow split is unknown at the corruption point, so those
    // subsets only accumulate over the clean final attempt.
    ++total.retries;

    // Charge the aborted attempt a proportional share of its walk up to
    // the corrupted probe, then re-tune from that moment.
    const double fraction = static_cast<double>(corrupt_at) /
                            static_cast<double>(std::max(walk.probes, 1));
    const auto wasted_access = static_cast<Bytes>(
        std::llround(fraction * static_cast<double>(walk.access_time)));
    const auto wasted_tuning = static_cast<Bytes>(
        std::llround(fraction * static_cast<double>(walk.tuning_time)));
    total.probes += corrupt_at;
    total.tuning_time += std::min(wasted_tuning, walk.tuning_time);
    now += std::max<Bytes>(wasted_access, 1);
  }
  total.found = false;
  total.access_time = now - tune_in;
  ++total.anomalies;  // retry budget exhausted
  return total;
}

AccessResult ApplyDeadline(const AccessResult& walk,
                           const DeadlinePolicy& policy) {
  if (policy.access_deadline_bytes <= 0 ||
      walk.access_time <= policy.access_deadline_bytes) {
    return walk;
  }
  AccessResult truncated = walk;
  const double fraction =
      static_cast<double>(policy.access_deadline_bytes) /
      static_cast<double>(walk.access_time);
  truncated.found = false;
  truncated.abandoned = true;
  truncated.access_time = policy.access_deadline_bytes;
  truncated.probes = static_cast<int>(
      std::llround(fraction * static_cast<double>(walk.probes)));
  // Channel accounting stays self-consistent under truncation: hops are
  // prorated like probes, switch bytes keep the per-hop cost, and a walk
  // cut before its (only) hop ends where it started.
  truncated.channel_hops = static_cast<std::int16_t>(
      std::llround(fraction * static_cast<double>(walk.channel_hops)));
  if (truncated.channel_hops == 0) {
    truncated.switch_bytes = 0;
    truncated.final_channel = walk.start_channel;
    truncated.final_channel_tuning = 0;
  } else {
    truncated.switch_bytes =
        std::min(truncated.access_time, walk.switch_bytes /
                                            walk.channel_hops *
                                            truncated.channel_hops);
  }
  // Listening can never exceed the deadline minus the retune dead air.
  truncated.tuning_time = std::min(
      truncated.access_time - truncated.switch_bytes,
      static_cast<Bytes>(
          std::llround(fraction * static_cast<double>(walk.tuning_time))));
  if (truncated.channel_hops > 0) {
    truncated.final_channel_tuning = std::min(
        truncated.tuning_time,
        static_cast<Bytes>(std::llround(
            fraction * static_cast<double>(walk.final_channel_tuning))));
  }
  return truncated;
}

}  // namespace airindex
