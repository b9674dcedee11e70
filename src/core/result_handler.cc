#include "core/result_handler.h"

#include <algorithm>

namespace airindex {

void ResultHandler::Add(const AccessResult& result, bool expected_on_air) {
  const auto access = static_cast<double>(result.access_time);
  const auto tuning = static_cast<double>(result.tuning_time);
  access_.Add(access);
  tuning_.Add(tuning);
  probes_.Add(static_cast<double>(result.probes));
  access_histogram_.Add(result.access_time);
  tuning_histogram_.Add(result.tuning_time);
  round_access_.Add(access);
  round_tuning_.Add(tuning);
  if (result.found) ++found_;
  if (result.abandoned) ++abandoned_;
  false_drops_ += result.false_drops;
  anomalies_ += result.anomalies;
  buckets_listened_ += result.probes;
  bytes_listened_ += result.tuning_time;
  // Switch overhead is neither listened nor dozed: the tuner is retuning.
  // Clamped at zero per request: a validated cache hit charges tuning
  // (the validity-filter read) while zero broadcast bytes elapse, so its
  // doze contribution is nothing, not a negative residue. Every
  // over-the-air walk has tuning <= access and is unaffected.
  bytes_dozed_ += std::max<std::int64_t>(
      0, result.access_time - result.tuning_time - result.switch_bytes);
  index_probes_ += result.index_probes;
  overflow_hops_ += result.overflow_hops;
  error_retries_ += result.retries;
  channel_hops_ += result.channel_hops;
  switch_bytes_ += result.switch_bytes;
  AddTuningByChannel(result, &tuning_by_channel_);
  // An abandoned request legitimately misses an on-air record.
  if (!result.abandoned && result.found != expected_on_air) {
    ++outcome_mismatches_;
  }
}

ResultHandler::RoundStats ResultHandler::CloseRound() {
  RoundStats stats;
  stats.access_mean = round_access_.mean();
  stats.tuning_mean = round_tuning_.mean();
  stats.requests = round_access_.count();
  round_access_ = RunningStats();
  round_tuning_ = RunningStats();
  return stats;
}

}  // namespace airindex
