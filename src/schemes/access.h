#ifndef AIRINDEX_SCHEMES_ACCESS_H_
#define AIRINDEX_SCHEMES_ACCESS_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "schemes/channel_view.h"

namespace airindex {

/// Outcome of one client access-protocol run.
///
/// Both times are in bytes (== simulated time units). Following the
/// paper's formulas, the initial wait — the partial bucket between tune-in
/// and the first complete bucket — is charged to BOTH access time and
/// tuning time (the client is listening while it waits for a boundary).
struct AccessResult {
  /// True when the requested record was downloaded.
  bool found = false;
  /// At: elapsed bytes from tune-in to download completion (or to the
  /// point where the protocol concluded the record is not on air).
  Bytes access_time = 0;
  /// Tt: bytes actually listened to.
  Bytes tuning_time = 0;
  /// Number of buckets fully read.
  int probes = 0;
  /// Signature schemes: data buckets downloaded due to signature
  /// collisions ("false drops").
  int false_drops = 0;
  /// Non-data buckets fully read while *locating* the record: index
  /// buckets on tree walks, hash/control buckets, signature buckets
  /// sifted. Subset of `probes`.
  int index_probes = 0;
  /// Hashing: extra buckets walked along a collision (overflow) chain
  /// past its first bucket. Subset of `probes`.
  int overflow_hops = 0;
  /// Unreliable channel: attempts abandoned after a corrupted bucket
  /// read (client/air_walk.h). 0 on a lossless channel.
  int retries = 0;
  /// Protocol anomalies (stale pointer dereferences, loop-guard trips).
  /// Always 0 for a well-formed channel; tests assert this.
  int anomalies = 0;
  /// True when a deadline policy truncated the request (the client gave
  /// up; found is false regardless of whether the record was on air).
  bool abandoned = false;

  // --- multichannel fields (all stay 0 on a single channel) -----------
  // Narrow types on purpose: a replication keeps one AccessResult per
  // request until it folds the completions (core/simulator.cc), so the
  // struct stays small.
  /// Channel hops: times the client retuned to a different channel.
  std::int16_t channel_hops = 0;
  /// Channel the client first listened on / ended the walk on. Both 0 on
  /// a single channel.
  std::int16_t start_channel = 0;
  std::int16_t final_channel = 0;
  /// Broadcast bytes lost to channel switches (hops * switch cost).
  /// Charged to access_time but never to tuning_time.
  Bytes switch_bytes = 0;
  /// Portion of tuning_time spent listening on final_channel; the rest
  /// was spent on start_channel. Meaningful only when they differ.
  Bytes final_channel_tuning = 0;
};

/// Adds `result`'s tuning bytes to `by_channel`, indexed by channel id:
/// the final channel gets final_channel_tuning and the start channel the
/// rest (all of it on a walk without a hop). Grows `by_channel` to the
/// highest channel the walk touched.
inline void AddTuningByChannel(const AccessResult& result,
                               std::vector<std::int64_t>* by_channel) {
  const auto from = static_cast<std::size_t>(result.start_channel);
  const auto to = static_cast<std::size_t>(result.final_channel);
  if (std::max(from, to) >= by_channel->size()) {
    by_channel->resize(std::max(from, to) + 1, 0);
  }
  if (from == to) {
    (*by_channel)[to] += result.tuning_time;
  } else {
    (*by_channel)[to] += result.final_channel_tuning;
    (*by_channel)[from] += result.tuning_time - result.final_channel_tuning;
  }
}

/// A fully built broadcast program: one cycle's bucket sequence, held as
/// the bound arena view, plus the scheme's client access protocol.
///
/// Access() is a pure function of (key, tune-in time): it performs the
/// paper's access protocol for the scheme against the periodic channel
/// and reports the two metrics. Purity keeps protocols unit-testable and
/// lets the discrete-event testbed treat a request as two events
/// (arrival, completion) instead of thousands of per-bucket events.
class BroadcastScheme {
 public:
  virtual ~BroadcastScheme() = default;

  /// The broadcast cycle: the program arena the scheme is bound to, its
  /// one representation of the program.
  virtual const ArenaChannelView& view() const = 0;

  /// Runs the access protocol for `key`, tuning in at absolute time
  /// `tune_in`.
  virtual AccessResult Access(std::string_view key, Bytes tune_in) const = 0;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_ACCESS_H_
