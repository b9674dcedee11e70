// Layer: 3 (broadcast) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_BROADCAST_CHANNEL_H_
#define AIRINDEX_BROADCAST_CHANNEL_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "broadcast/bucket.h"

namespace airindex {

/// One broadcast cycle, repeated forever.
///
/// The channel stores the bucket sequence of a single cycle together with
/// prefix-sum byte offsets. Simulated time is an absolute byte count; the
/// position within the cycle is the *phase* `time % cycle_bytes()`. All
/// pointer fields in buckets are phases, and clients use
/// NextArrivalOfPhase to convert them to absolute wake-up times — this is
/// the paper's "offset value is the arrival time of the bucket".
///
/// A builder lays its cycle out as a Channel and flattens it into a
/// program arena (broadcast/arena.h); the scheme keeps only the arena's
/// view. The multichannel group and tests inflate Channels back.
class Channel {
 public:
  /// Wraps a bucket sequence. Fails if the sequence is empty or any
  /// bucket has a non-positive size.
  static Result<Channel> Create(std::vector<Bucket> buckets);

  Channel(const Channel&) = default;
  Channel& operator=(const Channel&) = default;
  Channel(Channel&&) = default;
  Channel& operator=(Channel&&) = default;

  /// Total bytes of one broadcast cycle (the paper's Bt, in bytes).
  Bytes cycle_bytes() const { return cycle_bytes_; }

  /// Number of buckets in one cycle (the paper's N when all buckets are
  /// uniform).
  std::size_t num_buckets() const { return buckets_.size(); }

  /// The i-th bucket of the cycle.
  const Bucket& bucket(std::size_t i) const { return buckets_[i]; }

  /// All buckets.
  const std::vector<Bucket>& buckets() const { return buckets_; }

  /// Phase (byte position within the cycle) at which bucket i starts.
  Bytes start_phase(std::size_t i) const { return starts_[i]; }

  /// Phase one past the last byte of bucket i.
  Bytes end_phase(std::size_t i) const { return starts_[i] + buckets_[i].size; }

  /// Index of the bucket whose byte span contains `phase`
  /// (0 <= phase < cycle_bytes()).
  std::size_t BucketAtPhase(Bytes phase) const;

  /// Index of the bucket starting exactly at `phase`; num_buckets() if no
  /// bucket starts there.
  std::size_t BucketStartingAtPhase(Bytes phase) const;

  /// Absolute time (>= now) at which the next bucket boundary occurs.
  /// If `now` is already on a boundary, returns `now`.
  Bytes NextBoundaryTime(Bytes now) const;

  /// Absolute time (>= now) at which the cycle phase equals `phase`.
  /// If `now` is already at that phase, returns `now`.
  Bytes NextArrivalOfPhase(Bytes phase, Bytes now) const;

 private:
  Channel() = default;

  std::vector<Bucket> buckets_;
  std::vector<Bytes> starts_;  // starts_[i] = phase of bucket i
  Bytes cycle_bytes_ = 0;
  bool uniform_ = false;   // all buckets the same size (fast phase math)
  Bytes uniform_size_ = 0;
};

/// Structural validation shared by all schemes: positive sizes, in-range
/// pointer phases that land exactly on bucket starts, next-index-segment
/// pointers that reach index buckets, and monotone non-decreasing record
/// keys within data buckets are checked by scheme-specific tests.
Status ValidateChannelStructure(const Channel& channel);

}  // namespace airindex

#endif  // AIRINDEX_BROADCAST_CHANNEL_H_
