#include "broadcast/channel.h"

#include <algorithm>
#include <string>
#include <utility>

namespace airindex {

const char* BucketKindToString(BucketKind kind) {
  switch (kind) {
    case BucketKind::kData:
      return "data";
    case BucketKind::kIndex:
      return "index";
    case BucketKind::kSignature:
      return "signature";
  }
  return "unknown";
}

Result<Channel> Channel::Create(std::vector<Bucket> buckets) {
  if (buckets.empty()) {
    return Status::InvalidArgument("channel needs at least one bucket");
  }
  Channel channel;
  channel.buckets_ = std::move(buckets);
  channel.starts_.reserve(channel.buckets_.size());
  Bytes at = 0;
  bool uniform = true;
  const Bytes first_size = channel.buckets_.front().size;
  for (const Bucket& b : channel.buckets_) {
    if (b.size <= 0) {
      return Status::InvalidArgument("bucket with non-positive size");
    }
    channel.starts_.push_back(at);
    at += b.size;
    uniform = uniform && b.size == first_size;
  }
  channel.cycle_bytes_ = at;
  channel.uniform_ = uniform;
  channel.uniform_size_ = first_size;
  return channel;
}

std::size_t Channel::BucketAtPhase(Bytes phase) const {
  if (uniform_) {
    return static_cast<std::size_t>(phase / uniform_size_);
  }
  const auto it =
      std::upper_bound(starts_.begin(), starts_.end(), phase);
  return static_cast<std::size_t>(it - starts_.begin()) - 1;
}

std::size_t Channel::BucketStartingAtPhase(Bytes phase) const {
  const std::size_t i = BucketAtPhase(phase);
  return starts_[i] == phase ? i : buckets_.size();
}

Bytes Channel::NextBoundaryTime(Bytes now) const {
  const Bytes phase = now % cycle_bytes_;
  const std::size_t i = BucketAtPhase(phase);
  if (starts_[i] == phase) return now;
  return now + (end_phase(i) - phase);
}

Bytes Channel::NextArrivalOfPhase(Bytes phase, Bytes now) const {
  const Bytes current = now % cycle_bytes_;
  Bytes delta = phase - current;
  if (delta < 0) delta += cycle_bytes_;
  return now + delta;
}

namespace {

Status CheckPointerTargets(const Channel& channel, const Bucket& bucket,
                           std::size_t index) {
  const auto check_entry = [&](const PointerEntry& entry,
                               const char* what) -> Status {
    if (entry.target_phase == kInvalidPhase) return Status::Ok();
    if (entry.target_phase < 0 || entry.target_phase >= channel.cycle_bytes()) {
      return Status::Internal("bucket " + std::to_string(index) + ": " + what +
                              " phase out of range");
    }
    if (channel.BucketStartingAtPhase(entry.target_phase) ==
        channel.num_buckets()) {
      return Status::Internal("bucket " + std::to_string(index) + ": " + what +
                              " phase not on a bucket boundary");
    }
    return Status::Ok();
  };
  for (const PointerEntry& e : bucket.local) {
    if (Status s = check_entry(e, "local entry"); !s.ok()) return s;
  }
  for (const PointerEntry& e : bucket.control) {
    if (Status s = check_entry(e, "control entry"); !s.ok()) return s;
  }
  PointerEntry synthetic;
  synthetic.target_phase = bucket.next_index_segment_phase;
  if (Status s = check_entry(synthetic, "next-index-segment"); !s.ok()) {
    return s;
  }
  synthetic.target_phase = bucket.shift_phase;
  if (Status s = check_entry(synthetic, "shift"); !s.ok()) return s;
  return Status::Ok();
}

}  // namespace

Status ValidateChannelStructure(const Channel& channel) {
  for (std::size_t i = 0; i < channel.num_buckets(); ++i) {
    const Bucket& bucket = channel.bucket(i);
    if (bucket.size <= 0) {
      return Status::Internal("bucket " + std::to_string(i) +
                              " has non-positive size");
    }
    if (Status s = CheckPointerTargets(channel, bucket, i); !s.ok()) return s;
    if (bucket.kind == BucketKind::kIndex && bucket.range_lo > bucket.range_hi) {
      return Status::Internal("bucket " + std::to_string(i) +
                              " has inverted key range");
    }
  }
  return Status::Ok();
}

}  // namespace airindex
