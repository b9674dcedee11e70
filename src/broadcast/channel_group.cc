#include "broadcast/channel_group.h"

#include <string>
#include <utility>

namespace airindex {

Result<ChannelGroup> ChannelGroup::Create(std::vector<Channel> channels,
                                          Bytes switch_cost_bytes) {
  if (channels.empty()) {
    return Status::InvalidArgument("channel group needs at least one channel");
  }
  if (switch_cost_bytes < 0) {
    return Status::InvalidArgument("channel switch cost must be >= 0");
  }
  ChannelGroup group;
  group.channels_ = std::move(channels);
  group.switch_cost_ = switch_cost_bytes;
  for (const Channel& ch : group.channels_) {
    group.max_cycle_bytes_ = std::max(group.max_cycle_bytes_, ch.cycle_bytes());
    group.num_buckets_ += ch.num_buckets();
  }
  return group;
}

namespace {

Status CheckGroupPointerTargets(const ChannelGroup& group, int channel_id,
                                const Bucket& bucket, std::size_t index) {
  const auto check_entry = [&](const PointerEntry& entry,
                               const char* what) -> Status {
    if (entry.target_phase == kInvalidPhase) return Status::Ok();
    const int target = entry.target_channel == kSameChannel
                           ? channel_id
                           : entry.target_channel;
    if (target < 0 || target >= group.num_channels()) {
      return Status::Internal("channel " + std::to_string(channel_id) +
                              " bucket " + std::to_string(index) + ": " + what +
                              " names channel " + std::to_string(target) +
                              " outside the group");
    }
    const Channel& owner = group.channel(target);
    if (entry.target_phase < 0 || entry.target_phase >= owner.cycle_bytes()) {
      return Status::Internal("channel " + std::to_string(channel_id) +
                              " bucket " + std::to_string(index) + ": " + what +
                              " phase out of range on channel " +
                              std::to_string(target));
    }
    if (owner.BucketStartingAtPhase(entry.target_phase) ==
        owner.num_buckets()) {
      return Status::Internal("channel " + std::to_string(channel_id) +
                              " bucket " + std::to_string(index) + ": " + what +
                              " phase not on a bucket boundary of channel " +
                              std::to_string(target));
    }
    return Status::Ok();
  };
  for (const PointerEntry& e : bucket.local) {
    if (Status s = check_entry(e, "local entry"); !s.ok()) return s;
  }
  for (const PointerEntry& e : bucket.control) {
    if (Status s = check_entry(e, "control entry"); !s.ok()) return s;
  }
  // Segment and shift pointers never cross channels.
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

Status ValidateChannelGroupStructure(const ChannelGroup& group) {
  for (int c = 0; c < group.num_channels(); ++c) {
    const Channel& channel = group.channel(c);
    for (std::size_t i = 0; i < channel.num_buckets(); ++i) {
      const Bucket& bucket = channel.bucket(i);
      if (bucket.size <= 0) {
        return Status::Internal("channel " + std::to_string(c) + " bucket " +
                                std::to_string(i) + " has non-positive size");
      }
      if (Status s = CheckGroupPointerTargets(group, c, bucket, i); !s.ok()) {
        return s;
      }
      if (bucket.kind == BucketKind::kIndex &&
          bucket.range_lo > bucket.range_hi) {
        return Status::Internal("channel " + std::to_string(c) + " bucket " +
                                std::to_string(i) + " has inverted key range");
      }
    }
  }
  return Status::Ok();
}

}  // namespace airindex
