#include "schemes/channel_view.h"

#include <string>

namespace airindex {

namespace {

// kInvalidPhase ("no pointer") or the first byte of a bucket of `owner`.
bool IsPointerPhase(const ArenaChannelView& owner, Bytes phase) {
  return phase == kInvalidPhase ||
         (phase >= 0 && phase < owner.cycle_bytes() &&
          owner.start_phase(owner.BucketAtPhase(phase)) == phase);
}

Status Violation(std::size_t channel, const char* what, std::size_t index,
                 const std::string& problem) {
  return Status::InvalidArgument("program structure: channel " +
                                 std::to_string(channel) + " " + what + " " +
                                 std::to_string(index) + ": " + problem);
}

}  // namespace

Status ValidateProgramStructure(std::span<const ArenaChannelView> channels) {
  for (std::size_t c = 0; c < channels.size(); ++c) {
    const ArenaChannelView& channel = channels[c];
    // A view binds a single-channel arena, so every entry in the pool
    // belongs to one of this channel's buckets: one linear pass checks
    // the local and control entries of all of them.
    const std::span<const ArenaPointerEntry> entries = channel.entry_pool();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const ArenaPointerEntry& entry = entries[i];
      const std::int64_t target = entry.target_channel == kSameChannel
                                      ? static_cast<std::int64_t>(c)
                                      : entry.target_channel;
      if (target < 0 || target >= static_cast<std::int64_t>(channels.size())) {
        return Violation(c, "entry", i,
                         "names channel " + std::to_string(target) +
                             " outside the program");
      }
      if (!IsPointerPhase(channels[static_cast<std::size_t>(target)],
                          entry.target_phase)) {
        return Violation(c, "entry", i,
                         "phase " + std::to_string(entry.target_phase) +
                             " is not a bucket start of channel " +
                             std::to_string(target));
      }
    }
    // Segment and shift pointers never leave their channel.
    for (std::size_t i = 0; i < channel.num_buckets(); ++i) {
      const ArenaChannelView::BucketRef bucket = channel.bucket(i);
      if (!IsPointerPhase(channel, bucket.next_index_segment_phase())) {
        return Violation(c, "bucket", i,
                         "next-index-segment phase is not a bucket start");
      }
      if (!IsPointerPhase(channel, bucket.shift_phase())) {
        return Violation(c, "bucket", i, "shift phase is not a bucket start");
      }
      if (bucket.kind() == BucketKind::kIndex &&
          bucket.range_lo() > bucket.range_hi()) {
        return Violation(c, "bucket", i, "inverted key range");
      }
    }
  }
  return Status::Ok();
}

}  // namespace airindex
