// Layer: 3 (broadcast) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_BROADCAST_CHANNEL_GROUP_H_
#define AIRINDEX_BROADCAST_CHANNEL_GROUP_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "broadcast/channel.h"

namespace airindex {

/// N synchronized periodic broadcast channels plus the client-side cost of
/// hopping between them.
///
/// All channels share the single absolute byte clock: one simulated time
/// unit puts one byte on *each* channel (the multichannel broadcast model
/// of Khatibi & Khatibi and of Lai, Lin & Liu). A client listens to exactly
/// one channel at a time; retuning to another channel loses
/// `switch_cost_bytes` bytes of broadcast — dead air charged to access
/// time but not to tuning time, since the receiver is neither listening
/// nor dozing usefully while its tuner settles.
///
/// Channels may have different cycle lengths (a partitioned data channel
/// is shorter than an index channel replicated elsewhere); phases are
/// always relative to the cycle of the channel that owns the pointer's
/// target (PointerEntry::target_channel).
class ChannelGroup {
 public:
  /// Wraps the channels. Fails when the vector is empty or the switch
  /// cost is negative.
  static Result<ChannelGroup> Create(std::vector<Channel> channels,
                                     Bytes switch_cost_bytes);

  ChannelGroup(const ChannelGroup&) = default;
  ChannelGroup& operator=(const ChannelGroup&) = default;
  ChannelGroup(ChannelGroup&&) = default;
  ChannelGroup& operator=(ChannelGroup&&) = default;

  /// Number of physical channels.
  int num_channels() const { return static_cast<int>(channels_.size()); }

  /// The i-th channel (0 <= i < num_channels()).
  const Channel& channel(int i) const {
    return channels_[static_cast<std::size_t>(i)];
  }

  /// Bytes of broadcast a client loses on every hop between two distinct
  /// channels.
  Bytes switch_cost_bytes() const { return switch_cost_; }

  /// Absolute time at which a client that decides at `now` to retune from
  /// channel `from` to channel `to` can listen again. Staying on the same
  /// channel is free.
  Bytes SwitchCompleteTime(int from, int to, Bytes now) const {
    return from == to ? now : now + switch_cost_;
  }

  /// Longest cycle across the group — the period that bounds any
  /// phase-wait on any channel.
  Bytes max_cycle_bytes() const { return max_cycle_bytes_; }

  /// Buckets summed across all channels.
  std::size_t num_buckets() const { return num_buckets_; }

 private:
  ChannelGroup() = default;

  std::vector<Channel> channels_;
  Bytes switch_cost_ = 0;
  Bytes max_cycle_bytes_ = 0;
  std::size_t num_buckets_ = 0;
};

/// Group-aware structural validation: per-channel bucket checks plus
/// cross-channel pointer targets — an entry with an explicit
/// target_channel must name a channel of the group and land exactly on a
/// bucket start of *that* channel; an entry with kSameChannel is checked
/// against its own channel, as ValidateChannelStructure does.
Status ValidateChannelGroupStructure(const ChannelGroup& group);

}  // namespace airindex

#endif  // AIRINDEX_BROADCAST_CHANNEL_GROUP_H_
