// Layer: 4 (schemes) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_SCHEMES_MULTICHANNEL_H_
#define AIRINDEX_SCHEMES_MULTICHANNEL_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "broadcast/geometry.h"
#include "data/dataset.h"
#include "schemes/access.h"
#include "schemes/scheme.h"

namespace airindex {

/// How index and data are spread over the channels of a multichannel
/// program (the allocation axis of the multichannel broadcast papers).
enum class ChannelAllocation {
  /// Channel 0 carries only the global B+-tree index; channels 1..N-1
  /// carry flat, key-partitioned data. Every leaf pointer crosses to a
  /// data channel, so every hit pays exactly one switch.
  kIndexOnOne,
  /// Each channel carries an independent single-channel broadcast of the
  /// base scheme over one key partition. Any registered scheme plugs in
  /// unchanged; a request pays at most one switch to reach the key's
  /// home channel.
  kDataPartitioned,
  /// Every channel carries a full copy of the global B+-tree index
  /// followed by its own key partition of the data. Index descent is
  /// switch-free; only the final data jump may hop.
  kReplicatedIndex,
};

/// Short display name ("index-on-one", ...).
const char* ChannelAllocationToString(ChannelAllocation allocation);

/// Parses a display name back to the enum; false if unknown.
bool ParseChannelAllocation(std::string_view text, ChannelAllocation* out);

/// Multichannel knobs. The defaults describe the classic single-channel
/// testbed; BroadcastServer only engages the multichannel engine when
/// num_channels > 1, so a default-constructed value is always safe.
struct MultiChannelParams {
  int num_channels = 1;
  /// Broadcast bytes a client loses per channel hop.
  Bytes switch_cost_bytes = 0;
  ChannelAllocation allocation = ChannelAllocation::kDataPartitioned;
};

/// Outcome of the conflict-aware placer (kDataPartitioned with an active
/// scheduler): how many cross-channel hot-occurrence pairs were checked
/// and how many shared a slot-time before and after the per-channel
/// rotations. Co-requested hot records never collide when collisions is
/// 0 — the common case for balanced partitions.
struct ConflictPlacement {
  std::int64_t hot_pairs = 0;
  std::int64_t baseline_collisions = 0;
  std::int64_t collisions = 0;
  /// Chosen rotation (ScheduleParams::rotation_slots) per partition.
  std::vector<int> rotations;
};

/// A broadcast program spread over N synchronized periodic channels.
///
/// All channels share the single absolute byte clock: one simulated time
/// unit puts one byte on *each* channel (the multichannel broadcast model
/// of Khatibi & Khatibi and of Lai, Lin & Liu). A client listens to
/// exactly one channel at a time; retuning to another channel loses
/// `switch_cost_bytes` bytes of broadcast — dead air charged to access
/// time but not to tuning time. Channels may have different cycle
/// lengths, and a pointer's phase is relative to the cycle of the
/// channel that owns its target (ArenaPointerEntry::target_channel). Each
/// channel is an arena view, read by the same calls as a single-channel
/// walk.
///
/// Implements the BroadcastScheme interface so the simulator, the error
/// model, and the deadline policy all work unchanged; Access() remains a
/// pure function of (key, tune-in time). Which channel the client starts
/// on is itself a pure hash of the tune-in time (a client wakes up on an
/// arbitrary channel), so replications stay bit-identical for any --jobs.
///
/// For kDataPartitioned the base scheme kind is built per partition via
/// BuildScheme — all registered schemes plug in. The two index-centric
/// allocations lay out the global B+-tree air index themselves (the base
/// kind only selects the partition count semantics), as in the
/// multichannel XML-stream engine of Khatibi & Khatibi.
class MultiChannelProgram : public BroadcastScheme {
 public:
  /// Builds the program. Fails when num_channels < 2 (a single channel
  /// must bypass the wrapper so single-channel runs stay byte-identical),
  /// when the dataset has fewer records than data partitions, or when a
  /// per-partition base scheme cannot be built.
  static Result<std::unique_ptr<MultiChannelProgram>> Build(
      SchemeKind kind, std::shared_ptr<const Dataset> dataset,
      const BucketGeometry& geometry, const SchemeParams& params,
      const MultiChannelParams& multichannel);

  // BroadcastScheme interface. view() is channel 0 (the index channel
  // for kIndexOnOne) for structure-agnostic callers.
  const ArenaChannelView& view() const override { return views_.front(); }
  AccessResult Access(std::string_view key, Bytes tune_in) const override;

  /// Number of physical channels.
  int num_channels() const { return static_cast<int>(views_.size()); }

  /// Channel `c` (0 <= c < num_channels()) as its arena view.
  const ArenaChannelView& channel_view(int c) const {
    return views_[static_cast<std::size_t>(c)];
  }

  /// The allocation strategy in effect.
  ChannelAllocation allocation() const { return allocation_; }

  /// Number of key partitions the data is split into.
  int num_partitions() const {
    return static_cast<int>(partition_first_keys_.size());
  }

  /// Id of the channel whose data partition covers `key`.
  int HomeChannel(std::string_view key) const;

  /// Channel a client tuning in at `tune_in` starts listening on: a pure
  /// hash of the tune-in time, except kIndexOnOne where every walk must
  /// start on the index channel 0.
  int StartChannel(Bytes tune_in) const;

  /// Conflict-aware placement outcome; all zeros/empty unless the program
  /// was built with an active scheduler.
  const ConflictPlacement& conflict_placement() const { return conflict_; }

 private:
  MultiChannelProgram() = default;

  AccessResult AccessPartitioned(std::string_view key, Bytes tune_in) const;
  AccessResult AccessIndexed(std::string_view key, Bytes tune_in) const;

  // One view per channel, in channel order: a data partition's own
  // program view for kDataPartitioned, otherwise the channel Build wrote.
  std::vector<ArenaChannelView> views_;
  /// Bytes of broadcast a client loses on every hop between two distinct
  /// channels.
  Bytes switch_cost_bytes_ = 0;

  ChannelAllocation allocation_ = ChannelAllocation::kDataPartitioned;
  /// First key of each data partition, in partition order (HomeChannel
  /// does an upper_bound over these).
  std::vector<std::string> partition_first_keys_;
  /// Channel id of partition 0 (0 for partitioned/replicated, 1 for
  /// index-on-one where channel 0 is the index).
  int first_data_channel_ = 0;

  // kDataPartitioned: one base-scheme program per partition, in channel
  // order. Each sub-scheme keeps its own sub-dataset alive.
  std::vector<std::unique_ptr<BroadcastScheme>> partitions_;
  ConflictPlacement conflict_;

  // kIndexOnOne / kReplicatedIndex: the global tree's height, which
  // bounds the descent.
  int tree_height_ = 0;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_MULTICHANNEL_H_
