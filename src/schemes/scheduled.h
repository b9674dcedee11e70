// Layer: 4 (schemes) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_SCHEMES_SCHEDULED_H_
#define AIRINDEX_SCHEMES_SCHEDULED_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "broadcast/geometry.h"
#include "broadcast/schedule.h"
#include "data/dataset.h"
#include "schemes/access.h"
#include "schemes/channel_view.h"
#include "schemes/scheme.h"

namespace airindex {

/// How a scheduled program lets clients locate a record, derived from
/// the base scheme kind (every one of the 9 kinds maps to one family).
enum class ScheduledSegmentStyle {
  /// No index segment: scan until the record arrives (kFlat under an
  /// active scheduler; kBroadcastDisks, which is this family over its
  /// fraction assignment). Tuning equals access.
  kNone,
  /// A replicated B+-tree segment opens every minor cycle; the descent
  /// reads `height` index buckets (kOneM, kDistributed, kHybrid).
  kTree,
  /// A hash directory segment (one offset entry per record, perfect
  /// hash): a single directory probe resolves any key (kHashing).
  kHash,
  /// A signature directory segment (signature + offset per record): the
  /// client sifts entries in record order until its key's entry, a full
  /// segment for absent keys (kSignature, kIntegratedSignature,
  /// kMultiLevelSignature).
  kSignatureDir,
};

/// Skew-aware scheduled broadcast: the generalized broadcast-disks slot
/// schedule (broadcast/schedule.h) under any of the 9 schemes' index
/// families.
///
/// Layout: the major cycle is f_0 minor cycles; each minor cycle is
/// [index segment | that minor's data chunk slots] (the segment is
/// omitted for the scan family). Every bucket has the uniform data
/// bucket size. A record on disk d appears exactly f_d times per major
/// cycle — the exact accounting the chunked emission guarantees — so the
/// scheduler trades cold-record latency for hot-record latency while the
/// index family keeps tuning time flat.
///
/// The client walk is closed-form over build-time tables: tune in, read
/// the boundary bucket (it carries the next-segment offset), doze to the
/// next index segment, descend (per the family's probe rule), then doze
/// to the target's next occurrence and download. The scan family runs
/// the flat multi-disk scan instead.
class ScheduledBroadcast : public BroadcastScheme {
 public:
  /// Builds the scheduled program for `base_kind` from the planned
  /// square-root assignment of params.schedule (which must be active,
  /// with a resolved theta >= 0).
  static Result<ScheduledBroadcast> Build(
      SchemeKind base_kind, std::shared_ptr<const Dataset> dataset,
      const BucketGeometry& geometry, const SchemeParams& params);

  /// Builds the same layout from an explicit assignment — the online
  /// re-tiering loop's rebuild path (core/simulator.cc) and BuildScheme's
  /// broadcast disks (the fraction assignment of params.broadcast_disks)
  /// use it.
  static Result<ScheduledBroadcast> BuildWithAssignment(
      SchemeKind base_kind, std::shared_ptr<const Dataset> dataset,
      const BucketGeometry& geometry, const SchemeParams& params,
      DiskAssignment assignment);

  /// Adopts `view`, bound to a restored program arena. `aux` is
  /// FlattenAux()'s resolved assignment (tag, boundaries, frequencies,
  /// rotation); the identity record order is assumed — the arena cache
  /// only ever stores planned (not online-evolved) programs — and the
  /// view is validated slot-by-slot against the recomputed layout.
  static Result<ScheduledBroadcast> Restore(
      SchemeKind base_kind, std::shared_ptr<const Dataset> dataset,
      const BucketGeometry& geometry, const SchemeParams& params,
      ArenaChannelView view, const std::vector<std::int64_t>& aux);

  const ArenaChannelView& view() const override { return view_; }
  AccessResult Access(std::string_view key, Bytes tune_in) const override;

  /// The slot assignment in effect.
  const DiskAssignment& assignment() const { return assignment_; }

  /// The index family in effect.
  ScheduledSegmentStyle segment_style() const { return style_; }

  /// Index buckets of one minor cycle (0 for the scan family).
  int segment_buckets() const { return segment_buckets_; }

  /// Number of times `record` appears in one major cycle.
  int OccurrencesOf(int record) const {
    return static_cast<int>(
        occurrences_[static_cast<std::size_t>(record)].size());
  }

  /// Disk index of a record.
  int DiskOf(int record) const {
    return disk_of_[static_cast<std::size_t>(record)];
  }

  /// Per record: sorted bucket indices of its data occurrences — the
  /// conflict-aware multichannel placer and the analytical model consume
  /// these.
  const std::vector<std::vector<int>>& record_buckets() const {
    return record_buckets_;
  }

  /// Data slots per major cycle (== assignment().SlotsPerMajorCycle()).
  std::int64_t data_slots() const { return data_slots_; }

  /// First aux scalar of every flattened scheduled program, so a
  /// scheduled arena can never be mistaken for a base-kind one.
  static constexpr std::int64_t kAuxTag = 0x53434844;  // 'SCHD'

  /// Resolved assignment scalars for the program arena:
  /// [kAuxTag, D, disk_begin[1..D], f_0..f_{D-1}, rotation_slots].
  std::vector<std::int64_t> FlattenAux() const;

 private:
  explicit ScheduledBroadcast(ArenaChannelView view)
      : view_(std::move(view)) {}

  /// The closed-form client walk over the bound arena.
  AccessResult Walk(const ArenaChannelView& view, std::string_view key,
                    Bytes tune_in) const;

  /// Index buckets an index descent reads for the present record
  /// `record` (after the initial tune-in probe).
  int DescentProbes(int record) const;

  /// Shared Build/Restore core: derives every table from the assignment
  /// and either writes the channel (Build; `existing` null) or validates
  /// the bound `existing` view against the expected layout and keeps it
  /// (Restore).
  static Result<ScheduledBroadcast> Assemble(
      SchemeKind base_kind, std::shared_ptr<const Dataset> dataset,
      const BucketGeometry& geometry, const SchemeParams& params,
      DiskAssignment assignment, ArenaChannelView* existing);

  std::shared_ptr<const Dataset> dataset_;
  ArenaChannelView view_;
  DiskAssignment assignment_;
  std::vector<int> disk_of_;
  ScheduledSegmentStyle style_ = ScheduledSegmentStyle::kNone;
  int segment_buckets_ = 0;
  /// Descent cost in index buckets for a present key of local rank r
  /// (kTree: height; kHash: 1; kSignatureDir: r / entries-per-bucket + 1).
  int tree_height_ = 0;
  int entries_per_bucket_ = 0;
  int probes_absent_ = 0;
  int rotation_slots_ = 0;
  std::int64_t data_slots_ = 0;
  /// Per record: sorted start phases of its data buckets.
  std::vector<std::vector<Bytes>> occurrences_;
  std::vector<std::vector<int>> record_buckets_;
  /// Sorted start phases of the index segments (empty for kNone).
  std::vector<Bytes> segment_starts_;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_SCHEDULED_H_
