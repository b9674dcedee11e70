#ifndef AIRINDEX_BROADCAST_BUCKET_H_
#define AIRINDEX_BROADCAST_BUCKET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace airindex {

/// Kinds of buckets a scheme can place on the channel.
enum class BucketKind {
  /// Carries one data record (all schemes).
  kData,
  /// Carries B+-tree index information ((1,m) and distributed indexing).
  kIndex,
  /// Carries a record or group signature (signature indexing family).
  kSignature,
};

/// Returns a short printable name for a bucket kind.
inline const char* BucketKindToString(BucketKind kind) {
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

/// PointerEntry::target_channel value meaning "the channel this bucket is
/// broadcast on" — the single-channel case, and the default so every
/// existing scheme builder stays unchanged.
inline constexpr int kSameChannel = -1;

/// One directory entry inside an index bucket: "keys up to `key_hi` (and
/// from `key_lo`) are reachable at cycle phase `target_phase`".
///
/// Phases are byte positions within one broadcast cycle; a client turns a
/// phase into an absolute arrival time with the program view's
/// NextArrivalOfPhase (schemes/channel_view.h), which models the paper's
/// "time offset" pointers uniformly across schemes.
///
/// The key bounds are views into Dataset-owned key storage (every scheme
/// keeps its dataset alive via shared_ptr), so index buckets carry no
/// per-entry heap strings and the client walk compares fixed-width views.
struct PointerEntry {
  std::string_view key_lo;
  std::string_view key_hi;
  Bytes target_phase = kInvalidPhase;
  /// Channel the phase is relative to: kSameChannel for the bucket's own
  /// channel (all single-channel schemes), otherwise the index of one of
  /// the multichannel program's channels. Clients pay the program's switch
  /// cost when they follow a pointer off their current channel.
  int target_channel = kSameChannel;
};

/// One bucket instance on the broadcast cycle.
///
/// This is deliberately a plain aggregate: builders fill in the fields a
/// scheme uses and leave the rest defaulted. Field groups:
///
/// - all kinds: kind, size, next_index_segment_phase (schemes with index
///   segments store the offset every bucket carries in Fig. 2).
/// - kData: record_id; hashing additionally uses hash_value / shift_phase
///   (the control part) and home_position.
/// - kIndex: level, key range, local index, control index (distributed),
///   last_broadcast_key (distributed).
/// - kSignature: signature words; record_id of the data bucket that
///   follows.
struct Bucket {
  BucketKind kind = BucketKind::kData;
  /// Broadcast size in bytes (== time to read the bucket).
  Bytes size = 0;

  /// Dataset record index for kData / kSignature buckets; -1 when the
  /// bucket carries no record (e.g., an empty hash slot).
  std::int64_t record_id = -1;

  // --- index segments (B+-tree schemes) -------------------------------
  /// Phase of the first bucket of the next index segment.
  Bytes next_index_segment_phase = kInvalidPhase;
  /// Tree level, counted from the leaves: 0 = leaf index bucket. -1 for
  /// non-index buckets.
  int level = -1;
  /// Key range covered by this index node's subtree.
  std::string range_lo;
  std::string range_hi;
  /// Local index: one entry per child (leaf level: per data record).
  std::vector<PointerEntry> local;
  /// Control index (distributed indexing): nearest-ancestor-first entries
  /// pointing at each ancestor's next occurrence after this bucket.
  std::vector<PointerEntry> control;
  /// Key of the data record most recently broadcast before this bucket;
  /// empty if none yet this cycle. Drives the paper's "if K < key most
  /// recently broadcast, go to next broadcast" rule.
  std::string last_broadcast_key;

  // --- hashing control part -------------------------------------------
  /// Hash value this *position* stands for (the control part of the
  /// first Na buckets); -1 beyond the allocated area.
  std::int64_t slot = -1;
  /// Hash value of the record carried in this bucket; -1 if empty.
  std::int64_t hash_value = -1;
  /// Phase of the first bucket holding records whose hash equals `slot`
  /// (the paper's shift value, resolved to a phase). kInvalidPhase beyond
  /// the allocated area.
  Bytes shift_phase = kInvalidPhase;

  // --- signature buckets ----------------------------------------------
  /// Superimposed-coding signature words (signature_bytes * 8 bits).
  std::vector<std::uint64_t> signature;
};

}  // namespace airindex

#endif  // AIRINDEX_BROADCAST_BUCKET_H_
