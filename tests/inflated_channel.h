// A program inflated back to heap Bucket vectors, with its own phase
// arithmetic. Tests that inspect bucket fields (entries, control parts,
// signatures) or walk the cycle bucket by bucket read this rather than
// the arena view, so an oracle never checks the view against itself:
// the buckets are rebuilt field by field from the arena's public
// accessors, and the phases from a prefix sum of their sizes. Key views
// point into the program's arena, so the scheme (or view) must outlive
// the inflated channel.
#ifndef AIRINDEX_TESTS_INFLATED_CHANNEL_H_
#define AIRINDEX_TESTS_INFLATED_CHANNEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "broadcast/arena.h"
#include "bucket_oracle.h"
#include "schemes/access.h"
#include "schemes/channel_view.h"

namespace airindex {

class InflatedChannel {
 public:
  explicit InflatedChannel(const ArenaChannelView& view) {
    const ProgramArena& arena = view.arena();
    const ArenaChannelDesc& desc = arena.channel_desc(0);
    const auto entries = [&arena](std::uint32_t first, std::uint32_t count) {
      std::vector<PointerEntry> out;
      for (std::uint32_t e = first; e < first + count; ++e) {
        const ArenaPointerEntry& flat = arena.entry(e);
        PointerEntry entry;
        entry.key_lo = arena.str(flat.key_lo);
        entry.key_hi = arena.str(flat.key_hi);
        entry.target_phase = flat.target_phase;
        entry.target_channel = flat.target_channel;
        out.push_back(entry);
      }
      return out;
    };
    for (std::uint32_t i = 0; i < desc.bucket_count; ++i) {
      const ArenaBucket& flat = arena.bucket(desc.first_bucket + i);
      Bucket b;
      b.kind = static_cast<BucketKind>(flat.kind);
      b.size = flat.size;
      b.record_id = flat.record_id;
      b.next_index_segment_phase = flat.next_index_segment_phase;
      b.level = flat.level;
      b.range_lo = std::string(arena.str(flat.range_lo));
      b.range_hi = std::string(arena.str(flat.range_hi));
      b.local = entries(flat.local_first, flat.local_count);
      b.control = entries(flat.control_first, flat.control_count);
      b.last_broadcast_key = std::string(arena.str(flat.last_broadcast_key));
      b.slot = flat.slot;
      b.hash_value = flat.hash_value;
      b.shift_phase = flat.shift_phase;
      for (std::uint32_t w = 0; w < flat.signature_count; ++w) {
        b.signature.push_back(arena.word(flat.signature_first + w));
      }
      starts_.push_back(cycle_bytes_);
      cycle_bytes_ += b.size;
      buckets_.push_back(std::move(b));
    }
  }

  explicit InflatedChannel(const BroadcastScheme& scheme)
      : InflatedChannel(scheme.view()) {}

  Bytes cycle_bytes() const { return cycle_bytes_; }
  std::size_t num_buckets() const { return buckets_.size(); }
  const Bucket& bucket(std::size_t i) const { return buckets_[i]; }
  const std::vector<Bucket>& buckets() const { return buckets_; }

  /// Phase at which bucket i starts, and one past its last byte.
  Bytes start_phase(std::size_t i) const { return starts_[i]; }
  Bytes end_phase(std::size_t i) const {
    return starts_[i] + buckets_[i].size;
  }

  /// Index of the bucket whose byte span contains `phase`
  /// (0 <= phase < cycle_bytes()).
  std::size_t BucketAtPhase(Bytes phase) const {
    const auto it = std::upper_bound(starts_.begin(), starts_.end(), phase);
    return static_cast<std::size_t>(it - starts_.begin()) - 1;
  }

  /// Index of the bucket starting exactly at `phase`; num_buckets() if
  /// no bucket starts there.
  std::size_t BucketStartingAtPhase(Bytes phase) const {
    const std::size_t i = BucketAtPhase(phase);
    return starts_[i] == phase ? i : buckets_.size();
  }

  /// Absolute time (>= now) of the next bucket boundary.
  Bytes NextBoundaryTime(Bytes now) const {
    const Bytes phase = now % cycle_bytes_;
    const std::size_t i = BucketAtPhase(phase);
    return starts_[i] == phase ? now : now + (end_phase(i) - phase);
  }

  /// Absolute time (>= now) at which the cycle phase equals `phase`.
  Bytes NextArrivalOfPhase(Bytes phase, Bytes now) const {
    Bytes delta = phase - now % cycle_bytes_;
    if (delta < 0) delta += cycle_bytes_;
    return now + delta;
  }

 private:
  std::vector<Bucket> buckets_;
  std::vector<Bytes> starts_;
  Bytes cycle_bytes_ = 0;
};

}  // namespace airindex

#endif  // AIRINDEX_TESTS_INFLATED_CHANNEL_H_
