// Layer: 4 (schemes) — see docs/ARCHITECTURE.md for the layer map.
//
// The channel view every client access walk traverses: a flattened
// single-channel program (broadcast/arena.h) read by 32-bit offset
// arithmetic — buckets, index entries and signature words resolved from
// the arena's pools, with no rebuilt trees, no per-bucket heap vectors
// and no pointer chasing. Every scheme binds one when it is constructed
// (Build flattens its own channel, Restore binds the arena it was
// restored from), so each scheme's Access() is one walk over this view.
//
// The arena's bucket pool is written in cycle order and its entry pool
// in local-before-control order (ProgramArena::Flatten), so span
// [first, first+count) of the pools is exactly the corresponding
// bucket's vector in the inflated Channel: bucket indices and phases
// agree with the scheme's channel().
#ifndef AIRINDEX_SCHEMES_CHANNEL_VIEW_H_
#define AIRINDEX_SCHEMES_CHANNEL_VIEW_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "broadcast/arena.h"
#include "broadcast/channel.h"

namespace airindex {

/// A resolved index-entry lookup: `found` plus the entry's target phase.
/// The single-channel walks never follow cross-channel targets, so the
/// phase is all a protocol needs.
struct EntryView {
  bool found = false;
  Bytes target_phase = kInvalidPhase;
};

/// View over a flattened single-channel program. Co-owns the arena and
/// holds raw base pointers into its buffer (stable across moves of the
/// view — the buffer is heap storage), resolving every walk step by
/// offset arithmetic. Phase math mirrors Channel exactly, including the
/// uniform-size fast path.
class ArenaChannelView {
 public:
  /// Proxy over one ArenaBucket.
  class BucketRef {
   public:
    BucketRef(const ArenaChannelView* view, const ArenaBucket* b)
        : view_(view), b_(b) {}

    Bytes size() const { return b_->size; }
    BucketKind kind() const { return static_cast<BucketKind>(b_->kind); }
    int level() const { return b_->level; }
    std::int64_t record_id() const { return b_->record_id; }
    Bytes next_index_segment_phase() const {
      return b_->next_index_segment_phase;
    }
    std::int64_t hash_value() const { return b_->hash_value; }
    Bytes shift_phase() const { return b_->shift_phase; }
    std::string_view range_lo() const { return view_->str(b_->range_lo); }
    std::string_view range_hi() const { return view_->str(b_->range_hi); }
    std::string_view last_broadcast_key() const {
      return view_->str(b_->last_broadcast_key);
    }

    /// Binary search over the local-entry span; same result as
    /// FindCoveringEntry on the inflated vector (the span holds the same
    /// entries in the same sorted order).
    EntryView FindLocal(std::string_view key) const {
      std::uint32_t lo = b_->local_first;
      std::uint32_t hi = b_->local_first + b_->local_count;
      while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        if (view_->str(view_->entries_[mid].key_hi) < key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == b_->local_first + b_->local_count) return {};
      const ArenaPointerEntry& entry = view_->entries_[lo];
      if (view_->str(entry.key_lo) > key) return {};
      return {true, entry.target_phase};
    }

    EntryView FindControlUp(std::string_view key) const {
      const std::uint32_t end = b_->control_first + b_->control_count;
      for (std::uint32_t i = b_->control_first; i < end; ++i) {
        const ArenaPointerEntry& entry = view_->entries_[i];
        if (key <= view_->str(entry.key_hi)) {
          return {true, entry.target_phase};
        }
      }
      return {};
    }

    const std::uint64_t* signature_words() const {
      return view_->words_ + b_->signature_first;
    }
    int signature_word_count() const {
      return static_cast<int>(b_->signature_count);
    }

   private:
    const ArenaChannelView* view_;
    const ArenaBucket* b_;
  };

  /// Flattens `channel` into a fresh untagged arena and binds it — the
  /// Build path. A fresh flatten always mirrors its channel.
  static ArenaChannelView Flatten(const Channel& channel) {
    return Bind(std::make_shared<const ProgramArena>(ProgramArena::Flatten(
                    {&channel}, /*switch_cost_bytes=*/0, /*scheme_kind=*/-1,
                    /*dataset_fingerprint=*/0, /*params_fingerprint=*/0,
                    /*aux=*/{})),
                channel)
        .value();
  }

  /// Binds channel 0 of `arena`, the program `channel` was inflated from
  /// — the Restore path. InvalidArgument unless the arena is a
  /// single-channel program whose bucket pool matches `channel` in count
  /// and cycle length.
  static Result<ArenaChannelView> Bind(
      std::shared_ptr<const ProgramArena> arena, const Channel& channel) {
    const auto mismatch = [] {
      return Status::InvalidArgument(
          "arena view: the arena does not mirror the scheme's channel");
    };
    if (arena == nullptr || arena->num_channels() != 1) return mismatch();
    const ArenaChannelDesc& desc = arena->channel_desc(0);
    if (desc.first_bucket != 0 || desc.bucket_count == 0 ||
        desc.bucket_count != channel.num_buckets() ||
        arena->num_buckets() != desc.bucket_count) {
      return mismatch();
    }
    ArenaChannelView view;
    const ArenaHeader& header = arena->header();
    const std::uint8_t* base = arena->bytes().data();
    view.buckets_ =
        reinterpret_cast<const ArenaBucket*>(base + header.buckets_offset);
    view.entries_ = reinterpret_cast<const ArenaPointerEntry*>(
        base + header.entries_offset);
    view.words_ =
        reinterpret_cast<const std::uint64_t*>(base + header.words_offset);
    view.strings_ =
        reinterpret_cast<const char*>(base + header.strings_offset);
    view.num_buckets_ = desc.bucket_count;
    view.starts_.reserve(view.num_buckets_);
    Bytes at = 0;
    bool uniform = true;
    const Bytes first_size = view.buckets_[0].size;
    for (std::uint32_t i = 0; i < view.num_buckets_; ++i) {
      view.starts_.push_back(at);
      at += view.buckets_[i].size;
      uniform = uniform && view.buckets_[i].size == first_size;
    }
    view.cycle_bytes_ = at;
    view.uniform_ = uniform;
    view.uniform_size_ = first_size;
    if (view.cycle_bytes_ != channel.cycle_bytes()) return mismatch();
    view.arena_ = std::move(arena);
    return view;
  }

  Bytes cycle_bytes() const { return cycle_bytes_; }
  std::size_t num_buckets() const { return num_buckets_; }
  BucketRef bucket(std::size_t i) const {
    return BucketRef(this, buckets_ + i);
  }
  Bytes start_phase(std::size_t i) const { return starts_[i]; }

  std::size_t BucketAtPhase(Bytes phase) const {
    if (uniform_) return static_cast<std::size_t>(phase / uniform_size_);
    std::size_t lo = 0;
    std::size_t hi = num_buckets_;
    // upper_bound(starts_, phase) - 1, as Channel::BucketAtPhase.
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (starts_[mid] <= phase) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo - 1;
  }

  Bytes NextBoundaryTime(Bytes now) const {
    const Bytes phase = now % cycle_bytes_;
    const std::size_t i = BucketAtPhase(phase);
    if (starts_[i] == phase) return now;
    return now + (starts_[i] + buckets_[i].size - phase);
  }

  Bytes NextArrivalOfPhase(Bytes phase, Bytes now) const {
    const Bytes current = now % cycle_bytes_;
    Bytes delta = phase - current;
    if (delta < 0) delta += cycle_bytes_;
    return now + delta;
  }

  /// First word of the whole signature-word pool. For SignatureIndexing's
  /// alternating cycle the pool is the row-major record signature table
  /// (its Restore checks the layout), from which the scheme derives its
  /// bit-sliced counting table once, at construction.
  const std::uint64_t* word_pool() const { return words_; }

 private:
  friend class BucketRef;

  ArenaChannelView() = default;

  std::string_view str(const ArenaStrRef& ref) const {
    return std::string_view(strings_ + ref.offset, ref.length);
  }

  /// Keeps the buffer behind the raw pool pointers below alive (and, on a
  /// restored scheme, the inflated channel's key views too).
  std::shared_ptr<const ProgramArena> arena_;
  const ArenaBucket* buckets_ = nullptr;
  const ArenaPointerEntry* entries_ = nullptr;
  const std::uint64_t* words_ = nullptr;
  const char* strings_ = nullptr;
  std::uint32_t num_buckets_ = 0;
  Bytes cycle_bytes_ = 0;
  bool uniform_ = false;
  Bytes uniform_size_ = 0;
  std::vector<Bytes> starts_;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_CHANNEL_VIEW_H_
