// Layer: 4 (schemes) — see docs/ARCHITECTURE.md for the layer map.
//
// A broadcast program: a single-channel arena (broadcast/arena.h) read
// by 32-bit offset arithmetic — buckets, index entries and signature
// words resolved from the arena's pools, with no rebuilt trees, no
// per-bucket heap vectors and no pointer chasing. Every scheme binds one
// when it is constructed (Build binds the arena its ArenaWriter wrote,
// Restore the arena it was restored from), and a multichannel program
// holds one per channel. The view is the only representation of a
// program: each Access() is one walk over it, and the code outside the
// walks (report shape, server counters, PIX frequencies, filters, trace
// printing) reads the same view.
//
// A builder appends its buckets in cycle order and each bucket's local
// entries before its control entries (broadcast/arena_writer.h), so
// bucket indices and phases here are exactly those of the cycle the
// builder laid out.
#ifndef AIRINDEX_SCHEMES_CHANNEL_VIEW_H_
#define AIRINDEX_SCHEMES_CHANNEL_VIEW_H_

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "broadcast/arena.h"
#include "broadcast/arena_writer.h"

namespace airindex {

/// A resolved index-entry lookup: `found` plus the entry's target. The
/// single-channel walks follow only the phase; the multichannel leaf hop
/// also reads the channel (kSameChannel for the entry's own channel).
struct EntryView {
  bool found = false;
  std::int32_t target_channel = kSameChannel;
  Bytes target_phase = kInvalidPhase;
};
static_assert(sizeof(EntryView) == 16);

/// View over a single-channel program arena. Co-owns the arena and
/// holds raw base pointers into its buffer (stable across moves of the
/// view — the buffer is heap storage), resolving every walk step by
/// offset arithmetic. Simulated time is an absolute byte count and a
/// phase is `time % cycle_bytes()`; every pointer field is a phase, which
/// NextArrivalOfPhase turns into an absolute wake-up time — the paper's
/// "offset value is the arrival time of the bucket". The bucket start
/// table, a uniform-size fast path and the per-kind bucket counts are
/// taken once, at bind time.
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
    std::int64_t slot() const { return b_->slot; }
    std::int64_t hash_value() const { return b_->hash_value; }
    Bytes shift_phase() const { return b_->shift_phase; }
    std::string_view range_lo() const { return view_->str(b_->range_lo); }
    std::string_view range_hi() const { return view_->str(b_->range_hi); }
    std::string_view last_broadcast_key() const {
      return view_->str(b_->last_broadcast_key);
    }

    std::uint32_t local_count() const { return b_->local_count; }
    std::uint32_t control_count() const { return b_->control_count; }

    /// The local entry whose [key_lo, key_hi] covers `key`: a binary
    /// search over the span, whose entries every builder emits sorted by
    /// key range.
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
      return {true, entry.target_channel, entry.target_phase};
    }

    EntryView FindControlUp(std::string_view key) const {
      const std::uint32_t end = b_->control_first + b_->control_count;
      for (std::uint32_t i = b_->control_first; i < end; ++i) {
        const ArenaPointerEntry& entry = view_->entries_[i];
        if (key <= view_->str(entry.key_hi)) {
          return {true, entry.target_channel, entry.target_phase};
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

  /// The Build path: finishes the cycle a builder wrote into `writer`
  /// (an untagged arena) and binds it, which checks the sizes.
  /// InvalidArgument when the program does not fit an arena's 32-bit
  /// offsets.
  static Result<ArenaChannelView> Bind(ArenaWriter writer) {
    Result<ProgramArena> arena = std::move(writer).Finish();
    if (!arena.ok()) return arena.status();
    return Bind(
        std::make_shared<const ProgramArena>(std::move(arena).value()));
  }

  /// Binds channel 0 of `arena` — the Restore path. InvalidArgument
  /// unless the arena is a single-channel program of at least one
  /// bucket whose sizes are positive and sum to a representable cycle.
  static Result<ArenaChannelView> Bind(
      std::shared_ptr<const ProgramArena> arena) {
    if (arena == nullptr || arena->num_channels() != 1) {
      return Status::InvalidArgument(
          "arena view: a scheme program is a single-channel arena");
    }
    const ArenaChannelDesc& desc = arena->channel_desc(0);
    if (desc.first_bucket != 0 || desc.bucket_count == 0 ||
        arena->num_buckets() != desc.bucket_count) {
      return Status::InvalidArgument(
          "arena view: the channel must span the whole, non-empty bucket "
          "pool");
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
    view.num_entries_ = header.num_entries;
    view.starts_.reserve(view.num_buckets_);
    Bytes at = 0;
    bool uniform = true;
    const Bytes first_size = view.buckets_[0].size;
    for (std::uint32_t i = 0; i < view.num_buckets_; ++i) {
      const ArenaBucket& b = view.buckets_[i];
      if (b.size <= 0 || b.size > std::numeric_limits<Bytes>::max() - at) {
        return Status::InvalidArgument(
            "arena view: bucket " + std::to_string(i) +
            " has a non-positive size or overflows the cycle");
      }
      view.starts_.push_back(at);
      at += b.size;
      uniform = uniform && b.size == first_size;
      ++view.kind_counts_[b.kind];  // Validate bounds kind to BucketKind
    }
    view.cycle_bytes_ = at;
    view.uniform_ = uniform;
    view.uniform_size_ = first_size;
    view.arena_ = std::move(arena);
    return view;
  }

  Bytes cycle_bytes() const { return cycle_bytes_; }
  std::size_t num_buckets() const { return num_buckets_; }
  BucketRef bucket(std::size_t i) const {
    return BucketRef(this, buckets_ + i);
  }
  /// Phase at which bucket i starts, and one past its last byte.
  Bytes start_phase(std::size_t i) const { return starts_[i]; }
  Bytes end_phase(std::size_t i) const {
    return starts_[i] + buckets_[i].size;
  }

  /// Count of buckets of each kind.
  std::size_t num_data_buckets() const { return CountOf(BucketKind::kData); }
  std::size_t num_index_buckets() const {
    return CountOf(BucketKind::kIndex);
  }
  std::size_t num_signature_buckets() const {
    return CountOf(BucketKind::kSignature);
  }

  std::size_t BucketAtPhase(Bytes phase) const {
    if (uniform_) return static_cast<std::size_t>(phase / uniform_size_);
    std::size_t lo = 0;
    std::size_t hi = num_buckets_;
    // upper_bound(starts_, phase) - 1: the last bucket starting at or
    // before the phase.
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
    return now + (end_phase(i) - phase);
  }

  Bytes NextArrivalOfPhase(Bytes phase, Bytes now) const {
    const Bytes current = now % cycle_bytes_;
    Bytes delta = phase - current;
    if (delta < 0) delta += cycle_bytes_;
    return now + delta;
  }

  /// Number of buckets the server has fully broadcast by absolute time
  /// `now` (>= 0): whole cycles times the bucket count, plus the complete
  /// buckets of the partial cycle (BucketAtPhase names the bucket
  /// containing the phase, which equals that count). The telemetry layer
  /// reports this as the server-side "buckets broadcast" counter.
  std::int64_t BucketsBroadcastBy(Bytes now) const {
    if (now <= 0) return 0;
    return now / cycle_bytes_ * static_cast<std::int64_t>(num_buckets_) +
           static_cast<std::int64_t>(BucketAtPhase(now % cycle_bytes_));
  }

  /// The bound arena. FlattenSchemeProgram re-tags it.
  const ProgramArena& arena() const { return *arena_; }

  /// The whole pointer-entry pool in cycle order: each bucket's local
  /// entries, then its control entries. The structural validator makes
  /// one pass over it.
  std::span<const ArenaPointerEntry> entry_pool() const {
    return {entries_, num_entries_};
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
  std::size_t CountOf(BucketKind kind) const {
    return kind_counts_[static_cast<std::size_t>(kind)];
  }

  /// Keeps the buffer behind the raw pool pointers below alive.
  std::shared_ptr<const ProgramArena> arena_;
  const ArenaBucket* buckets_ = nullptr;
  const ArenaPointerEntry* entries_ = nullptr;
  const std::uint64_t* words_ = nullptr;
  const char* strings_ = nullptr;
  std::uint32_t num_buckets_ = 0;
  std::uint32_t num_entries_ = 0;
  Bytes cycle_bytes_ = 0;
  bool uniform_ = false;
  Bytes uniform_size_ = 0;
  std::array<std::size_t, 3> kind_counts_{};  // by BucketKind
  std::vector<Bytes> starts_;
};

/// Structural check of a program whose channels are `channels`, with
/// channel c's kSameChannel pointers relative to channels[c]. Every
/// pointer phase — local and control entries, next-index-segment, shift
/// — must be kInvalidPhase or a bucket start on its target channel; every
/// entry's target channel must be a channel of the program; no index
/// bucket may have an inverted key range. InvalidArgument names the
/// first violation. Restore runs it on a program read from outside the
/// process; builders are trusted and never pay for it.
Status ValidateProgramStructure(std::span<const ArenaChannelView> channels);

/// The single-channel form: a scheme's program.
inline Status ValidateProgramStructure(const ArenaChannelView& program) {
  return ValidateProgramStructure(
      std::span<const ArenaChannelView>(&program, 1));
}

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_CHANNEL_VIEW_H_
