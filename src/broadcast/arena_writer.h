// Layer: 3 (broadcast) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_BROADCAST_ARENA_WRITER_H_
#define AIRINDEX_BROADCAST_ARENA_WRITER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "broadcast/arena.h"
#include "data/dataset.h"

namespace airindex {

/// Writes one single-channel broadcast program straight into arena form:
/// the way every builder lays out its cycle.
///
/// A builder appends its buckets in cycle order. Right after a bucket it
/// adds that bucket's local entries, then its control entries, then its
/// signature words, so each pool is filled in the order the buckets
/// reference it. Everything is staged in arena form (ArenaBucket records,
/// ArenaPointerEntry records, words and the string pool); Finish lays
/// the sections out through ProgramArena::Layout in one buffer of the
/// exact size and copies each staged part in, freeing it as soon as it
/// is copied.
///
/// Every string of a program is a key of the dataset the program is
/// built over, so a builder names it by record position. The first touch
/// of a position appends the key to the string pool and remembers its
/// ref; later touches reuse it. Dataset keys are unique and non-empty, so
/// this is content interning in first-touch order with no hashing: a
/// builder that touches the keys in a bucket's field order (range_lo,
/// range_hi, last_broadcast_key, then each entry's key_lo and key_hi)
/// writes the same string pool as interning the strings by content.
class ArenaWriter {
 public:
  /// A writer whose keys are the records of `dataset`, which must outlive
  /// it.
  explicit ArenaWriter(const Dataset& dataset);

  /// Sizes the staging for a program of `counts` buckets, entries, words
  /// and string bytes (an upper bound on the string bytes is enough), so
  /// nothing is reallocated as it grows. Channels and aux are ignored.
  /// Optional: a writer that was not sized grows as it goes.
  void Reserve(const ArenaCounts& counts);

  /// Appends a bucket of `kind` and `size` with every other field at its
  /// default, and returns it for the builder to fill in. The reference
  /// stays valid until the next Append.
  ArenaBucket& Append(BucketKind kind, Bytes size);

  /// The string ref of record `position`'s key, appended to the string
  /// pool on the first touch of the position.
  ArenaStrRef Key(int position);

  /// Appends a local entry covering the keys of records `key_lo` to
  /// `key_hi` (positions) to the last bucket. A bucket's local entries
  /// come before its control entries.
  void AddLocal(int key_lo, int key_hi, Bytes target_phase,
                std::int32_t target_channel = kSameChannel);

  /// Appends a control entry to the last bucket, after its local ones.
  void AddControl(int key_lo, int key_hi, Bytes target_phase);

  /// Appends `count` zeroed signature words to the last bucket and
  /// returns them for the builder to fill in. The pointer stays valid
  /// until the next AddWords.
  std::uint64_t* AddWords(int count);

  /// The bytes of every key of the dataset: the string-pool bound for a
  /// builder that may touch any key.
  std::uint64_t AllKeyBytes() const;

  /// Buckets appended so far.
  std::size_t num_buckets() const { return num_buckets_; }

  /// Bucket `i` (< num_buckets()), for a builder that fills fields in
  /// after laying out later buckets (hashing's control parts). The
  /// reference stays valid until the next Append.
  ArenaBucket& bucket(std::size_t i);

  /// The untagged single-channel arena of the buckets appended: no
  /// switch cost, scheme kind -1, zero fingerprints and no aux (as
  /// FlattenSchemeProgram re-tags it). The staged parts are freed as they
  /// are copied (the buckets a 32 MiB block at a time), so a build peaks
  /// near its arena plus the parts not yet copied, not at twice the
  /// arena. InvalidArgument when the program does not fit 32-bit offsets
  /// (ProgramArena::Layout); no offset or index is narrowed before it is
  /// checked. The writer is spent.
  Result<ProgramArena> Finish() &&;

 private:
  /// `value` as a 32-bit arena field; a value past 2^32 - 1 marks the
  /// program oversized, which Finish rejects.
  std::uint32_t Narrow(std::size_t value);

  const Dataset* dataset_;
  /// The bucket records in cycle order, in blocks (see Finish).
  std::vector<std::vector<ArenaBucket>> blocks_;
  std::size_t num_buckets_ = 0;
  /// Reserve's bucket count, which sizes each new block (up to a block).
  std::size_t expected_buckets_ = 0;
  std::vector<ArenaPointerEntry> entries_;
  std::vector<std::uint64_t> words_;
  std::string strings_;
  /// Per record position, the ref of its key once touched; length 0
  /// until then (keys are non-empty). Sized on the first Key call.
  std::vector<ArenaStrRef> key_refs_;
  bool oversized_ = false;
};

}  // namespace airindex

#endif  // AIRINDEX_BROADCAST_ARENA_WRITER_H_
