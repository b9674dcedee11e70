// Layer: 3 (broadcast) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_BROADCAST_ARENA_H_
#define AIRINDEX_BROADCAST_ARENA_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
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

/// ArenaPointerEntry::target_channel value meaning "the channel this
/// bucket is broadcast on": the single-channel case, and the default.
inline constexpr int kSameChannel = -1;

/// The arena's on-wire structures. Every field is fixed-width and every
/// cross-structure reference is a 32-bit offset (or index) into one of
/// the arena's pools, so a flattened program is a single relocatable
/// buffer: it can be memcpy'd, written to disk and loaded back anywhere
/// without pointer fixups. All structures are padded explicitly to
/// multiples of 8 bytes and the pads are zeroed, which is what makes a
/// written arena deterministic byte-for-byte (the CI snapshot-roundtrip
/// gate depends on it).
///
/// A "string ref" is (offset, length) into the arena's string pool; an
/// "entry ref" is (first, count) into the pointer-entry pool; a "word
/// ref" is (first, count) into the 64-bit word pool.
struct ArenaStrRef {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
};
static_assert(sizeof(ArenaStrRef) == 8);

/// One directory entry inside an index bucket: "keys up to `key_hi`
/// (and from `key_lo`) are reachable at cycle phase `target_phase`".
/// Phases are byte positions within one broadcast cycle; a client turns a
/// phase into an absolute arrival time with the program view's
/// NextArrivalOfPhase (schemes/channel_view.h), which models the paper's
/// "time offset" pointers uniformly across schemes. `target_channel` is
/// kSameChannel for the bucket's own channel, otherwise the index of one
/// of the multichannel program's channels.
struct ArenaPointerEntry {
  ArenaStrRef key_lo;
  ArenaStrRef key_hi;
  std::int64_t target_phase = kInvalidPhase;
  std::int32_t target_channel = kSameChannel;
  std::uint32_t pad = 0;
};
static_assert(sizeof(ArenaPointerEntry) == 32);

/// One bucket instance on the broadcast cycle. Builders set the fields a
/// scheme uses and leave the rest defaulted:
///
/// - all kinds: kind, size, next_index_segment_phase (schemes with index
///   segments store the offset every bucket carries in Fig. 2).
/// - kData: record_id (-1 when the bucket carries no record, e.g. an
///   empty hash slot); hashing additionally sets slot (the hash value
///   this position stands for in its control part), hash_value (of the
///   record carried) and shift_phase (the paper's shift value, resolved
///   to the phase of the slot's chain start).
/// - kIndex: level (0 = leaf), the key range of the node's subtree, the
///   local index (one entry per child) and, for distributed indexing, the
///   control index (each ancestor's next occurrence, nearest first) and
///   the key of the data record most recently broadcast before it.
/// - kSignature: signature words; record_id of the data bucket that
///   follows.
///
/// Strings are string-pool refs, entry and word lists pool spans.
struct ArenaBucket {
  std::int64_t size = 0;
  std::int64_t record_id = -1;
  std::int64_t next_index_segment_phase = kInvalidPhase;
  std::int64_t slot = -1;
  std::int64_t hash_value = -1;
  std::int64_t shift_phase = kInvalidPhase;
  ArenaStrRef range_lo;
  ArenaStrRef range_hi;
  ArenaStrRef last_broadcast_key;
  std::uint32_t local_first = 0;
  std::uint32_t local_count = 0;
  std::uint32_t control_first = 0;
  std::uint32_t control_count = 0;
  std::uint32_t signature_first = 0;
  std::uint32_t signature_count = 0;
  std::int32_t level = -1;
  std::uint8_t kind = 0;  // BucketKind as u8
  std::uint8_t pad[3] = {0, 0, 0};
};
static_assert(sizeof(ArenaBucket) == 104);

/// One channel of the flattened program: a bucket-pool span.
struct ArenaChannelDesc {
  std::uint32_t first_bucket = 0;
  std::uint32_t bucket_count = 0;
};
static_assert(sizeof(ArenaChannelDesc) == 8);

/// Fixed-size header at offset 0 of every arena buffer. Section offsets
/// are bytes from the start of the buffer; all sections are 8-aligned.
struct ArenaHeader {
  std::uint32_t magic = 0;
  std::uint32_t format_version = 0;
  std::int32_t scheme_kind = -1;  // SchemeKind as int; -1 = untagged
  std::uint32_t num_channels = 0;
  std::int64_t switch_cost_bytes = 0;
  std::uint64_t dataset_fingerprint = 0;
  std::uint64_t params_fingerprint = 0;
  std::uint32_t channels_offset = 0;
  std::uint32_t buckets_offset = 0;
  std::uint32_t num_buckets = 0;
  std::uint32_t entries_offset = 0;
  std::uint32_t num_entries = 0;
  std::uint32_t words_offset = 0;
  std::uint32_t num_words = 0;
  std::uint32_t strings_offset = 0;
  std::uint32_t string_pool_bytes = 0;
  std::uint32_t aux_offset = 0;
  std::uint32_t num_aux = 0;
  std::uint32_t total_bytes = 0;
};
static_assert(sizeof(ArenaHeader) == 88);

/// Element counts of an arena's sections: the input of
/// ProgramArena::Layout.
struct ArenaCounts {
  std::uint64_t channels = 0;
  std::uint64_t buckets = 0;
  std::uint64_t entries = 0;
  std::uint64_t words = 0;
  std::uint64_t string_bytes = 0;
  std::uint64_t aux = 0;
};

class ArenaWriter;

/// A broadcast program in one contiguous, offset-addressed buffer.
///
/// Buckets, index nodes and cross-bucket/cross-channel pointers live in
/// fixed-width pools referenced by 32-bit offsets, so the whole program
/// is built once per (scheme, dataset shape), shared read-only across
/// replications and sweep cells, serialized to disk (broadcast/snapshot.h)
/// and loaded back byte-identically. Builders write it through an
/// ArenaWriter (broadcast/arena_writer.h), which is deterministic byte
/// for byte, and a snapshot round trip returns the same bytes;
/// snapshot_test and the CI snapshot-roundtrip job gate both.
class ProgramArena {
 public:
  static constexpr std::uint32_t kMagic = 0x41505247u;  // "GRPA" on disk
  static constexpr std::uint32_t kFormatVersion = 2;

  /// The section layout of an arena of `counts`: a header whose
  /// counts, 8-aligned section offsets and total_bytes are filled in (the
  /// other fields default). InvalidArgument when any count, offset or the
  /// total passes 2^32 - 1, the widest a 32-bit offset addresses.
  static Result<ArenaHeader> Layout(const ArenaCounts& counts);

  /// Adopts a raw buffer (e.g. loaded from a snapshot) after validating
  /// the header, the 8-alignment of every section offset, and every
  /// section, pool span and string ref against the buffer bounds. A
  /// truncated or corrupted buffer yields a Status, never UB.
  static Result<ProgramArena> FromBytes(std::vector<std::uint8_t> bytes);

  /// This program under a new tag: the same sections up to the aux
  /// section, then `aux`, with the header's kind, fingerprints and aux
  /// count rewritten and the switch cost zeroed. Aux is the last section,
  /// so this is a copy and a header patch.
  ProgramArena Retag(int scheme_kind, std::uint64_t dataset_fingerprint,
                     std::uint64_t params_fingerprint,
                     const std::vector<std::int64_t>& aux) const;

  /// The contiguous buffer. Stable across moves of this arena (the heap
  /// allocation is preserved), so views bound to it and the key views
  /// they hand out stay valid as long as one owner of this arena is
  /// alive.
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  /// HashBytes over the whole buffer; the snapshot header stores it.
  std::uint64_t Checksum() const;

  // --- header accessors -------------------------------------------------
  const ArenaHeader& header() const;
  int scheme_kind() const { return header().scheme_kind; }
  int num_channels() const { return static_cast<int>(header().num_channels); }
  Bytes switch_cost_bytes() const { return header().switch_cost_bytes; }
  std::uint64_t dataset_fingerprint() const {
    return header().dataset_fingerprint;
  }
  std::uint64_t params_fingerprint() const {
    return header().params_fingerprint;
  }

  // --- zero-copy section views (offset arithmetic, no allocation) -------
  const ArenaChannelDesc& channel_desc(int i) const;
  /// Bucket `i` of the whole bucket pool.
  const ArenaBucket& bucket(std::uint32_t i) const;
  std::uint32_t num_buckets() const { return header().num_buckets; }
  const ArenaPointerEntry& entry(std::uint32_t i) const;
  std::uint32_t num_entries() const { return header().num_entries; }
  /// Word `i` of the 64-bit pool (signature words).
  std::uint64_t word(std::uint32_t i) const;
  std::uint32_t num_words() const { return header().num_words; }
  /// The bytes a string ref points at.
  std::string_view str(const ArenaStrRef& ref) const;
  /// Scheme-resolved scalars (replication counts, slot counts, ...) the
  /// restore path needs; see schemes/scheme.cc for the per-scheme layout.
  std::vector<std::int64_t> aux() const;

  /// Re-checks every offset's alignment and every offset, span and ref
  /// against the buffer bounds. FromBytes runs this; exposed for tests
  /// and the inspect tool.
  Status Validate() const;

 private:
  friend class ArenaWriter;

  ProgramArena() = default;

  std::vector<std::uint8_t> bytes_;
};

// The word hash behind the snapshot checksum (ProgramArena::Checksum)
// and the program cache's fingerprints (core/program_cache.h). Words are
// loaded little-endian, as the arena itself assumes.
static_assert(std::endian::native == std::endian::little,
              "the arena and its hash assume a little-endian host");

/// One step of the word hash: state = rotl(state ^ word, 31) * K, K odd.
/// For a fixed word the step is a bijection of the state (xor, rotate and
/// an odd multiply all are); for a fixed state it is injective in the
/// word. A chain of steps over two word streams that differ in one word
/// therefore ends in different states.
inline std::uint64_t HashStep(std::uint64_t state, std::uint64_t word) {
  return std::rotl(state ^ word, 31) * 0x9fb21c651e98df25ull;
}

/// Folds `size` bytes into `state` with HashStep, one little-endian word
/// at a time; a last partial word is zero-padded. For a fixed size, any
/// change to the bytes changes a word, so callers that fold the size
/// first (length prefixes) get a stream no two byte strings share.
std::uint64_t HashFold(std::uint64_t state, const void* data,
                       std::size_t size);

/// 64-bit hash of a byte range at any alignment. Four lanes walk the
/// buffer in 32-byte stripes, one HashStep per word; an accumulator
/// seeded with HashStep(seed, size) folds the remainder (HashFold) and
/// then the four lanes in order, and Mix64 finishes it. Every step is a
/// bijection of its state for a fixed word and injective in the word,
/// so any change confined to one 8-byte word of the buffer (every
/// single-bit flip, every single-byte change) changes the result.
std::uint64_t HashBytes(const void* data, std::size_t size,
                        std::uint64_t seed = 0);

}  // namespace airindex

#endif  // AIRINDEX_BROADCAST_ARENA_H_
