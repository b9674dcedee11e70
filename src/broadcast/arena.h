// Layer: 3 (broadcast) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_BROADCAST_ARENA_H_
#define AIRINDEX_BROADCAST_ARENA_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "broadcast/bucket.h"

namespace airindex {

/// The arena's on-wire structures. Every field is fixed-width and every
/// cross-structure reference is a 32-bit offset (or index) into one of
/// the arena's pools, so a flattened program is a single relocatable
/// buffer: it can be memcpy'd, written to disk and loaded back anywhere
/// without pointer fixups. All structures are padded explicitly to
/// multiples of 8 bytes and the pads are zeroed, which is what makes
/// Flatten deterministic byte-for-byte (the CI snapshot-roundtrip gate
/// depends on it).
///
/// A "string ref" is (offset, length) into the arena's string pool; an
/// "entry ref" is (first, count) into the pointer-entry pool; a "word
/// ref" is (first, count) into the 64-bit word pool.
struct ArenaStrRef {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
};
static_assert(sizeof(ArenaStrRef) == 8);

/// Flattened PointerEntry: the key views become string-pool refs.
struct ArenaPointerEntry {
  ArenaStrRef key_lo;
  ArenaStrRef key_hi;
  std::int64_t target_phase = kInvalidPhase;
  std::int32_t target_channel = kSameChannel;
  std::uint32_t pad = 0;
};
static_assert(sizeof(ArenaPointerEntry) == 32);

/// Flattened Bucket: vectors become pool spans, strings become refs.
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

/// Element counts of a flattened program's sections: the input of
/// ProgramArena::Layout.
struct ArenaCounts {
  std::uint64_t channels = 0;
  std::uint64_t buckets = 0;
  std::uint64_t entries = 0;
  std::uint64_t words = 0;
  std::uint64_t string_bytes = 0;
  std::uint64_t aux = 0;
};

/// A broadcast program flattened into one contiguous, offset-addressed
/// buffer.
///
/// Buckets, index nodes and cross-bucket/cross-channel pointers live in
/// fixed-width pools referenced by 32-bit offsets, so the whole program
/// is built once per (scheme, dataset shape), shared read-only across
/// replications and sweep cells, serialized to disk (broadcast/snapshot.h)
/// and loaded back byte-identically. Flatten is deterministic byte for
/// byte and a snapshot round trip returns the same bytes; snapshot_test
/// and the CI snapshot-roundtrip job gate both.
class ProgramArena {
 public:
  static constexpr std::uint32_t kMagic = 0x41505247u;  // "GRPA" on disk
  static constexpr std::uint32_t kFormatVersion = 1;

  /// Flattens each channel's bucket sequence, one broadcast cycle in
  /// cycle order, plus scheme metadata into an arena. `aux` carries
  /// scheme-resolved scalars (replication counts, slot counts, ...) the
  /// restore path needs; see schemes/scheme.cc for the per-scheme layout.
  /// Sizes and pointer phases are copied as given: binding the arena
  /// (schemes/channel_view.h) is what checks them. Strings are interned
  /// by content through views of the buckets' own strings and of the keys
  /// their pointer entries view, so those must stay alive for the call.
  /// InvalidArgument when the program does not fit 32-bit offsets (see
  /// Layout); nothing is narrowed silently.
  static Result<ProgramArena> Flatten(
      const std::vector<const std::vector<Bucket>*>& channels,
      Bytes switch_cost_bytes, int scheme_kind,
      std::uint64_t dataset_fingerprint, std::uint64_t params_fingerprint,
      const std::vector<std::int64_t>& aux);

  /// The section layout Flatten writes for `counts`: a header whose
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
  /// count rewritten and the switch cost zeroed. Because aux is the last
  /// section, the result is byte-identical to Flatten of the bucket
  /// sequences this arena was flattened from with the same arguments — a
  /// copy and a header patch, no re-interning.
  ProgramArena Retag(int scheme_kind, std::uint64_t dataset_fingerprint,
                     std::uint64_t params_fingerprint,
                     const std::vector<std::int64_t>& aux) const;

  /// The contiguous buffer. Stable across moves of this arena (the heap
  /// allocation is preserved), so views bound to it and the key views
  /// they hand out stay valid as long as one owner of this arena is
  /// alive.
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  /// FNV-1a 64 over the whole buffer; the snapshot header stores it.
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
  /// Scheme-resolved scalars stored at Flatten time.
  std::vector<std::int64_t> aux() const;

  /// Re-checks every offset's alignment and every offset, span and ref
  /// against the buffer bounds. FromBytes runs this; exposed for tests
  /// and the inspect tool.
  Status Validate() const;

 private:
  ProgramArena() = default;

  std::vector<std::uint8_t> bytes_;
};

/// FNV-1a 64-bit over a byte range (the arena/snapshot checksum; also
/// used for the dataset and params fingerprints in core/program_cache.h).
std::uint64_t Fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

}  // namespace airindex

#endif  // AIRINDEX_BROADCAST_ARENA_H_
