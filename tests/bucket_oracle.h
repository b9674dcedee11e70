// The heap form of a broadcast program and its reference flattening,
// kept beside InflatedChannel as the tests' independent oracle. A
// `Bucket` holds its strings and entry and word lists by value; Flatten
// lays bucket sequences out as an arena the straightforward way: count
// the sections, intern every string by content through a hash map in
// traversal order, then copy each pool into place. Builders write arenas
// through ArenaWriter (broadcast/arena_writer.h) instead, and the tests
// check the two agree byte for byte.
#ifndef AIRINDEX_TESTS_BUCKET_ORACLE_H_
#define AIRINDEX_TESTS_BUCKET_ORACLE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "broadcast/arena.h"
#include "common/result.h"
#include "common/types.h"
#include "schemes/channel_view.h"

namespace airindex {

/// One directory entry of an index bucket; the key bounds view storage
/// the caller keeps alive.
struct PointerEntry {
  std::string_view key_lo;
  std::string_view key_hi;
  Bytes target_phase = kInvalidPhase;
  int target_channel = kSameChannel;
};

/// One bucket, the fields ArenaBucket documents (broadcast/arena.h) held
/// by value.
struct Bucket {
  BucketKind kind = BucketKind::kData;
  Bytes size = 0;
  std::int64_t record_id = -1;
  Bytes next_index_segment_phase = kInvalidPhase;
  int level = -1;
  std::string range_lo;
  std::string range_hi;
  std::vector<PointerEntry> local;
  std::vector<PointerEntry> control;
  std::string last_broadcast_key;
  std::int64_t slot = -1;
  std::int64_t hash_value = -1;
  Bytes shift_phase = kInvalidPhase;
  std::vector<std::uint64_t> signature;
};

/// Flattens each channel's bucket sequence, one broadcast cycle in cycle
/// order, plus the header fields and `aux` into an arena. Strings are
/// interned by content in first-touch order (channels in order, buckets
/// in cycle order, range_lo, range_hi, last_broadcast_key, each local
/// entry's key_lo and key_hi, then each control entry's); the empty
/// string is {0, 0}. InvalidArgument when the program does not fit
/// 32-bit offsets.
inline Result<ProgramArena> Flatten(
    const std::vector<const std::vector<Bucket>*>& channels,
    Bytes switch_cost_bytes, int scheme_kind,
    std::uint64_t dataset_fingerprint, std::uint64_t params_fingerprint,
    const std::vector<std::int64_t>& aux) {
  ArenaCounts counts;
  counts.channels = channels.size();
  counts.aux = aux.size();
  for (const std::vector<Bucket>* channel : channels) {
    counts.buckets += channel->size();
    for (const Bucket& b : *channel) {
      counts.entries += b.local.size() + b.control.size();
      counts.words += b.signature.size();
    }
  }
  if (Result<ArenaHeader> fits = ProgramArena::Layout(counts); !fits.ok()) {
    return fits.status();
  }

  std::vector<ArenaChannelDesc> descs;
  std::vector<ArenaBucket> buckets;
  std::vector<ArenaPointerEntry> entries;
  std::vector<std::uint64_t> words;
  std::string pool;
  std::unordered_map<std::string, ArenaStrRef> interned;
  const auto intern = [&](std::string_view s) {
    if (s.empty()) return ArenaStrRef{0, 0};
    const auto [it, fresh] = interned.try_emplace(
        std::string(s), ArenaStrRef{static_cast<std::uint32_t>(pool.size()),
                                    static_cast<std::uint32_t>(s.size())});
    if (fresh) pool.append(s);
    return it->second;
  };
  const auto add_entries = [&](const std::vector<PointerEntry>& source) {
    const auto first = static_cast<std::uint32_t>(entries.size());
    for (const PointerEntry& e : source) {
      ArenaPointerEntry flat;
      flat.key_lo = intern(e.key_lo);
      flat.key_hi = intern(e.key_hi);
      flat.target_phase = e.target_phase;
      flat.target_channel = e.target_channel;
      entries.push_back(flat);
    }
    return std::pair<std::uint32_t, std::uint32_t>(
        first, static_cast<std::uint32_t>(source.size()));
  };
  for (const std::vector<Bucket>* channel : channels) {
    descs.push_back(ArenaChannelDesc{static_cast<std::uint32_t>(buckets.size()),
                                     static_cast<std::uint32_t>(
                                         channel->size())});
    for (const Bucket& b : *channel) {
      ArenaBucket flat;
      flat.size = b.size;
      flat.record_id = b.record_id;
      flat.next_index_segment_phase = b.next_index_segment_phase;
      flat.slot = b.slot;
      flat.hash_value = b.hash_value;
      flat.shift_phase = b.shift_phase;
      flat.range_lo = intern(b.range_lo);
      flat.range_hi = intern(b.range_hi);
      flat.last_broadcast_key = intern(b.last_broadcast_key);
      std::tie(flat.local_first, flat.local_count) = add_entries(b.local);
      std::tie(flat.control_first, flat.control_count) =
          add_entries(b.control);
      flat.signature_first = static_cast<std::uint32_t>(words.size());
      flat.signature_count = static_cast<std::uint32_t>(b.signature.size());
      words.insert(words.end(), b.signature.begin(), b.signature.end());
      flat.level = b.level;
      flat.kind = static_cast<std::uint8_t>(b.kind);
      buckets.push_back(flat);
    }
  }

  counts.string_bytes = pool.size();
  Result<ArenaHeader> layout = ProgramArena::Layout(counts);
  if (!layout.ok()) return layout.status();
  ArenaHeader header = layout.value();
  header.magic = ProgramArena::kMagic;
  header.format_version = ProgramArena::kFormatVersion;
  header.scheme_kind = scheme_kind;
  header.switch_cost_bytes = switch_cost_bytes;
  header.dataset_fingerprint = dataset_fingerprint;
  header.params_fingerprint = params_fingerprint;

  std::vector<std::uint8_t> bytes(header.total_bytes, 0);
  const auto copy = [&bytes](std::uint32_t offset, const void* data,
                             std::size_t size) {
    if (size != 0) std::memcpy(bytes.data() + offset, data, size);
  };
  copy(0, &header, sizeof(header));
  copy(header.channels_offset, descs.data(),
       descs.size() * sizeof(ArenaChannelDesc));
  copy(header.buckets_offset, buckets.data(),
       buckets.size() * sizeof(ArenaBucket));
  copy(header.entries_offset, entries.data(),
       entries.size() * sizeof(ArenaPointerEntry));
  copy(header.words_offset, words.data(), words.size() * sizeof(std::uint64_t));
  copy(header.strings_offset, pool.data(), pool.size());
  copy(header.aux_offset, aux.data(), aux.size() * sizeof(std::int64_t));
  return ProgramArena::FromBytes(std::move(bytes));
}

/// Flattens one cycle of `buckets` into an untagged arena and binds it:
/// a view over a hand-made program.
inline Result<ArenaChannelView> ViewOfBuckets(
    const std::vector<Bucket>& buckets) {
  Result<ProgramArena> arena = Flatten({&buckets}, 0, -1, 0, 0, {});
  if (!arena.ok()) return arena.status();
  return ArenaChannelView::Bind(
      std::make_shared<const ProgramArena>(std::move(arena).value()));
}

}  // namespace airindex

#endif  // AIRINDEX_TESTS_BUCKET_ORACLE_H_
