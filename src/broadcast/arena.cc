#include "broadcast/arena.h"

#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

namespace airindex {

namespace {

constexpr std::size_t kAlign = 8;

std::size_t AlignUp(std::size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

/// Copies `values` to `to`. An empty vector's data() may be null, which
/// memcpy must not be given even for a zero-byte copy.
template <typename T>
void CopySpan(std::uint8_t* to, const std::vector<T>& values) {
  if (values.empty()) return;
  std::memcpy(to, values.data(), values.size() * sizeof(T));
}

/// Deterministic string interner: first-touch append order, duplicates
/// collapse to the first occurrence. The empty string is always {0, 0}.
/// The table is keyed on the callers' own views (bucket strings and the
/// dataset keys pointer entries view), which outlive the interner; no key
/// points into the pool, which moves as it grows.
class StringPool {
 public:
  /// Sizes the table for `lookups` distinct strings, the most there can
  /// be, so it never rehashes.
  explicit StringPool(std::size_t lookups) { interned_.reserve(lookups); }

  ArenaStrRef Intern(std::string_view s) {
    if (s.empty()) return ArenaStrRef{0, 0};
    const auto [it, fresh] = interned_.try_emplace(
        s, ArenaStrRef{static_cast<std::uint32_t>(pool_.size()),
                       static_cast<std::uint32_t>(s.size())});
    if (fresh) pool_.append(s);
    return it->second;
  }

  const std::string& pool() const { return pool_; }

 private:
  std::string pool_;
  std::unordered_map<std::string_view, ArenaStrRef> interned_;
};

}  // namespace

std::uint64_t Fnv1a64(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

Result<ArenaHeader> ProgramArena::Layout(const ArenaCounts& counts) {
  constexpr std::uint64_t kMaxBytes = std::numeric_limits<std::uint32_t>::max();
  // Every element is at least one byte, so a count past 2^32 - 1 cannot
  // fit; bounding the counts first also keeps the sums below 2^64.
  for (const std::uint64_t count :
       {counts.channels, counts.buckets, counts.entries, counts.words,
        counts.string_bytes, counts.aux}) {
    if (count > kMaxBytes) {
      return Status::InvalidArgument(
          "arena: a section of " + std::to_string(count) +
          " elements does not fit 32-bit offsets");
    }
  }
  std::uint64_t at = sizeof(ArenaHeader);
  const auto place = [&at](std::uint64_t count, std::uint64_t unit) {
    const std::uint64_t offset = at;
    at = AlignUp(at + count * unit);
    return offset;
  };
  const std::uint64_t channels =
      place(counts.channels, sizeof(ArenaChannelDesc));
  const std::uint64_t buckets = place(counts.buckets, sizeof(ArenaBucket));
  const std::uint64_t entries =
      place(counts.entries, sizeof(ArenaPointerEntry));
  const std::uint64_t words = place(counts.words, sizeof(std::uint64_t));
  const std::uint64_t strings = place(counts.string_bytes, 1);
  const std::uint64_t aux = place(counts.aux, sizeof(std::int64_t));
  // Every offset, count and span lies below the total, so one bound on
  // the total makes all the narrowing below exact.
  if (at > kMaxBytes) {
    return Status::InvalidArgument(
        "arena: a program of " + std::to_string(at) +
        " bytes does not fit 32-bit offsets");
  }
  ArenaHeader header;
  header.num_channels = static_cast<std::uint32_t>(counts.channels);
  header.channels_offset = static_cast<std::uint32_t>(channels);
  header.buckets_offset = static_cast<std::uint32_t>(buckets);
  header.num_buckets = static_cast<std::uint32_t>(counts.buckets);
  header.entries_offset = static_cast<std::uint32_t>(entries);
  header.num_entries = static_cast<std::uint32_t>(counts.entries);
  header.words_offset = static_cast<std::uint32_t>(words);
  header.num_words = static_cast<std::uint32_t>(counts.words);
  header.strings_offset = static_cast<std::uint32_t>(strings);
  header.string_pool_bytes = static_cast<std::uint32_t>(counts.string_bytes);
  header.aux_offset = static_cast<std::uint32_t>(aux);
  header.num_aux = static_cast<std::uint32_t>(counts.aux);
  header.total_bytes = static_cast<std::uint32_t>(at);
  return header;
}

Result<ProgramArena> ProgramArena::Flatten(
    const std::vector<const std::vector<Bucket>*>& channels,
    Bytes switch_cost_bytes, int scheme_kind,
    std::uint64_t dataset_fingerprint, std::uint64_t params_fingerprint,
    const std::vector<std::int64_t>& aux) {
  // Pass 1: count every section but the string pool, whose deduplicated
  // size is known only once it is filled, and reject a program past
  // 32-bit offsets before filling anything. `lookups` bounds the distinct
  // strings: the non-empty bucket strings plus two keys per entry.
  ArenaCounts counts;
  counts.channels = channels.size();
  counts.aux = aux.size();
  std::uint64_t lookups = 0;
  for (const std::vector<Bucket>* channel : channels) {
    counts.buckets += channel->size();
    for (const Bucket& b : *channel) {
      counts.entries += b.local.size() + b.control.size();
      counts.words += b.signature.size();
      lookups += (b.range_lo.empty() ? 0 : 1) + (b.range_hi.empty() ? 0 : 1) +
                 (b.last_broadcast_key.empty() ? 0 : 1);
    }
  }
  lookups += 2 * counts.entries;
  if (Result<ArenaHeader> fits = Layout(counts); !fits.ok()) {
    return fits.status();
  }

  // Pass 2: fill the pools, each sized once (fixed traversal order:
  // channels in order, buckets in cycle order, local entries before
  // control entries — the same buckets always give the same bytes). The
  // pre-check bounds every index narrowed here.
  std::vector<ArenaChannelDesc> descs;
  descs.reserve(channels.size());
  std::vector<ArenaBucket> buckets;
  buckets.reserve(counts.buckets);
  std::vector<ArenaPointerEntry> entries;
  entries.reserve(counts.entries);
  std::vector<std::uint64_t> words;
  words.reserve(counts.words);
  StringPool strings(lookups);

  const auto intern_entries =
      [&](const std::vector<PointerEntry>& source) -> std::pair<std::uint32_t,
                                                                std::uint32_t> {
    const auto first = static_cast<std::uint32_t>(entries.size());
    for (const PointerEntry& e : source) {
      ArenaPointerEntry flat;
      flat.key_lo = strings.Intern(e.key_lo);
      flat.key_hi = strings.Intern(e.key_hi);
      flat.target_phase = e.target_phase;
      flat.target_channel = e.target_channel;
      entries.push_back(flat);
    }
    return {first, static_cast<std::uint32_t>(source.size())};
  };

  for (const std::vector<Bucket>* channel : channels) {
    ArenaChannelDesc desc;
    desc.first_bucket = static_cast<std::uint32_t>(buckets.size());
    desc.bucket_count = static_cast<std::uint32_t>(channel->size());
    descs.push_back(desc);
    for (const Bucket& b : *channel) {
      ArenaBucket flat;
      flat.size = b.size;
      flat.record_id = b.record_id;
      flat.next_index_segment_phase = b.next_index_segment_phase;
      flat.slot = b.slot;
      flat.hash_value = b.hash_value;
      flat.shift_phase = b.shift_phase;
      flat.range_lo = strings.Intern(b.range_lo);
      flat.range_hi = strings.Intern(b.range_hi);
      flat.last_broadcast_key = strings.Intern(b.last_broadcast_key);
      std::tie(flat.local_first, flat.local_count) = intern_entries(b.local);
      std::tie(flat.control_first, flat.control_count) =
          intern_entries(b.control);
      flat.signature_first = static_cast<std::uint32_t>(words.size());
      flat.signature_count = static_cast<std::uint32_t>(b.signature.size());
      words.insert(words.end(), b.signature.begin(), b.signature.end());
      flat.level = b.level;
      flat.kind = static_cast<std::uint8_t>(b.kind);
      buckets.push_back(flat);
    }
  }

  // Pass 3: lay the sections out in one buffer.
  counts.string_bytes = strings.pool().size();
  Result<ArenaHeader> layout = Layout(counts);
  if (!layout.ok()) return layout.status();
  ArenaHeader header = layout.value();
  header.magic = kMagic;
  header.format_version = kFormatVersion;
  header.scheme_kind = scheme_kind;
  header.switch_cost_bytes = switch_cost_bytes;
  header.dataset_fingerprint = dataset_fingerprint;
  header.params_fingerprint = params_fingerprint;

  ProgramArena arena;
  // Alignment pads stay zero — determinism.
  arena.bytes_.assign(header.total_bytes, 0);
  std::uint8_t* base = arena.bytes_.data();
  std::memcpy(base, &header, sizeof(header));
  CopySpan(base + header.channels_offset, descs);
  CopySpan(base + header.buckets_offset, buckets);
  CopySpan(base + header.entries_offset, entries);
  CopySpan(base + header.words_offset, words);
  std::memcpy(base + header.strings_offset, strings.pool().data(),
              strings.pool().size());
  CopySpan(base + header.aux_offset, aux);
  return arena;
}

ProgramArena ProgramArena::Retag(int scheme_kind,
                                 std::uint64_t dataset_fingerprint,
                                 std::uint64_t params_fingerprint,
                                 const std::vector<std::int64_t>& aux) const {
  ArenaHeader header = this->header();
  header.scheme_kind = scheme_kind;
  header.switch_cost_bytes = 0;
  header.dataset_fingerprint = dataset_fingerprint;
  header.params_fingerprint = params_fingerprint;
  header.num_aux = static_cast<std::uint32_t>(aux.size());
  header.total_bytes = static_cast<std::uint32_t>(
      AlignUp(header.aux_offset + aux.size() * sizeof(std::int64_t)));

  ProgramArena arena;
  arena.bytes_.reserve(header.total_bytes);
  arena.bytes_.assign(bytes_.begin(), bytes_.begin() + header.aux_offset);
  arena.bytes_.resize(header.total_bytes, 0);
  std::memcpy(arena.bytes_.data(), &header, sizeof(header));
  CopySpan(arena.bytes_.data() + header.aux_offset, aux);
  return arena;
}

Result<ProgramArena> ProgramArena::FromBytes(std::vector<std::uint8_t> bytes) {
  ProgramArena arena;
  arena.bytes_ = std::move(bytes);
  if (Status status = arena.Validate(); !status.ok()) return status;
  return arena;
}

std::uint64_t ProgramArena::Checksum() const {
  return Fnv1a64(bytes_.data(), bytes_.size());
}

const ArenaHeader& ProgramArena::header() const {
  return *reinterpret_cast<const ArenaHeader*>(bytes_.data());
}

const ArenaChannelDesc& ProgramArena::channel_desc(int i) const {
  return *reinterpret_cast<const ArenaChannelDesc*>(
      bytes_.data() + header().channels_offset +
      static_cast<std::size_t>(i) * sizeof(ArenaChannelDesc));
}

const ArenaBucket& ProgramArena::bucket(std::uint32_t i) const {
  return *reinterpret_cast<const ArenaBucket*>(
      bytes_.data() + header().buckets_offset +
      static_cast<std::size_t>(i) * sizeof(ArenaBucket));
}

const ArenaPointerEntry& ProgramArena::entry(std::uint32_t i) const {
  return *reinterpret_cast<const ArenaPointerEntry*>(
      bytes_.data() + header().entries_offset +
      static_cast<std::size_t>(i) * sizeof(ArenaPointerEntry));
}

std::uint64_t ProgramArena::word(std::uint32_t i) const {
  std::uint64_t value;
  std::memcpy(&value,
              bytes_.data() + header().words_offset +
                  static_cast<std::size_t>(i) * sizeof(std::uint64_t),
              sizeof(value));
  return value;
}

std::string_view ProgramArena::str(const ArenaStrRef& ref) const {
  return std::string_view(
      reinterpret_cast<const char*>(bytes_.data() + header().strings_offset +
                                    ref.offset),
      ref.length);
}

std::vector<std::int64_t> ProgramArena::aux() const {
  std::vector<std::int64_t> values(header().num_aux);
  if (!values.empty()) {
    std::memcpy(values.data(), bytes_.data() + header().aux_offset,
                values.size() * sizeof(std::int64_t));
  }
  return values;
}

Status ProgramArena::Validate() const {
  if (bytes_.size() < sizeof(ArenaHeader)) {
    return Status::InvalidArgument("arena: buffer shorter than header");
  }
  const ArenaHeader& h = header();
  if (h.magic != kMagic) {
    return Status::InvalidArgument("arena: bad magic");
  }
  if (h.format_version != kFormatVersion) {
    return Status::InvalidArgument(
        "arena: format version " + std::to_string(h.format_version) +
        " unsupported (want " + std::to_string(kFormatVersion) + ")");
  }
  if (h.total_bytes != bytes_.size()) {
    return Status::InvalidArgument(
        "arena: header claims " + std::to_string(h.total_bytes) +
        " bytes, buffer has " + std::to_string(bytes_.size()));
  }
  // Sections are bound through typed references (bucket(), entry(),
  // channel_desc()), so an offset off the 8-byte grid Flatten writes is
  // as hostile as one out of bounds. Aux is the last section, as Flatten
  // lays it out and Retag relies on.
  const auto section_ok = [](std::uint64_t offset, std::uint64_t count,
                             std::uint64_t unit, std::uint64_t end) {
    return offset % kAlign == 0 && offset <= end &&
           count * unit <= end - offset;
  };
  if (!section_ok(h.aux_offset, h.num_aux, sizeof(std::int64_t),
                  bytes_.size()) ||
      !section_ok(h.channels_offset, h.num_channels, sizeof(ArenaChannelDesc),
                  h.aux_offset) ||
      !section_ok(h.buckets_offset, h.num_buckets, sizeof(ArenaBucket),
                  h.aux_offset) ||
      !section_ok(h.entries_offset, h.num_entries, sizeof(ArenaPointerEntry),
                  h.aux_offset) ||
      !section_ok(h.words_offset, h.num_words, sizeof(std::uint64_t),
                  h.aux_offset) ||
      !section_ok(h.strings_offset, h.string_pool_bytes, 1, h.aux_offset)) {
    return Status::InvalidArgument(
        "arena: section misaligned, out of buffer bounds or past aux");
  }
  const auto str_ok = [&](const ArenaStrRef& ref) {
    return ref.offset <= h.string_pool_bytes &&
           ref.length <= h.string_pool_bytes - ref.offset;
  };
  const auto span_ok = [](std::uint32_t first, std::uint32_t count,
                          std::uint32_t total) {
    return first <= total && count <= total - first;
  };
  for (std::uint32_t c = 0; c < h.num_channels; ++c) {
    const ArenaChannelDesc& desc = channel_desc(static_cast<int>(c));
    if (!span_ok(desc.first_bucket, desc.bucket_count, h.num_buckets)) {
      return Status::InvalidArgument("arena: channel bucket span out of "
                                     "bounds");
    }
  }
  for (std::uint32_t i = 0; i < h.num_buckets; ++i) {
    const ArenaBucket& b = bucket(i);
    if (b.kind > static_cast<std::uint8_t>(BucketKind::kSignature)) {
      return Status::InvalidArgument("arena: bucket with unknown kind");
    }
    if (!str_ok(b.range_lo) || !str_ok(b.range_hi) ||
        !str_ok(b.last_broadcast_key)) {
      return Status::InvalidArgument("arena: bucket string ref out of pool");
    }
    if (!span_ok(b.local_first, b.local_count, h.num_entries) ||
        !span_ok(b.control_first, b.control_count, h.num_entries)) {
      return Status::InvalidArgument("arena: bucket entry span out of pool");
    }
    if (!span_ok(b.signature_first, b.signature_count, h.num_words)) {
      return Status::InvalidArgument("arena: bucket word span out of pool");
    }
  }
  for (std::uint32_t i = 0; i < h.num_entries; ++i) {
    const ArenaPointerEntry& e = entry(i);
    if (!str_ok(e.key_lo) || !str_ok(e.key_hi)) {
      return Status::InvalidArgument("arena: pointer-entry key ref out of "
                                     "pool");
    }
  }
  return Status::Ok();
}

}  // namespace airindex
