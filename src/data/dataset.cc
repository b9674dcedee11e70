#include "data/dataset.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "des/random.h"

namespace airindex {

namespace {

// Largest code representable in `width` base-26 characters, capped so the
// arithmetic below cannot overflow.
std::uint64_t MaxCode(int width) {
  std::uint64_t max = 1;
  for (int i = 0; i < width && i < 13; ++i) max *= 26;
  return max - 1;
}

// Writes the deterministic pseudo-word of `h` to out[0, width): one
// letter per Mix64 step.
void WritePseudoWord(std::uint64_t h, int width, char* out) {
  for (int i = 0; i < width; ++i) {
    out[i] = static_cast<char>('a' + static_cast<int>(h % 26));
    h = Mix64(h);
  }
}

// Writes EncodeKey(code, width) to out[0, width); the caller has checked
// that the width can represent the code.
void WriteKey(std::uint64_t code, int width, char* out) {
  std::fill(out, out + width, 'a');
  for (int i = width - 1; i >= 0 && code > 0; --i) {
    out[i] = static_cast<char>('a' + static_cast<int>(code % 26));
    code /= 26;
  }
}

// The key table's hash, a word at a time: each 8-byte word folds in as
// rotl(state ^ word, 31) · K, and Mix64 finishes. The last word is the
// key's last 8 bytes (overlapping the one before it), or its bytes
// zero-padded when it is shorter. The state starts at the length, so
// keys that differ only in trailing zero bytes hash apart.
std::uint64_t KeyHash(std::string_view key) {
  constexpr std::uint64_t kMultiplier = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = key.size();
  std::size_t at = 0;
  for (; at + 8 < key.size(); at += 8) {
    std::uint64_t word;
    std::memcpy(&word, key.data() + at, 8);
    h = std::rotl(h ^ word, 31) * kMultiplier;
  }
  std::uint64_t last = 0;
  if (key.size() >= 8) {
    std::memcpy(&last, key.data() + key.size() - 8, 8);
  } else if (!key.empty()) {
    std::memcpy(&last, key.data(), key.size());
  }
  return Mix64(h ^ last);
}

// The hash bits a slot keeps above its position bits: the hash's top
// bits, disjoint from the low bits that pick the home slot.
std::uint32_t SlotTag(std::uint64_t hash, std::uint32_t position_mask) {
  return static_cast<std::uint32_t>(hash >> 32) & ~position_mask;
}

// The pools' 32-bit bound: every offset is a std::uint32_t, so no pool
// may pass 2^32 - 1 bytes and no offset table 2^32 - 1 values. The
// absent keys outsize the keys (one key more for a generated dataset;
// every key plus '!', and "!", for an external one), so the key bound is
// checked on them. Generate and FromRecords check their totals before
// writing, so an oversized dataset fails before its pools are allocated;
// Writer::Finish checks what was written.
Status CheckPoolSizes(std::uint64_t absent_key_bytes, std::uint64_t attributes,
                      std::uint64_t attribute_bytes) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
  if (absent_key_bytes > kMax || attributes > kMax ||
      attribute_bytes > kMax) {
    return Status::InvalidArgument(
        "dataset pools exceed 32-bit offsets (4 GiB of key or attribute "
        "bytes, or 2^32 attributes)");
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeKey(std::uint64_t code, int width) {
  if (width <= 0 || code > MaxCode(width)) return std::string();
  std::string out(static_cast<std::size_t>(width), '\0');
  WriteKey(code, width, out.data());
  return out;
}

Result<Dataset> Dataset::Generate(const DatasetConfig& config) {
  if (config.num_records <= 0) {
    return Status::InvalidArgument("num_records must be positive");
  }
  if (config.key_width <= 0) {
    return Status::InvalidArgument("key_width must be positive");
  }
  if (config.num_attributes < 0 || config.attribute_width <= 0) {
    return Status::InvalidArgument("bad attribute configuration");
  }
  // Present keys use odd codes 1..2*Nr-1; absent keys the even codes.
  const auto records = static_cast<std::uint64_t>(config.num_records);
  if (2 * records > MaxCode(config.key_width)) {
    return Status::InvalidArgument(
        "key_width too small to encode num_records distinct keys");
  }
  const auto key_width = static_cast<std::uint64_t>(config.key_width);
  const auto attribute_width =
      static_cast<std::uint64_t>(config.attribute_width);
  // Every factor is below 2^31, so no product wraps: attribute bytes are
  // counted over at most 2^32 attributes, and more fail on their count.
  const std::uint64_t attributes =
      records * static_cast<std::uint64_t>(config.num_attributes);
  const Status sizes = CheckPoolSizes(
      (records + 1) * key_width, attributes,
      std::min<std::uint64_t>(attributes, std::uint64_t{1} << 32) *
          attribute_width);
  if (!sizes.ok()) return sizes;

  Writer writer(config);
  writer.Reserve(records, records * key_width, attributes,
                 attributes * attribute_width);
  for (std::uint64_t id = 0; id < records; ++id) {
    WriteKey(2 * id + 1, config.key_width,
             writer.AddRecord(key_width).data());
    for (int a = 0; a < config.num_attributes; ++a) {
      const std::uint64_t h =
          Mix64(config.seed ^ (id * 0x100000001b3ULL) ^
                (static_cast<std::uint64_t>(a) << 48));
      WritePseudoWord(h, config.attribute_width,
                      writer.AddAttribute(static_cast<std::size_t>(
                                              config.attribute_width))
                          .data());
    }
  }
  return std::move(writer).Finish();
}

Result<Dataset> Dataset::FromRecords(std::vector<Record> records) {
  if (records.empty()) {
    return Status::InvalidArgument("FromRecords needs at least one record");
  }
  const auto by_key = [](const Record& a, const Record& b) {
    return a.key < b.key;
  };
  // One adjacent-pair pass: keys in strictly increasing order are sorted
  // and unique. Anything else is sorted, then checked for duplicates.
  const auto unordered =
      std::adjacent_find(records.begin(), records.end(),
                         [](const Record& a, const Record& b) {
                           return !(a.key < b.key);
                         });
  if (unordered != records.end()) {
    std::sort(records.begin(), records.end(), by_key);
    const auto duplicate = std::adjacent_find(
        records.begin(), records.end(),
        [](const Record& a, const Record& b) { return a.key == b.key; });
    if (duplicate != records.end()) {
      return Status::InvalidArgument("duplicate key: " + duplicate->key);
    }
  }
  std::uint64_t key_bytes = 0;
  std::uint64_t attributes = 0;
  std::uint64_t attribute_bytes = 0;
  for (const Record& record : records) {
    const std::string& key = record.key;
    if (key.empty()) {
      return Status::InvalidArgument("record with empty key");
    }
    // Bytes compare unsigned, as std::string orders keys: 0x80-0xFF sort
    // above '!' and are ordinary key bytes.
    bool reserved = false;
    for (const char c : key) reserved |= static_cast<unsigned char>(c) <= '!';
    if (reserved) {
      return Status::InvalidArgument(
          "key contains a character at or below '!': " + key);
    }
    key_bytes += key.size();
    attributes += record.attributes.size();
    for (const std::string& attribute : record.attributes) {
      attribute_bytes += attribute.size();
    }
  }
  // "!", then each key followed by '!'.
  const Status sizes = CheckPoolSizes(key_bytes + records.size() + 1,
                                      attributes, attribute_bytes);
  if (!sizes.ok()) return sizes;

  Writer writer;
  writer.Reserve(records.size(), key_bytes, attributes, attribute_bytes);
  for (const Record& record : records) {
    std::ranges::copy(record.key, writer.AddRecord(record.key.size()).begin());
    for (const std::string& attribute : record.attributes) {
      std::ranges::copy(attribute,
                        writer.AddAttribute(attribute.size()).begin());
    }
  }
  return std::move(writer).Finish();
}

void Dataset::Writer::Reserve(std::size_t records, std::size_t key_bytes,
                              std::size_t attributes,
                              std::size_t attribute_bytes) {
  dataset_.keys_.reserve(key_bytes);
  dataset_.key_offsets_.reserve(records + 1);
  dataset_.record_attributes_.reserve(records + 1);
  dataset_.attributes_.reserve(attribute_bytes);
  dataset_.attribute_offsets_.reserve(attributes + 1);
}

std::span<char> Dataset::Writer::AddRecord(std::size_t key_width) {
  std::vector<char>& keys = dataset_.keys_;
  const std::size_t at = keys.size();
  keys.resize(at + key_width);
  dataset_.key_offsets_.push_back(static_cast<std::uint32_t>(keys.size()));
  const std::uint32_t no_attributes = dataset_.record_attributes_.back();
  dataset_.record_attributes_.push_back(no_attributes);
  return std::span<char>(keys.data() + at, key_width);
}

std::span<char> Dataset::Writer::AddAttribute(std::size_t width) {
  std::vector<char>& pool = dataset_.attributes_;
  const std::size_t at = pool.size();
  pool.resize(at + width);
  dataset_.attribute_offsets_.push_back(
      static_cast<std::uint32_t>(pool.size()));
  dataset_.record_attributes_.back() =
      static_cast<std::uint32_t>(dataset_.attribute_offsets_.size() - 1);
  return std::span<char>(pool.data() + at, width);
}

Result<Dataset> Dataset::Writer::Finish() && {
  Dataset& dataset = dataset_;
  const auto count = static_cast<std::uint64_t>(dataset.size());
  if (count == 0) {
    return Status::InvalidArgument("a dataset needs at least one record");
  }
  // An offset that wrapped is caught here, by the sizes it wrapped at.
  const Status sizes = CheckPoolSizes(
      dataset.keys_.size() +
          (dataset.synthetic_
               ? static_cast<std::uint64_t>(dataset.config_.key_width)
               : count + 1),
      dataset.attribute_offsets_.size() - 1, dataset.attributes_.size());
  if (!sizes.ok()) return sizes;
  dataset.keys_.shrink_to_fit();
  dataset.key_offsets_.shrink_to_fit();
  dataset.attributes_.shrink_to_fit();
  dataset.attribute_offsets_.shrink_to_fit();
  dataset.record_attributes_.shrink_to_fit();
  if (!dataset.synthetic_) {
    DatasetConfig& config = dataset.config_;
    config.num_records = dataset.size();
    config.key_width = 0;
    config.num_attributes = 0;
    for (int i = 0; i < dataset.size(); ++i) {
      const RecordView record = dataset.record(i);
      config.key_width =
          std::max(config.key_width, static_cast<int>(record.key.size()));
      config.num_attributes = std::max(
          config.num_attributes, static_cast<int>(record.attributes.size()));
    }
  }
  dataset.BuildKeyTable();
  dataset.InternAbsentKeys();
  return std::move(dataset);
}

void Dataset::BuildKeyTable() {
  const auto count = static_cast<std::size_t>(size());
  key_slots_.assign(std::bit_ceil(2 * count), 0);
  position_mask_ =
      (std::uint32_t{1} << static_cast<int>(std::bit_width(count))) - 1;
  const std::size_t mask = key_slots_.size() - 1;
  for (std::size_t position = 0; position < count; ++position) {
    const std::uint64_t hash = KeyHash(KeyAt(position));
    std::size_t slot = hash & mask;
    while (key_slots_[slot] != 0) slot = (slot + 1) & mask;
    key_slots_[slot] = SlotTag(hash, position_mask_) |
                       static_cast<std::uint32_t>(position + 1);
  }
}

int Dataset::FindIndex(std::string_view key) const {
  const std::uint64_t hash = KeyHash(key);
  const std::uint32_t tag = SlotTag(hash, position_mask_);
  const std::size_t mask = key_slots_.size() - 1;
  for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const std::uint32_t entry = key_slots_[slot];
    if (entry == 0) return -1;
    if ((entry & ~position_mask_) != tag) continue;
    const std::size_t position = (entry & position_mask_) - 1;
    if (KeyAt(position) == key) return static_cast<int>(position);
  }
}

std::vector<int> Dataset::FindByAttribute(std::string_view value) const {
  std::vector<int> matches;
  for (int i = 0; i < size(); ++i) {
    for (const std::string_view attribute : record(i).attributes) {
      if (attribute == value) {
        matches.push_back(i);
        break;
      }
    }
  }
  return matches;
}

std::string Dataset::AbsentKey(int i) const {
  if (i >= 0 && i <= size()) return std::string(absent_key(i));
  if (synthetic_) {
    return EncodeKey(2 * static_cast<std::uint64_t>(i), config_.key_width);
  }
  // '!' sorts below every allowed key character, so key[i-1] + "!" falls
  // strictly between key[i-1] and key[i]; "!" alone sorts below key[0].
  if (i <= 0) return "!";
  return std::string(max_key()) + "!";
}

void Dataset::InternAbsentKeys() {
  const auto count = static_cast<std::size_t>(size()) + 1;
  absent_offsets_.reserve(count + 1);
  absent_offsets_.push_back(0);
  if (synthetic_) {
    // The even codes 0, 2, ..., 2·size(), each key_width wide (Generate
    // checked that the width encodes them).
    const auto width = static_cast<std::size_t>(config_.key_width);
    absent_keys_.resize(count * width);
    for (std::size_t i = 0; i < count; ++i) {
      WriteKey(2 * i, config_.key_width, absent_keys_.data() + i * width);
      absent_offsets_.push_back(static_cast<std::uint32_t>((i + 1) * width));
    }
    return;
  }
  // "!", then each key followed by '!'.
  absent_keys_.reserve(keys_.size() + count);
  absent_keys_.push_back('!');
  absent_offsets_.push_back(1);
  for (std::size_t i = 0; i + 1 < count; ++i) {
    const std::string_view key = KeyAt(i);
    absent_keys_.insert(absent_keys_.end(), key.begin(), key.end());
    absent_keys_.push_back('!');
    absent_offsets_.push_back(static_cast<std::uint32_t>(absent_keys_.size()));
  }
}

}  // namespace airindex
