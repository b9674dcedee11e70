#include "data/dataset.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

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

// Deterministic pseudo-word for attribute content.
std::string PseudoWord(std::uint64_t h, int width) {
  std::string out(static_cast<std::size_t>(width), 'a');
  for (int i = 0; i < width; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<char>('a' + static_cast<int>(h % 26));
    h = Mix64(h);
  }
  return out;
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
  const std::uint64_t top_code =
      2 * static_cast<std::uint64_t>(config.num_records);
  if (top_code > MaxCode(config.key_width)) {
    return Status::InvalidArgument(
        "key_width too small to encode num_records distinct keys");
  }

  Dataset dataset(config);
  dataset.records_.reserve(static_cast<std::size_t>(config.num_records));
  for (int i = 0; i < config.num_records; ++i) {
    Record record;
    record.id = static_cast<std::uint64_t>(i);
    record.key = EncodeKey(2 * static_cast<std::uint64_t>(i) + 1,
                           config.key_width);
    record.attributes.reserve(
        static_cast<std::size_t>(config.num_attributes));
    for (int a = 0; a < config.num_attributes; ++a) {
      const std::uint64_t h =
          Mix64(config.seed ^ (record.id * 0x100000001b3ULL) ^
                (static_cast<std::uint64_t>(a) << 48));
      record.attributes.push_back(PseudoWord(h, config.attribute_width));
    }
    dataset.records_.push_back(std::move(record));
  }
  dataset.BuildKeyTable();
  dataset.InternAbsentKeys();
  return dataset;
}

Result<Dataset> Dataset::FromRecords(std::vector<Record> records) {
  if (records.empty()) {
    return Status::InvalidArgument("FromRecords needs at least one record");
  }
  const auto by_key = [](const Record& a, const Record& b) {
    return a.key < b.key;
  };
  // One adjacent-pair pass: keys in strictly increasing order (a
  // materialized live dataset) are sorted and unique. Anything else is
  // sorted, then checked for duplicates.
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
  int max_key_width = 0;
  std::size_t max_attributes = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::string& key = records[i].key;
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
    records[i].id = static_cast<std::uint64_t>(i);
    max_key_width = std::max(max_key_width, static_cast<int>(key.size()));
    max_attributes = std::max(max_attributes, records[i].attributes.size());
  }

  DatasetConfig config;
  config.num_records = static_cast<int>(records.size());
  config.key_width = max_key_width;
  config.num_attributes = static_cast<int>(max_attributes);
  Dataset dataset(config);
  dataset.records_ = std::move(records);
  dataset.synthetic_ = false;
  dataset.BuildKeyTable();
  dataset.InternAbsentKeys();
  return dataset;
}

void Dataset::BuildKeyTable() {
  const std::size_t count = records_.size();
  key_slots_.assign(std::bit_ceil(2 * count), 0);
  position_mask_ =
      (std::uint32_t{1} << static_cast<int>(std::bit_width(count))) - 1;
  const std::size_t mask = key_slots_.size() - 1;
  for (std::size_t position = 0; position < count; ++position) {
    const std::uint64_t hash = KeyHash(records_[position].key);
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
    const auto position = static_cast<int>(entry & position_mask_) - 1;
    if (records_[static_cast<std::size_t>(position)].key == key) {
      return position;
    }
  }
}

std::vector<int> Dataset::FindByAttribute(std::string_view value) const {
  std::vector<int> matches;
  for (const Record& record : records_) {
    for (const std::string& attribute : record.attributes) {
      if (attribute == value) {
        matches.push_back(static_cast<int>(record.id));
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
  return records_[static_cast<std::size_t>(size() - 1)].key + "!";
}

void Dataset::InternAbsentKeys() {
  const std::size_t count = records_.size() + 1;
  absent_offsets_.reserve(count + 1);
  absent_offsets_.push_back(0);
  if (synthetic_) {
    // The even codes 0, 2, ..., 2·size(), each key_width wide (Generate
    // checked that the width encodes them).
    const auto width = static_cast<std::size_t>(config_.key_width);
    absent_keys_.resize(count * width);
    for (std::size_t i = 0; i < count; ++i) {
      WriteKey(2 * i, config_.key_width, absent_keys_.data() + i * width);
      absent_offsets_.push_back((i + 1) * width);
    }
    return;
  }
  // "!", then each key followed by '!'.
  std::size_t total = 1;
  for (const Record& record : records_) total += record.key.size() + 1;
  absent_keys_.reserve(total);
  absent_keys_.push_back('!');
  absent_offsets_.push_back(absent_keys_.size());
  for (const Record& record : records_) {
    absent_keys_.insert(absent_keys_.end(), record.key.begin(),
                        record.key.end());
    absent_keys_.push_back('!');
    absent_offsets_.push_back(absent_keys_.size());
  }
}

}  // namespace airindex
