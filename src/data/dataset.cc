#include "data/dataset.h"

#include <algorithm>
#include <cmath>

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

}  // namespace

std::string EncodeKey(std::uint64_t code, int width) {
  if (width <= 0 || code > MaxCode(width)) return std::string();
  std::string out(static_cast<std::size_t>(width), 'a');
  for (int i = width - 1; i >= 0 && code > 0; --i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<char>('a' + static_cast<int>(code % 26));
    code /= 26;
  }
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
  // Input already in key order (a materialized live dataset) skips the
  // sort; the checks below run either way.
  if (!std::is_sorted(records.begin(), records.end(), by_key)) {
    std::sort(records.begin(), records.end(), by_key);
  }
  int max_key_width = 0;
  std::size_t max_attributes = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::string& key = records[i].key;
    if (key.empty()) {
      return Status::InvalidArgument("record with empty key");
    }
    for (const char c : key) {
      if (c <= '!') {
        return Status::InvalidArgument(
            "key contains a character at or below '!': " + key);
      }
    }
    if (i > 0 && records[i - 1].key == key) {
      return Status::InvalidArgument("duplicate key: " + key);
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
  dataset.InternAbsentKeys();
  return dataset;
}

int Dataset::FindIndex(std::string_view key) const {
  const auto it = std::lower_bound(
      records_.begin(), records_.end(), key,
      [](const Record& r, std::string_view k) { return r.key < k; });
  if (it == records_.end() || it->key != key) return -1;
  return static_cast<int>(it - records_.begin());
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
  if (i >= 0 && i <= size()) {
    return absent_keys_[static_cast<std::size_t>(i)];
  }
  if (synthetic_) {
    return EncodeKey(2 * static_cast<std::uint64_t>(i), config_.key_width);
  }
  // '!' sorts below every allowed key character, so key[i-1] + "!" falls
  // strictly between key[i-1] and key[i]; "!" alone sorts below key[0].
  if (i <= 0) return "!";
  return records_[static_cast<std::size_t>(size() - 1)].key + "!";
}

void Dataset::InternAbsentKeys() {
  absent_keys_.reserve(records_.size() + 1);
  for (int i = 0; i <= size(); ++i) {
    if (synthetic_) {
      absent_keys_.push_back(
          EncodeKey(2 * static_cast<std::uint64_t>(i), config_.key_width));
    } else if (i == 0) {
      absent_keys_.push_back("!");
    } else {
      absent_keys_.push_back(records_[static_cast<std::size_t>(i - 1)].key +
                             "!");
    }
  }
}

}  // namespace airindex
