// Unit tests for the synthetic dictionary data source.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ranges>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/program_cache.h"
#include "data/dataset.h"
#include "des/random.h"

namespace airindex {
namespace {

TEST(EncodeKey, OrderPreserving) {
  std::string previous;
  for (std::uint64_t code = 0; code < 2000; ++code) {
    const std::string key = EncodeKey(code, 5);
    ASSERT_EQ(key.size(), 5u);
    EXPECT_LT(previous, key);
    previous = key;
  }
}

TEST(EncodeKey, WidthTooSmallIsEmpty) {
  EXPECT_EQ(EncodeKey(26, 1), "");
  EXPECT_EQ(EncodeKey(25, 1), "z");
  EXPECT_EQ(EncodeKey(0, 3), "aaa");
}

TEST(Dataset, GeneratesSortedUniqueKeys) {
  DatasetConfig config;
  config.num_records = 500;
  config.key_width = 6;
  const Result<Dataset> result = Dataset::Generate(config);
  ASSERT_TRUE(result.ok());
  const Dataset& dataset = result.value();
  ASSERT_EQ(dataset.size(), 500);
  std::set<std::string> keys;
  std::string previous;
  for (int i = 0; i < dataset.size(); ++i) {
    const RecordView record = dataset.record(i);
    EXPECT_EQ(record.key.size(), 6u);
    EXPECT_LT(previous, record.key);
    previous = record.key;
    keys.emplace(record.key);
  }
  EXPECT_EQ(keys.size(), 500u);
}

TEST(Dataset, RecordIdsAreDenseInKeyOrder) {
  DatasetConfig config;
  config.num_records = 100;
  config.key_width = 6;
  const Dataset dataset = Dataset::Generate(config).value();
  for (int i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(dataset.record(i).id, static_cast<std::uint64_t>(i));
  }
}

// The key-order position of `key` by binary search over the records, or
// -1: the reference FindIndex must agree with on every string.
int LowerBoundIndex(const Dataset& dataset, std::string_view key) {
  const auto positions = std::views::iota(0, dataset.size());
  const auto it = std::ranges::lower_bound(
      positions, key, {}, [&](int i) { return dataset.record(i).key; });
  if (it == positions.end() || dataset.record(*it).key != key) return -1;
  return *it;
}

// Probes near every key: the key, every absent key, the key cut by one
// byte, extended by 'a' and by '!', with its last byte changed, plus the
// empty string and a key longer than any in the dataset. Each must look
// up as the binary search finds it, on a copy and on a moved-to dataset.
void ExpectFindIndexMatchesLowerBound(const Dataset& dataset) {
  std::vector<std::string> probes = {
      "", std::string(static_cast<std::size_t>(dataset.config().key_width) +
                          1, 'z')};
  for (int i = 0; i < dataset.size(); ++i) {
    const std::string key(dataset.record(i).key);
    probes.push_back(key);
    probes.push_back(key.substr(0, key.size() - 1));
    probes.push_back(key + "a");
    probes.push_back(key + "!");
    std::string changed = key;
    changed.back() = changed.back() == 'z' ? 'a' : 'z';
    probes.push_back(changed);
  }
  for (int i = 0; i <= dataset.size(); ++i) {
    probes.emplace_back(dataset.absent_key(i));
  }
  const Dataset copy = dataset;
  Dataset source = dataset;
  const Dataset moved = std::move(source);
  for (const std::string& probe : probes) {
    const int expected = LowerBoundIndex(dataset, probe);
    EXPECT_EQ(copy.FindIndex(probe), expected) << "copy: " << probe;
    EXPECT_EQ(moved.FindIndex(probe), expected) << "moved: " << probe;
  }
}

TEST(Dataset, FindIndexRoundTrips) {
  DatasetConfig config;
  config.num_records = 300;
  config.key_width = 6;
  const Dataset dataset = Dataset::Generate(config).value();
  for (int i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(dataset.FindIndex(dataset.record(i).key), i);
  }
  EXPECT_EQ(dataset.FindIndex("zzzzzz"), -1);
  EXPECT_EQ(dataset.FindIndex(""), -1);
  ExpectFindIndexMatchesLowerBound(dataset);

  // An external dataset with keys of mixed widths (1 to 40 bytes), some
  // of them prefixes of others.
  Rng rng(41);
  std::set<std::string> keys = {"a", "ab", "abc", "b", "ba", "bab"};
  while (keys.size() < 400) {
    std::string key(1 + rng.NextBounded(40), 'a');
    for (char& c : key) c = static_cast<char>('a' + rng.NextBounded(26));
    keys.insert(key);
  }
  std::vector<Record> records;
  for (const std::string& key : keys) records.push_back(Record{0, key, {}});
  const Dataset external = Dataset::FromRecords(std::move(records)).value();
  for (int i = 0; i < external.size(); ++i) {
    EXPECT_EQ(external.FindIndex(external.record(i).key), i);
  }
  ExpectFindIndexMatchesLowerBound(external);
}

TEST(Dataset, AbsentKeysInterleaveAndNeverCollide) {
  DatasetConfig config;
  config.num_records = 200;
  config.key_width = 6;
  const Dataset dataset = Dataset::Generate(config).value();
  for (int i = 0; i <= dataset.size(); ++i) {
    const std::string absent = dataset.AbsentKey(i);
    EXPECT_EQ(dataset.FindIndex(absent), -1) << absent;
    if (i < dataset.size()) {
      EXPECT_LT(absent, dataset.record(i).key);
    }
    if (i > 0) {
      EXPECT_GT(absent, dataset.record(i - 1).key);
    }
  }
}

TEST(Dataset, AttributesAreDeterministicPerSeed) {
  DatasetConfig config;
  config.num_records = 50;
  config.key_width = 6;
  config.seed = 99;
  const Dataset a = Dataset::Generate(config).value();
  const Dataset b = Dataset::Generate(config).value();
  config.seed = 100;
  const Dataset c = Dataset::Generate(config).value();
  ASSERT_EQ(a.record(7).attributes.size(), 8u);
  EXPECT_EQ(a.record(7).attributes, b.record(7).attributes);
  EXPECT_NE(a.record(7).attributes, c.record(7).attributes);
  for (const std::string_view attr : a.record(7).attributes) {
    EXPECT_EQ(attr.size(), 8u);
  }
}

TEST(Dataset, RejectsBadConfigs) {
  DatasetConfig config;
  config.num_records = 0;
  EXPECT_FALSE(Dataset::Generate(config).ok());
  config.num_records = 10;
  config.key_width = 0;
  EXPECT_FALSE(Dataset::Generate(config).ok());
  config.key_width = 1;  // 10 records (codes up to 20) fit in base-26
  EXPECT_TRUE(Dataset::Generate(config).ok());
  config.num_records = 20;  // codes up to 40 do not fit in one character
  EXPECT_FALSE(Dataset::Generate(config).ok());
  config.key_width = 6;
  config.key_width = 6;
  config.attribute_width = 0;
  EXPECT_FALSE(Dataset::Generate(config).ok());
}

TEST(Dataset, PaperScaleGenerates) {
  DatasetConfig config;
  config.num_records = 34000;
  config.key_width = 25;
  const Result<Dataset> result = Dataset::Generate(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 34000);
  EXPECT_LT(result.value().min_key(), result.value().max_key());
}

// absent_key(i) views one buffer laid out at construction. Each view
// equals AbsentKey(i) and the key the class comment defines (the even
// code 2i for a generated dataset; "!", then key i-1 followed by '!', for
// an external one), for every i; and the views stay valid, pointing at
// the same bytes, after the dataset is moved.
TEST(Dataset, AbsentKeyViewsMatchAbsentKeysAcrossMoves) {
  DatasetConfig config;
  config.num_records = 300;
  config.key_width = 12;
  Dataset generated = Dataset::Generate(config).value();
  std::vector<Record> records(5);
  const std::vector<std::string> keys = {"b", "ba", "bab", "c", "zzzzzzzz"};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    records[i].key = keys[keys.size() - 1 - i];  // reversed: sorted here
  }
  Dataset external = Dataset::FromRecords(std::move(records)).value();

  const auto expected = [](const Dataset& dataset, int i) {
    if (dataset.synthetic()) {
      return EncodeKey(2 * static_cast<std::uint64_t>(i),
                       dataset.config().key_width);
    }
    return i == 0 ? std::string("!")
                  : std::string(dataset.record(i - 1).key) + "!";
  };
  for (Dataset* dataset : {&generated, &external}) {
    SCOPED_TRACE(dataset->synthetic() ? "generated" : "external");
    std::vector<std::string_view> views;
    std::vector<std::string> want;
    for (int i = 0; i <= dataset->size(); ++i) {
      views.push_back(dataset->absent_key(i));
      want.push_back(expected(*dataset, i));
      EXPECT_EQ(views.back(), dataset->AbsentKey(i)) << "key " << i;
      EXPECT_EQ(views.back(), want.back()) << "key " << i;
    }
    const Dataset moved = std::move(*dataset);
    const Dataset copied = moved;
    for (int i = 0; i <= moved.size(); ++i) {
      const auto at = static_cast<std::size_t>(i);
      EXPECT_EQ(views[at], want[at]) << "key " << i;
      EXPECT_EQ(moved.absent_key(i).data(), views[at].data()) << "key " << i;
      EXPECT_EQ(moved.absent_key(i), moved.AbsentKey(i)) << "key " << i;
      EXPECT_EQ(copied.absent_key(i), want[at]) << "key " << i;
    }
  }
}

// Ragged external records: 600 unique keys of 1 to 40 bytes drawn from
// '"' to 0xFF (so some bytes are above 0x7F), each with 0 to 9 attribute
// values of 0 to 12 arbitrary bytes, in draw order (unsorted).
std::vector<Record> RaggedRecords() {
  Rng rng(29);
  std::set<std::string> seen;
  std::vector<Record> records;
  while (records.size() < 600) {
    Record record;
    record.key.resize(1 + rng.NextBounded(40));
    for (char& c : record.key) {
      c = static_cast<char>('"' + rng.NextBounded(256 - '"'));
    }
    if (!seen.insert(record.key).second) continue;
    record.attributes.resize(rng.NextBounded(10));
    for (std::string& attribute : record.attributes) {
      attribute.resize(rng.NextBounded(13));
      for (char& c : attribute) c = static_cast<char>(rng.NextBounded(256));
    }
    records.push_back(std::move(record));
  }
  return records;
}

// Every view of a dataset built from ragged, unsorted records equals the
// sorted input: id, key and each attribute. Lookups agree with the
// binary search and the absent-key views with AbsentKey. Views taken
// before a move still read the moved-to dataset's bytes, and a copy
// reads the same content from its own pools.
TEST(Dataset, RaggedExternalRecordsViewTheSortedInput) {
  std::vector<Record> sorted = RaggedRecords();
  ASSERT_FALSE(std::ranges::is_sorted(sorted, {}, &Record::key));
  Dataset source = Dataset::FromRecords(sorted).value();
  std::ranges::sort(sorted, {}, &Record::key);
  ASSERT_EQ(source.size(), static_cast<int>(sorted.size()));

  std::vector<RecordView> views;
  for (int i = 0; i < source.size(); ++i) views.push_back(source.record(i));
  const auto expect_views_equal_input = [&](const Dataset& dataset,
                                            const char* label) {
    SCOPED_TRACE(label);
    for (int i = 0; i < dataset.size(); ++i) {
      const Record& want = sorted[static_cast<std::size_t>(i)];
      const RecordView got = dataset.record(i);
      EXPECT_EQ(got.id, static_cast<std::uint64_t>(i));
      EXPECT_EQ(got.key, want.key) << i;
      ASSERT_EQ(got.attributes.size(), want.attributes.size()) << i;
      for (std::size_t a = 0; a < want.attributes.size(); ++a) {
        EXPECT_EQ(got.attributes[a], want.attributes[a]) << i << "/" << a;
      }
      EXPECT_TRUE(std::ranges::equal(got.attributes, want.attributes)) << i;
    }
    for (int i = 0; i <= dataset.size(); ++i) {
      EXPECT_EQ(dataset.absent_key(i), dataset.AbsentKey(i)) << i;
    }
  };
  expect_views_equal_input(source, "built");
  ExpectFindIndexMatchesLowerBound(source);

  const Dataset moved = std::move(source);
  expect_views_equal_input(moved, "moved");
  const Dataset copy = moved;
  expect_views_equal_input(copy, "copy");
  for (int i = 0; i < moved.size(); ++i) {
    const RecordView& before = views[static_cast<std::size_t>(i)];
    EXPECT_EQ(moved.record(i).key.data(), before.key.data()) << i;
    EXPECT_EQ(before.key, sorted[static_cast<std::size_t>(i)].key) << i;
    EXPECT_EQ(before.attributes, moved.record(i).attributes) << i;
    EXPECT_EQ(before.attributes, copy.record(i).attributes) << i;
  }
}

// The dataset half of every program-cache key, snapshot header and
// pinned checksum. DatasetFingerprint hashes content (each key
// length-prefixed, the attribute count, then each attribute
// length-prefixed), so its value does not depend on how the dataset
// stores its records; these values were computed with records held as
// separate strings.
TEST(Dataset, FingerprintsArePinned) {
  DatasetConfig config;
  config.num_records = 2000;
  EXPECT_EQ(DatasetFingerprint(Dataset::Generate(config).value()),
            0x4d4ba53e9191c3c1ULL);
  config.num_records = 34000;
  EXPECT_EQ(DatasetFingerprint(Dataset::Generate(config).value()),
            0x56e385ec9e8e0abeULL);
  EXPECT_EQ(DatasetFingerprint(Dataset::FromRecords(RaggedRecords()).value()),
            0xf81638942a563be7ULL);
}

// Every pool offset is 32 bits, so Generate rejects a configuration whose
// keys, attribute values or attribute bytes would pass them, before it
// allocates anything.
TEST(Dataset, RejectsPoolsPast32BitOffsets) {
  const auto expect_rejected = [](const DatasetConfig& config) {
    const Result<Dataset> result = Dataset::Generate(config);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  };
  DatasetConfig config;
  config.num_records = 1 << 20;
  config.key_width = 4097;  // 2^20 * 4097 key bytes
  expect_rejected(config);
  config.key_width = 25;
  config.attribute_width = 1024;  // 2^23 values of 1 KiB
  expect_rejected(config);
  config.num_attributes = 1 << 30;  // 2^50 values, 2^80 bytes unwrapped
  config.attribute_width = 1 << 30;
  expect_rejected(config);
}

}  // namespace
}  // namespace airindex
