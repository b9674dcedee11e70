// Unit tests for the synthetic dictionary data source.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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
  for (const Record& record : dataset.records()) {
    EXPECT_EQ(record.key.size(), 6u);
    EXPECT_LT(previous, record.key);
    previous = record.key;
    keys.insert(record.key);
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
  const std::vector<Record>& records = dataset.records();
  const auto it = std::lower_bound(
      records.begin(), records.end(), key,
      [](const Record& r, std::string_view k) { return r.key < k; });
  if (it == records.end() || it->key != key) return -1;
  return static_cast<int>(it - records.begin());
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
    const std::string& key = dataset.record(i).key;
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
  for (const std::string& attr : a.record(7).attributes) {
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
    return i == 0 ? std::string("!") : dataset.record(i - 1).key + "!";
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

}  // namespace
}  // namespace airindex
