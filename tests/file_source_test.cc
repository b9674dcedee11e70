// Tests for the file-backed data source and Dataset::FromRecords.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/file_source.h"

namespace airindex {
namespace {

class FileSourceTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/airindex_file_source_test.csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
};

TEST_F(FileSourceTest, LoadsAndSortsRecords) {
  WriteFile(
      "# a comment\n"
      "zebra,mammal,striped\n"
      "apple,fruit,red\n"
      "\n"
      "mango,fruit,yellow\n");
  const Result<Dataset> result = LoadDatasetFromFile(path_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dataset& dataset = result.value();
  ASSERT_EQ(dataset.size(), 3);
  EXPECT_EQ(dataset.record(0).key, "apple");
  EXPECT_EQ(dataset.record(1).key, "mango");
  EXPECT_EQ(dataset.record(2).key, "zebra");
  EXPECT_EQ(dataset.record(0).attributes,
            (std::vector<std::string>{"fruit", "red"}));
  EXPECT_FALSE(dataset.synthetic());
  EXPECT_EQ(dataset.FindIndex("mango"), 1);
  EXPECT_EQ(dataset.FindIndex("durian"), -1);
}

TEST_F(FileSourceTest, AbsentKeysInterleaveForExternalData) {
  WriteFile("alpha\nbeta\ngamma\n");
  const Dataset dataset = LoadDatasetFromFile(path_).value();
  for (int i = 0; i <= dataset.size(); ++i) {
    const std::string absent = dataset.AbsentKey(i);
    EXPECT_EQ(dataset.FindIndex(absent), -1) << absent;
    if (i > 0) {
      EXPECT_GT(absent, dataset.record(i - 1).key);
    }
    if (i < dataset.size()) {
      EXPECT_LT(absent, dataset.record(i).key);
    }
  }
}

TEST_F(FileSourceTest, AbsentKeyWorksWhenNextKeyExtendsPrevious) {
  WriteFile("abc\nabcd\nabcde\n");
  const Dataset dataset = LoadDatasetFromFile(path_).value();
  for (int i = 0; i <= 3; ++i) {
    EXPECT_EQ(dataset.FindIndex(dataset.AbsentKey(i)), -1);
  }
  EXPECT_LT(dataset.AbsentKey(1), "abcd");
  EXPECT_GT(dataset.AbsentKey(1), "abc");
}

TEST_F(FileSourceTest, RejectsDuplicatesAndBadKeys) {
  WriteFile("same,1\nsame,2\n");
  EXPECT_FALSE(LoadDatasetFromFile(path_).ok());
  WriteFile("ok\nbad key!,x\n");  // '!' inside the key is reserved
  EXPECT_FALSE(LoadDatasetFromFile(path_).ok());
  WriteFile(",missing-key\n");
  EXPECT_FALSE(LoadDatasetFromFile(path_).ok());
  WriteFile("# only comments\n\n");
  EXPECT_FALSE(LoadDatasetFromFile(path_).ok());
}

TEST_F(FileSourceTest, MissingFileIsNotFound) {
  const Result<Dataset> result =
      LoadDatasetFromFile("/nonexistent/path/data.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(FileSourceTest, RoundTripsThroughSave) {
  WriteFile("kiwi,fruit\nlemon,fruit\n");
  const Dataset original = LoadDatasetFromFile(path_).value();
  const std::string copy = path_ + ".copy";
  ASSERT_TRUE(SaveDatasetToFile(original, copy).ok());
  const Dataset reloaded = LoadDatasetFromFile(copy).value();
  std::remove(copy.c_str());
  ASSERT_EQ(reloaded.size(), original.size());
  for (int i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reloaded.record(i).key, original.record(i).key);
    EXPECT_EQ(reloaded.record(i).attributes, original.record(i).attributes);
  }
}

TEST_F(FileSourceTest, CrlfAndCustomDelimiter) {
  WriteFile("a|1|2\r\nb|3\r\n");
  const Dataset dataset = LoadDatasetFromFile(path_, '|').value();
  ASSERT_EQ(dataset.size(), 2);
  EXPECT_EQ(dataset.record(0).attributes,
            (std::vector<std::string>{"1", "2"}));
}

TEST(FromRecords, AssignsDenseIdsInKeyOrder) {
  std::vector<Record> records(3);
  records[0].key = "cc";
  records[1].key = "aa";
  records[2].key = "bb";
  const Dataset dataset = Dataset::FromRecords(std::move(records)).value();
  EXPECT_EQ(dataset.record(0).key, "aa");
  EXPECT_EQ(dataset.record(0).id, 0u);
  EXPECT_EQ(dataset.record(2).key, "cc");
  EXPECT_EQ(dataset.record(2).id, 2u);
  EXPECT_EQ(dataset.config().key_width, 2);
}

TEST(FromRecords, RejectsEmpty) {
  EXPECT_FALSE(Dataset::FromRecords({}).ok());
}

std::vector<Record> RecordsWithKeys(const std::vector<std::string>& keys) {
  std::vector<Record> records(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    records[i].id = 100 + i;
    records[i].key = keys[i];
    records[i].attributes = {std::to_string(i)};
  }
  return records;
}

// Each key list is checked as given (already in key order) and reversed
// (out of order), so neither the sorted-input path nor the sorting path
// can skip a check.
void ExpectRejectedSortedAndReversed(std::vector<std::string> keys,
                                     const std::string& reason) {
  for (const bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "reversed input" : "sorted input");
    std::vector<std::string> order = keys;
    if (reversed) std::reverse(order.begin(), order.end());
    const Result<Dataset> dataset =
        Dataset::FromRecords(RecordsWithKeys(order));
    ASSERT_FALSE(dataset.ok());
    EXPECT_EQ(dataset.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(dataset.status().message().find(reason), std::string::npos)
        << dataset.status().ToString();
  }
}

TEST(FromRecords, RejectsDuplicateKeys) {
  ExpectRejectedSortedAndReversed({"aa", "aa", "bb", "cc"}, "duplicate key");
  ExpectRejectedSortedAndReversed({"aa", "bb", "cc", "cc"}, "duplicate key");
  ExpectRejectedSortedAndReversed({"aa", "bb", "bb", "cc"}, "duplicate key");
}

TEST(FromRecords, RejectsEmptyKeys) {
  ExpectRejectedSortedAndReversed({"", "aa", "bb"}, "empty key");
}

TEST(FromRecords, RejectsKeysWithReservedCharacters) {
  ExpectRejectedSortedAndReversed({"aa", "b!", "cc"}, "at or below '!'");
  ExpectRejectedSortedAndReversed({"aa", "bb", "c c"}, "at or below '!'");
  ExpectRejectedSortedAndReversed({"!", "aa", "bb"}, "at or below '!'");
}

// Bytes 0x80-0xFF (UTF-8 beyond ASCII) are ordinary key bytes: keys
// order as unsigned bytes, so '!' still sorts below them and key + "!"
// still falls strictly between a key and its successor.
TEST(FromRecords, LoadsKeysWithBytesAbove0x7F) {
  const std::vector<std::string> keys = {"cafe", "caf\xc3\xa9", "cafez",
                                         "zebra", "\xf4\x8f\xbf\xbf"};
  const Result<Dataset> loaded = Dataset::FromRecords(RecordsWithKeys(keys));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dataset& dataset = loaded.value();
  ASSERT_EQ(dataset.size(), 5);
  EXPECT_EQ(dataset.record(1).key, "cafez");  // 'z' sorts below 0xC3
  EXPECT_EQ(dataset.record(2).key, "caf\xc3\xa9");
  for (int i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(dataset.FindIndex(dataset.record(i).key), i) << i;
    EXPECT_EQ(dataset.FindIndex(dataset.absent_key(i)), -1) << i;
    EXPECT_LT(dataset.absent_key(i), dataset.record(i).key) << i;
    if (i > 0) {
      EXPECT_GT(dataset.absent_key(i), dataset.record(i - 1).key) << i;
    }
  }
  EXPECT_GT(dataset.absent_key(dataset.size()), dataset.max_key());
}

TEST(FromRecords, KeepsSortedInputAndReassignsIds) {
  for (const bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "reversed input" : "sorted input");
    std::vector<std::string> keys = {"aa", "ab", "b", "ba", "c"};
    if (reversed) std::reverse(keys.begin(), keys.end());
    const Dataset dataset =
        Dataset::FromRecords(RecordsWithKeys(keys)).value();
    ASSERT_EQ(dataset.size(), 5);
    const std::vector<std::string> want = {"aa", "ab", "b", "ba", "c"};
    for (int i = 0; i < dataset.size(); ++i) {
      EXPECT_EQ(dataset.record(i).key, want[static_cast<std::size_t>(i)]);
      EXPECT_EQ(dataset.record(i).id, static_cast<std::uint64_t>(i));
      // Attributes travel with their key.
      const std::size_t given =
          reversed ? keys.size() - 1 - static_cast<std::size_t>(i)
                   : static_cast<std::size_t>(i);
      EXPECT_EQ(dataset.record(i).attributes,
                (std::vector<std::string>{std::to_string(given)}));
    }
    EXPECT_EQ(dataset.config().key_width, 2);
  }
}

}  // namespace
}  // namespace airindex
