// Tests for the extension schemes: integrated and multi-level signature
// indexing (Lee & Lee), plus cross-family comparisons.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "des/random.h"
#include "inflated_channel.h"
#include "schemes/integrated_signature.h"
#include "schemes/multilevel_signature.h"
#include "schemes/signature.h"
#include "signature_oracle.h"

namespace airindex {
namespace {

std::shared_ptr<const Dataset> MakeDataset(int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 6;
  config.num_attributes = 4;
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

BucketGeometry SmallGeometry() {
  BucketGeometry geometry;
  geometry.record_bytes = 100;
  geometry.key_bytes = 6;
  geometry.signature_bytes = 16;
  return geometry;
}

TEST(IntegratedSignature, ChannelHasOneSignaturePerGroup) {
  const auto dataset = MakeDataset(100);
  const IntegratedSignatureIndexing scheme =
      IntegratedSignatureIndexing::Build(dataset, SmallGeometry(),
                                         SignatureParams(), 10)
          .value();
  const InflatedChannel channel(scheme);
  EXPECT_EQ(scheme.view().num_signature_buckets(), 10u);
  EXPECT_EQ(scheme.view().num_data_buckets(), 100u);
  EXPECT_TRUE(ValidateProgramStructure(scheme.view()).ok());
}

TEST(IntegratedSignature, RaggedLastGroup) {
  const auto dataset = MakeDataset(23);
  const IntegratedSignatureIndexing scheme =
      IntegratedSignatureIndexing::Build(dataset, SmallGeometry(),
                                         SignatureParams(), 10)
          .value();
  EXPECT_EQ(scheme.view().num_signature_buckets(), 3u);
  for (int r = 0; r < 23; ++r) {
    EXPECT_TRUE(scheme.Access(dataset->record(r).key, 55).found) << r;
  }
}

TEST(IntegratedSignature, FindsEveryKeyFromManyTuneIns) {
  const auto dataset = MakeDataset(120);
  const IntegratedSignatureIndexing scheme =
      IntegratedSignatureIndexing::Build(dataset, SmallGeometry(),
                                         SignatureParams(), 8)
          .value();
  Rng rng(17);
  for (int r = 0; r < dataset->size(); ++r) {
    const Bytes tune_in =
        static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
            2 * scheme.view().cycle_bytes())));
    const AccessResult result = scheme.Access(dataset->record(r).key, tune_in);
    ASSERT_TRUE(result.found) << r;
    EXPECT_LE(result.tuning_time, result.access_time);
  }
}

TEST(IntegratedSignature, AbsentKeysScanGroupSignaturesOnly) {
  const auto dataset = MakeDataset(100);
  BucketGeometry geometry = SmallGeometry();
  geometry.signature_bytes = 64;  // wide: no group false drops
  SignatureParams params;
  params.bits_per_attribute = 16;
  const IntegratedSignatureIndexing scheme =
      IntegratedSignatureIndexing::Build(dataset, geometry, params, 10)
          .value();
  const AccessResult result = scheme.Access(dataset->AbsentKey(50), 0);
  EXPECT_FALSE(result.found);
  // Only the 10 group signatures are read (the auto rule widens group
  // signatures to 64 * (10/4) = 128 bytes).
  EXPECT_EQ(result.probes, 10);
  EXPECT_EQ(result.tuning_time, 10 * 128);
  EXPECT_EQ(result.false_drops, 0);
}

TEST(MultiLevelSignature, ChannelLayout) {
  const auto dataset = MakeDataset(40);
  const MultiLevelSignatureIndexing scheme =
      MultiLevelSignatureIndexing::Build(dataset, SmallGeometry(),
                                         SignatureParams(), 8)
          .value();
  const InflatedChannel channel(scheme);
  // 5 groups: each has 1 group sig + 8 record sigs + 8 data buckets.
  EXPECT_EQ(scheme.view().num_signature_buckets(), 5u + 40u);
  EXPECT_EQ(scheme.view().num_data_buckets(), 40u);
  EXPECT_TRUE(ValidateProgramStructure(scheme.view()).ok());
}

TEST(MultiLevelSignature, FindsEveryKeyFromManyTuneIns) {
  const auto dataset = MakeDataset(96);
  const MultiLevelSignatureIndexing scheme =
      MultiLevelSignatureIndexing::Build(dataset, SmallGeometry(),
                                         SignatureParams(), 8)
          .value();
  Rng rng(19);
  for (int r = 0; r < dataset->size(); ++r) {
    const Bytes tune_in =
        static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
            2 * scheme.view().cycle_bytes())));
    const AccessResult result = scheme.Access(dataset->record(r).key, tune_in);
    ASSERT_TRUE(result.found) << r;
  }
}

TEST(MultiLevelSignature, TunesLessThanSimpleSignatureOnAverage) {
  // The whole point of the hierarchy: group signatures let the client
  // doze over non-matching stretches wholesale.
  const auto dataset = MakeDataset(400);
  const BucketGeometry geometry = SmallGeometry();
  const SignatureIndexing simple =
      SignatureIndexing::Build(dataset, geometry).value();
  const MultiLevelSignatureIndexing multi =
      MultiLevelSignatureIndexing::Build(dataset, geometry, SignatureParams(),
                                         16)
          .value();
  Rng rng(23);
  double simple_total = 0;
  double multi_total = 0;
  constexpr int kTrials = 1000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const int rec = static_cast<int>(rng.NextBounded(400));
    const Bytes tune_in = static_cast<Bytes>(rng.NextBounded(100000));
    simple_total += static_cast<double>(
        simple.Access(dataset->record(rec).key, tune_in).tuning_time);
    multi_total += static_cast<double>(
        multi.Access(dataset->record(rec).key, tune_in).tuning_time);
  }
  EXPECT_LT(multi_total, simple_total);
}

TEST(SignatureFamily, GroupSizeOneStillWorks) {
  const auto dataset = MakeDataset(15);
  const IntegratedSignatureIndexing integrated =
      IntegratedSignatureIndexing::Build(dataset, SmallGeometry(),
                                         SignatureParams(), 1)
          .value();
  const MultiLevelSignatureIndexing multi =
      MultiLevelSignatureIndexing::Build(dataset, SmallGeometry(),
                                         SignatureParams(), 1)
          .value();
  for (int r = 0; r < 15; ++r) {
    EXPECT_TRUE(integrated.Access(dataset->record(r).key, 3).found);
    EXPECT_TRUE(multi.Access(dataset->record(r).key, 3).found);
  }
}

TEST(SignatureFamily, RejectsBadGroupSize) {
  const auto dataset = MakeDataset(10);
  EXPECT_FALSE(IntegratedSignatureIndexing::Build(dataset, SmallGeometry(),
                                                  SignatureParams(), 0)
                   .ok());
  EXPECT_FALSE(MultiLevelSignatureIndexing::Build(dataset, SmallGeometry(),
                                                  SignatureParams(), -1)
                   .ok());
}

// The generator as signatures were first defined: one field at a time,
// FNV-1a then Mix64, then a chain of `weight` Mix64 steps, each position
// taken modulo the bit count.
void ReferenceSuperimpose(std::string_view value, int bits, int weight,
                          std::vector<std::uint64_t>* sig) {
  std::uint64_t h = 0x9ae16a3b2f90404fULL;
  for (const char c : value) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  h = Mix64(h);
  for (int j = 0; j < weight; ++j) {
    const auto bit = static_cast<int>(h % static_cast<std::uint64_t>(bits));
    (*sig)[static_cast<std::size_t>(bit / 64)] |= 1ULL << (bit % 64);
    h = Mix64(h + static_cast<std::uint64_t>(j) + 1);
  }
}

// The interleaved chains (a mask for power-of-two widths, a modulo
// otherwise) write the reference's words for every record, whole records
// ORed into a group give the OR of their signatures, and a query's set
// bits are the reference key words' bits: at widths of 8 to 512 bits,
// weights up to 12 (past the 8 a query holds in place) and records of 0,
// 4 and 20 attributes (20 take two interleaved passes).
TEST(SignatureGenerator, InterleavedChainsEqualTheScalarReference) {
  for (const int attributes : {0, 4, 20}) {
    DatasetConfig config;
    config.num_records = 40;
    config.key_width = 6;
    config.num_attributes = attributes;
    const Dataset dataset = Dataset::Generate(config).value();
    for (const Bytes width : {1, 2, 12, 16, 24, 64}) {
      for (const int weight : {1, 3, 8, 12}) {
        SCOPED_TRACE(std::to_string(attributes) + " attributes, " +
                     std::to_string(width) + " bytes, weight " +
                     std::to_string(weight));
        const int bits = static_cast<int>(width * 8);
        SignatureParams params;
        params.bits_per_attribute = weight;
        const SignatureGenerator generator(width, params);
        const auto words = static_cast<std::size_t>(generator.words());
        std::vector<std::uint64_t> group(words, 0);
        std::vector<std::uint64_t> reference_group(words, 0);
        for (const Record& record : dataset.records()) {
          std::vector<std::uint64_t> key_words(words, 0);
          ReferenceSuperimpose(record.key, bits, weight, &key_words);
          std::vector<std::uint64_t> want = key_words;
          for (const std::string& attribute : record.attributes) {
            ReferenceSuperimpose(attribute, bits, weight, &want);
          }
          ASSERT_EQ(generator.RecordSignature(record), want);
          generator.SuperimposeRecord(record, group.data());
          for (std::size_t w = 0; w < words; ++w) reference_group[w] |= want[w];
          ASSERT_EQ(group, reference_group);

          const QueryBits query = generator.Query(record.key);
          std::vector<std::uint64_t> query_words(words, 0);
          for (const int bit : query) {
            ASSERT_GE(bit, 0);
            ASSERT_LT(bit, bits);
            EXPECT_EQ(std::count(query.begin(), query.end(), bit), 1);
            query_words[static_cast<std::size_t>(bit / 64)] |= 1ULL
                                                               << (bit % 64);
          }
          ASSERT_EQ(query_words, key_words);
          EXPECT_EQ(generator.QuerySignature(record.key), key_words);
          EXPECT_TRUE(SignatureGenerator::Covers(want.data(), query));
        }
      }
    }
  }
}

// A query that sets more bits than a query holds in place (weight 12)
// spills to the heap, and its slice selection with it; the closed-form
// walk still equals the bucket-by-bucket oracle.
TEST(SignatureGenerator, WideQueriesEqualTheOracle) {
  const auto dataset = MakeDataset(300);
  SignatureParams params;
  params.bits_per_attribute = 12;
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, SmallGeometry(), params).value();
  Rng rng(5);
  int spilled = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int record = static_cast<int>(rng.NextBounded(300));
    const std::string key = trial % 3 == 0 ? dataset->AbsentKey(record)
                                           : dataset->record(record).key;
    if (scheme.generator().Query(key).size() > QueryBits::kInline) ++spilled;
    const auto tune_in = static_cast<Bytes>(rng.NextBounded(
        static_cast<std::uint64_t>(2 * scheme.view().cycle_bytes())));
    const AccessResult fast = scheme.Access(key, tune_in);
    const AccessResult oracle =
        SignatureOracle(scheme, *dataset, key, tune_in);
    ASSERT_EQ(fast.found, oracle.found) << key << " @" << tune_in;
    ASSERT_EQ(fast.access_time, oracle.access_time) << key << " @" << tune_in;
    ASSERT_EQ(fast.tuning_time, oracle.tuning_time) << key << " @" << tune_in;
    ASSERT_EQ(fast.probes, oracle.probes) << key << " @" << tune_in;
    ASSERT_EQ(fast.false_drops, oracle.false_drops) << key << " @" << tune_in;
  }
  EXPECT_GT(spilled, 100);
}

}  // namespace
}  // namespace airindex
