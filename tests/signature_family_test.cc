// Tests for the extension schemes: integrated and multi-level signature
// indexing (Lee & Lee), plus cross-family comparisons.

#include <memory>

#include <gtest/gtest.h>

#include "des/random.h"
#include "inflated_channel.h"
#include "schemes/integrated_signature.h"
#include "schemes/multilevel_signature.h"
#include "schemes/signature.h"

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

}  // namespace
}  // namespace airindex
