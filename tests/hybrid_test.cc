// Tests for the hybrid index + signature scheme (paper refs [3,4]).

#include <memory>

#include <gtest/gtest.h>

#include "des/random.h"
#include "inflated_channel.h"
#include "schemes/hybrid.h"
#include "schemes/one_m.h"
#include "schemes/signature.h"

namespace airindex {
namespace {

std::shared_ptr<const Dataset> MakeDataset(int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 6;
  config.num_attributes = 4;
  config.attribute_width = 3;
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

BucketGeometry SmallGeometry() {
  BucketGeometry geometry;
  geometry.record_bytes = 100;
  geometry.key_bytes = 6;
  geometry.signature_bytes = 16;
  return geometry;
}

TEST(Hybrid, ChannelShape) {
  const auto dataset = MakeDataset(160);
  const HybridIndexing scheme =
      HybridIndexing::Build(dataset, SmallGeometry(), SignatureParams(),
                            /*group_size=*/8, /*m=*/2)
          .value();
  const InflatedChannel channel(scheme);
  // 20 groups indexed by the tree; the tree appears twice.
  EXPECT_EQ(scheme.view().num_index_buckets(),
            2 * scheme.tree().nodes().size());
  EXPECT_EQ(scheme.view().num_signature_buckets(), 160u);
  EXPECT_EQ(scheme.view().num_data_buckets(), 160u);
  EXPECT_TRUE(ValidateProgramStructure(scheme.view()).ok());
  EXPECT_EQ(scheme.tree().num_records(), 20);  // tree is over groups
}

TEST(Hybrid, TreeIsSmallerThanRecordLevelTree) {
  const auto dataset = MakeDataset(1000);
  const BucketGeometry geometry = SmallGeometry();
  const HybridIndexing hybrid =
      HybridIndexing::Build(dataset, geometry, SignatureParams(), 16).value();
  const OneMIndexing one_m = OneMIndexing::Build(dataset, geometry).value();
  EXPECT_LT(hybrid.tree().nodes().size(), one_m.tree().nodes().size() / 8);
}

TEST(Hybrid, FindsEveryKeyFromManyTuneIns) {
  const auto dataset = MakeDataset(300);
  const HybridIndexing scheme =
      HybridIndexing::Build(dataset, SmallGeometry(), SignatureParams(), 8)
          .value();
  Rng rng(31);
  for (int r = 0; r < dataset->size(); ++r) {
    const Bytes tune_in =
        static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
            2 * scheme.view().cycle_bytes())));
    const AccessResult result = scheme.Access(dataset->record(r).key, tune_in);
    ASSERT_TRUE(result.found) << r;
    ASSERT_EQ(result.anomalies, 0);
    ASSERT_LE(result.tuning_time, result.access_time);
  }
}

TEST(Hybrid, AbsentKeysFailCheaply) {
  const auto dataset = MakeDataset(300);
  const HybridIndexing scheme =
      HybridIndexing::Build(dataset, SmallGeometry(), SignatureParams(), 8)
          .value();
  const int k = scheme.tree().height();
  Rng rng(37);
  for (int i = 0; i <= dataset->size(); i += 2) {
    const Bytes tune_in = static_cast<Bytes>(rng.NextBounded(100000));
    const AccessResult result = scheme.Access(dataset->AbsentKey(i), tune_in);
    EXPECT_FALSE(result.found);
    EXPECT_EQ(result.anomalies, 0);
    // First bucket + descent + at most a group's signature sift.
    EXPECT_LE(result.probes, 1 + k + 8 + 2);
  }
}

TEST(Hybrid, TuningBetweenTreeAndSignature) {
  // The hybrid's point: tuning close to the tree schemes (not the
  // signature scheme's linear scan), access below (1,m) over records
  // (smaller index overhead in the cycle).
  const auto dataset = MakeDataset(2000);
  const BucketGeometry geometry = SmallGeometry();
  const HybridIndexing hybrid =
      HybridIndexing::Build(dataset, geometry, SignatureParams(), 16).value();
  const SignatureIndexing signature =
      SignatureIndexing::Build(dataset, geometry).value();
  const OneMIndexing one_m = OneMIndexing::Build(dataset, geometry).value();
  Rng rng(41);
  double hybrid_tuning = 0;
  double signature_tuning = 0;
  double hybrid_access = 0;
  double one_m_access = 0;
  constexpr int kTrials = 2000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const int rec = static_cast<int>(rng.NextBounded(2000));
    const Bytes tune_in = static_cast<Bytes>(rng.NextBounded(1000000));
    hybrid_tuning += static_cast<double>(
        hybrid.Access(dataset->record(rec).key, tune_in).tuning_time);
    signature_tuning += static_cast<double>(
        signature.Access(dataset->record(rec).key, tune_in).tuning_time);
    hybrid_access += static_cast<double>(
        hybrid.Access(dataset->record(rec).key, tune_in).access_time);
    one_m_access += static_cast<double>(
        one_m.Access(dataset->record(rec).key, tune_in).access_time);
  }
  EXPECT_LT(hybrid_tuning, signature_tuning / 10);
  EXPECT_LT(hybrid_access, one_m_access);
}

TEST(Hybrid, FilterMatchesGroundTruth) {
  const auto dataset = MakeDataset(240);
  const HybridIndexing scheme =
      HybridIndexing::Build(dataset, SmallGeometry(), SignatureParams(), 8)
          .value();
  Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    const int rec = static_cast<int>(rng.NextBounded(240));
    const std::string value(dataset->record(rec).attributes[0]);
    const FilterResult result = scheme.Filter(value, 777 * trial);
    EXPECT_EQ(result.matches, dataset->FindByAttribute(value));
  }
}

TEST(Hybrid, GroupSizeOneDegeneratesToPureTree) {
  const auto dataset = MakeDataset(50);
  const HybridIndexing scheme =
      HybridIndexing::Build(dataset, SmallGeometry(), SignatureParams(), 1)
          .value();
  for (int r = 0; r < 50; ++r) {
    const AccessResult result = scheme.Access(dataset->record(r).key, 99);
    EXPECT_TRUE(result.found);
    EXPECT_LE(result.false_drops, 0);
  }
}

TEST(Hybrid, RejectsBadParams) {
  const auto dataset = MakeDataset(20);
  EXPECT_FALSE(HybridIndexing::Build(dataset, SmallGeometry(),
                                     SignatureParams(), 0)
                   .ok());
  EXPECT_FALSE(HybridIndexing::Build(dataset, SmallGeometry(),
                                     SignatureParams(), 4, 999)
                   .ok());
}

}  // namespace
}  // namespace airindex
