// Unit tests for (1,m) indexing: channel structure, replication counts,
// protocol behaviour, and tuning-time bounds.

#include <memory>

#include <gtest/gtest.h>

#include "des/random.h"
#include "inflated_channel.h"
#include "schemes/one_m.h"

namespace airindex {
namespace {

std::shared_ptr<const Dataset> MakeDataset(int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 6;
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

BucketGeometry SmallGeometry() {
  BucketGeometry geometry;
  geometry.record_bytes = 100;  // fanout = 100/10 = 10
  geometry.key_bytes = 6;
  return geometry;
}

TEST(OneM, ChannelShape) {
  const auto dataset = MakeDataset(200);
  const OneMIndexing scheme =
      OneMIndexing::Build(dataset, SmallGeometry(), 4).value();
  EXPECT_EQ(scheme.m(), 4);
  const InflatedChannel channel(scheme);
  // Full tree (20 leaves + 2 + 1 = 23 nodes) appears 4 times.
  EXPECT_EQ(scheme.view().num_index_buckets(),
            4u * scheme.tree().nodes().size());
  EXPECT_EQ(scheme.view().num_data_buckets(), 200u);
  EXPECT_TRUE(ValidateProgramStructure(scheme.view()).ok());
}

TEST(OneM, EachSegmentStartsWithRoot) {
  const auto dataset = MakeDataset(200);
  const OneMIndexing scheme =
      OneMIndexing::Build(dataset, SmallGeometry(), 4).value();
  const InflatedChannel channel(scheme);
  // Walk next_index_segment pointers from bucket 0: each target bucket
  // must be an index bucket covering the full key range.
  Bytes phase = channel.bucket(0).next_index_segment_phase;
  for (int hops = 0; hops < 4; ++hops) {
    const std::size_t i = channel.BucketStartingAtPhase(phase);
    ASSERT_LT(i, channel.num_buckets());
    const Bucket& bucket = channel.bucket(i);
    EXPECT_EQ(bucket.kind, BucketKind::kIndex);
    EXPECT_EQ(bucket.range_lo, dataset->min_key());
    EXPECT_EQ(bucket.range_hi, dataset->max_key());
    phase = bucket.next_index_segment_phase;
  }
}

TEST(OneM, FindsEveryKeyFromManyTuneIns) {
  const auto dataset = MakeDataset(150);
  const OneMIndexing scheme =
      OneMIndexing::Build(dataset, SmallGeometry(), 3).value();
  Rng rng(7);
  for (int r = 0; r < dataset->size(); ++r) {
    const Bytes tune_in = static_cast<Bytes>(
        rng.NextBounded(static_cast<std::uint64_t>(
            2 * scheme.view().cycle_bytes())));
    const AccessResult result = scheme.Access(dataset->record(r).key, tune_in);
    EXPECT_TRUE(result.found) << r;
    EXPECT_EQ(result.anomalies, 0);
    EXPECT_LE(result.tuning_time, result.access_time);
  }
}

TEST(OneM, TuningIsBoundedByTreeHeight) {
  const auto dataset = MakeDataset(500);
  const OneMIndexing scheme =
      OneMIndexing::Build(dataset, SmallGeometry(), 5).value();
  const int k = scheme.tree().height();
  Rng rng(8);
  for (int trial = 0; trial < 500; ++trial) {
    const Bytes tune_in =
        static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
            scheme.view().cycle_bytes())));
    const AccessResult result = scheme.Access(
        dataset->record(static_cast<int>(rng.NextBounded(500))).key, tune_in);
    ASSERT_TRUE(result.found);
    // Initial wait (<1 bucket) + first bucket + k index probes + download.
    EXPECT_LE(result.tuning_time, static_cast<Bytes>(k + 3) * 100);
    EXPECT_EQ(result.probes, k + 2);
  }
}

TEST(OneM, AbsentKeysFailInAtMostKProbesAfterIndex) {
  const auto dataset = MakeDataset(300);
  const OneMIndexing scheme =
      OneMIndexing::Build(dataset, SmallGeometry(), 3).value();
  const int k = scheme.tree().height();
  Rng rng(9);
  for (int i = 0; i <= dataset->size(); ++i) {
    const Bytes tune_in = static_cast<Bytes>(rng.NextBounded(10000));
    const AccessResult result = scheme.Access(dataset->AbsentKey(i), tune_in);
    EXPECT_FALSE(result.found);
    EXPECT_EQ(result.anomalies, 0);
    EXPECT_LE(result.probes, k + 1);  // first bucket + partial descent
    // Never waits out a full extra cycle beyond reaching the index.
    EXPECT_LE(result.tuning_time, static_cast<Bytes>(k + 2) * 100);
  }
}

TEST(OneM, OptimalMGrowsWithFanout) {
  // m* = sqrt(Nr / I) is nearly constant in Nr (index size scales with
  // the data) but grows with the fanout, which shrinks the tree.
  BucketGeometry narrow = SmallGeometry();  // fanout 10
  BucketGeometry wide = SmallGeometry();
  wide.record_bytes = 500;  // fanout 50
  const int m_narrow = OneMIndexing::OptimalM(10000, narrow);
  const int m_wide = OneMIndexing::OptimalM(10000, wide);
  EXPECT_GE(m_narrow, 2);
  EXPECT_GT(m_wide, m_narrow);
  // And it is roughly scale-free in the record count.
  EXPECT_NEAR(OneMIndexing::OptimalM(1000, narrow),
              OneMIndexing::OptimalM(100000, narrow), 1);
}

TEST(OneM, DefaultUsesOptimalM) {
  const auto dataset = MakeDataset(400);
  const OneMIndexing scheme =
      OneMIndexing::Build(dataset, SmallGeometry(), 0).value();
  EXPECT_EQ(scheme.m(), OneMIndexing::OptimalM(400, SmallGeometry()));
}

TEST(OneM, RejectsBadM) {
  const auto dataset = MakeDataset(10);
  EXPECT_FALSE(OneMIndexing::Build(dataset, SmallGeometry(), -3).ok());
  EXPECT_FALSE(OneMIndexing::Build(dataset, SmallGeometry(), 11).ok());
  EXPECT_TRUE(OneMIndexing::Build(dataset, SmallGeometry(), 10).ok());
}

TEST(OneM, MEqualsOneDegeneratesToSingleIndexSegment) {
  const auto dataset = MakeDataset(50);
  const OneMIndexing scheme =
      OneMIndexing::Build(dataset, SmallGeometry(), 1).value();
  EXPECT_EQ(scheme.view().num_index_buckets(),
            scheme.tree().nodes().size());
  const AccessResult result = scheme.Access(dataset->record(25).key, 0);
  EXPECT_TRUE(result.found);
}

}  // namespace
}  // namespace airindex
