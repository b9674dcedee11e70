// Unit and property tests for flat (plain) broadcast, and for the
// scheduled scan walk that kFlat runs under an active scheduler.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "des/random.h"
#include "inflated_channel.h"
#include "scan_oracle.h"
#include "schemes/flat.h"
#include "schemes/scheme.h"

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
  geometry.record_bytes = 100;
  geometry.key_bytes = 6;
  return geometry;
}

// Pins `scheme`'s closed-form scan walk to the bucket-by-bucket oracle
// over random keys (70% present) and tune-in times across three cycles.
void ExpectScanWalkMatchesOracle(const BroadcastScheme& scheme,
                                 const Dataset& dataset) {
  const Bytes cycle = scheme.view().cycle_bytes();
  const InflatedChannel channel(scheme);
  const int n = dataset.size();
  Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    const Bytes tune_in = static_cast<Bytes>(
        rng.NextBounded(static_cast<std::uint64_t>(3 * cycle)));
    const bool present = rng.NextBernoulli(0.7);
    const std::string key =
        present ? dataset
                      .record(static_cast<int>(rng.NextBounded(
                          static_cast<std::uint64_t>(n))))
                      .key
                : dataset.AbsentKey(static_cast<int>(
                      rng.NextBounded(static_cast<std::uint64_t>(n + 1))));
    const AccessResult fast = scheme.Access(key, tune_in);
    const AccessResult reference =
        ScanOracle(channel, dataset, key, tune_in);
    ASSERT_EQ(fast.found, reference.found) << key << " @" << tune_in;
    ASSERT_EQ(fast.access_time, reference.access_time) << key << " @" << tune_in;
    ASSERT_EQ(fast.tuning_time, reference.tuning_time) << key << " @" << tune_in;
    ASSERT_EQ(fast.probes, reference.probes) << key << " @" << tune_in;
  }
}

TEST(Flat, ChannelIsAllDataInKeyOrder) {
  const auto dataset = MakeDataset(20);
  const FlatBroadcast scheme =
      FlatBroadcast::Build(dataset, SmallGeometry()).value();
  const InflatedChannel channel(scheme);
  EXPECT_EQ(channel.num_buckets(), 20u);
  EXPECT_EQ(scheme.view().num_data_buckets(), 20u);
  EXPECT_EQ(channel.cycle_bytes(), 2000);
  for (std::size_t i = 0; i < channel.num_buckets(); ++i) {
    EXPECT_EQ(channel.bucket(i).record_id, static_cast<std::int64_t>(i));
  }
}

TEST(Flat, ExactTimesFromBucketBoundary) {
  const auto dataset = MakeDataset(10);
  const FlatBroadcast scheme =
      FlatBroadcast::Build(dataset, SmallGeometry()).value();
  // Tuning in exactly at the start of bucket 0, asking for record 3:
  // reads buckets 0..3 => 400 bytes, no initial wait.
  const AccessResult result = scheme.Access(dataset->record(3).key, 0);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.access_time, 400);
  EXPECT_EQ(result.tuning_time, 400);
  EXPECT_EQ(result.probes, 4);
}

TEST(Flat, InitialWaitCharged) {
  const auto dataset = MakeDataset(10);
  const FlatBroadcast scheme =
      FlatBroadcast::Build(dataset, SmallGeometry()).value();
  // Tune in 30 bytes into bucket 0: wait 70, then buckets 1..3.
  const AccessResult result = scheme.Access(dataset->record(3).key, 30);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.access_time, 70 + 300);
  EXPECT_EQ(result.tuning_time, result.access_time);
}

TEST(Flat, WrapsToNextCycleWhenPassed) {
  const auto dataset = MakeDataset(10);
  const FlatBroadcast scheme =
      FlatBroadcast::Build(dataset, SmallGeometry()).value();
  // At bucket 5's start, record 3 already passed: read 5..9 then 0..3.
  const AccessResult result = scheme.Access(dataset->record(3).key, 500);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.probes, 9);
  EXPECT_EQ(result.access_time, 900);
}

TEST(Flat, AbsentKeyScansFullCycle) {
  const auto dataset = MakeDataset(10);
  const FlatBroadcast scheme =
      FlatBroadcast::Build(dataset, SmallGeometry()).value();
  const AccessResult result = scheme.Access(dataset->AbsentKey(4), 123);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.probes, 10);
  EXPECT_EQ(result.access_time, (100 - 23) + 1000);
}

TEST(Flat, FastPathEqualsReferenceEverywhere) {
  const auto dataset = MakeDataset(37);
  const FlatBroadcast scheme =
      FlatBroadcast::Build(dataset, SmallGeometry()).value();
  ExpectScanWalkMatchesOracle(scheme, *dataset);
}

// Under the square-root scheduler kFlat becomes the scheduled scan
// family: hot records repeat within the major cycle, and the closed-form
// next-occurrence walk must still equal a bucket-by-bucket scan.
TEST(Flat, SqrtScheduledScanEqualsReferenceEverywhere) {
  const auto dataset = MakeDataset(37);
  SchemeParams params;
  params.schedule.scheduler = SchedulerKind::kSquareRoot;
  params.schedule.theta = 0.9;
  const auto scheme =
      BuildScheme(SchemeKind::kFlat, dataset, SmallGeometry(), params).value();
  ASSERT_GT(scheme->view().num_buckets(), 37u);
  ExpectScanWalkMatchesOracle(*scheme, *dataset);
}

TEST(Flat, RejectsEmptyDataset) {
  EXPECT_FALSE(FlatBroadcast::Build(nullptr, SmallGeometry()).ok());
}

}  // namespace
}  // namespace airindex
