// Unit and property tests for the broadcast-disks scheduling extension:
// kBroadcastDisks builds the scheduled scan family over the fraction
// assignment of SchemeParams::broadcast_disks.

#include <algorithm>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "des/random.h"
#include "inflated_channel.h"
#include "scan_oracle.h"
#include "schemes/scheduled.h"
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

Result<std::unique_ptr<BroadcastScheme>> BuildDisks(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    const BroadcastDisksParams& disks = {}) {
  SchemeParams params;
  params.broadcast_disks = disks;
  return BuildScheme(SchemeKind::kBroadcastDisks, std::move(dataset),
                     geometry, params);
}

// The built program, viewed as the scheduled scan family it runs (any
// other type throws std::bad_cast, which fails the test).
const ScheduledBroadcast& Scheduled(const BroadcastScheme& scheme) {
  const auto& scheduled = dynamic_cast<const ScheduledBroadcast&>(scheme);
  EXPECT_EQ(scheduled.segment_style(), ScheduledSegmentStyle::kNone);
  return scheduled;
}

TEST(BroadcastDisks, DefaultLayoutFrequencies) {
  const auto dataset = MakeDataset(100);
  const auto built = BuildDisks(dataset, SmallGeometry()).value();
  const ScheduledBroadcast& scheme = Scheduled(*built);
  // 10 hot records 4x + 30 warm 2x + 60 cold 1x = 40 + 60 + 60 buckets.
  EXPECT_EQ(scheme.view().num_buckets(), 160u);
  for (int r = 0; r < 100; ++r) {
    const int expected_freq = r < 10 ? 4 : (r < 40 ? 2 : 1);
    EXPECT_EQ(scheme.OccurrencesOf(r), expected_freq) << "record " << r;
    EXPECT_EQ(scheme.DiskOf(r), r < 10 ? 0 : (r < 40 ? 1 : 2));
  }
  EXPECT_TRUE(ValidateProgramStructure(scheme.view()).ok());
}

TEST(BroadcastDisks, HotOccurrencesAreEvenlySpread) {
  const auto dataset = MakeDataset(100);
  const auto built = BuildDisks(dataset, SmallGeometry()).value();
  const BroadcastScheme& scheme = *built;
  // A hot record's four occurrences split the cycle into gaps no larger
  // than ~half the cycle (perfect spacing would be cycle/4).
  const Bytes cycle = scheme.view().cycle_bytes();
  const std::string_view hot = dataset->record(3).key;
  Bytes worst_gap = 0;
  Bytes t = 0;
  for (int i = 0; i < 8; ++i) {
    const AccessResult result = scheme.Access(hot, t);
    worst_gap = std::max(worst_gap, result.access_time);
    t += cycle / 8 + 1;
  }
  EXPECT_LE(worst_gap, cycle / 2);
}

TEST(BroadcastDisks, FindsEveryKeyAndMatchesReference) {
  const auto dataset = MakeDataset(60);
  const auto built = BuildDisks(dataset, SmallGeometry()).value();
  const BroadcastScheme& scheme = *built;
  const InflatedChannel channel(scheme);
  Rng rng(17);
  for (int trial = 0; trial < 2000; ++trial) {
    const bool present = rng.NextBernoulli(0.7);
    const std::string key =
        present
            ? std::string(
                  dataset->record(static_cast<int>(rng.NextBounded(60))).key)
            : dataset->AbsentKey(static_cast<int>(rng.NextBounded(61)));
    const Bytes tune_in =
        static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
            3 * scheme.view().cycle_bytes())));
    const AccessResult fast = scheme.Access(key, tune_in);
    const AccessResult reference =
        ScanOracle(channel, *dataset, key, tune_in);
    ASSERT_EQ(fast.found, present) << key;
    ASSERT_EQ(fast.found, reference.found);
    ASSERT_EQ(fast.access_time, reference.access_time) << key << "@" << tune_in;
    ASSERT_EQ(fast.tuning_time, reference.tuning_time);
    ASSERT_EQ(fast.probes, reference.probes);
  }
}

TEST(BroadcastDisks, HotRecordsFasterThanColdOnAverage) {
  const auto dataset = MakeDataset(200);
  const auto built = BuildDisks(dataset, SmallGeometry()).value();
  const BroadcastScheme& scheme = *built;
  Rng rng(23);
  double hot_total = 0;
  double cold_total = 0;
  constexpr int kTrials = 3000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Bytes tune_in =
        static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
            scheme.view().cycle_bytes())));
    hot_total += static_cast<double>(
        scheme.Access(dataset->record(trial % 20).key, tune_in).access_time);
    cold_total += static_cast<double>(
        scheme.Access(dataset->record(80 + trial % 120).key, tune_in)
            .access_time);
  }
  EXPECT_LT(hot_total * 2.0, cold_total);  // hot disk is 4x cold's rate
}

TEST(BroadcastDisks, SingleDiskDegeneratesToFlat) {
  const auto dataset = MakeDataset(30);
  BroadcastDisksParams params;
  params.disk_fractions = {1.0};
  params.disk_frequencies = {1};
  const auto built = BuildDisks(dataset, SmallGeometry(), params).value();
  const ScheduledBroadcast& scheme = Scheduled(*built);
  EXPECT_EQ(scheme.view().num_buckets(), 30u);
  for (int r = 0; r < 30; ++r) {
    EXPECT_EQ(scheme.OccurrencesOf(r), 1);
  }
}

TEST(BroadcastDisks, RejectsBadParams) {
  const auto dataset = MakeDataset(30);
  const BucketGeometry geometry = SmallGeometry();
  BroadcastDisksParams params;
  params.disk_fractions = {0.5, 0.6};  // sums to 1.1
  params.disk_frequencies = {2, 1};
  EXPECT_FALSE(BuildDisks(dataset, geometry, params).ok());
  params.disk_fractions = {0.5, 0.5};
  params.disk_frequencies = {3, 2};  // 2 does not divide 3
  EXPECT_FALSE(BuildDisks(dataset, geometry, params).ok());
  params.disk_frequencies = {1, 2};  // increasing
  EXPECT_FALSE(BuildDisks(dataset, geometry, params).ok());
  params.disk_frequencies = {2};  // length mismatch
  EXPECT_FALSE(BuildDisks(dataset, geometry, params).ok());
  // More disks than records.
  const auto tiny = MakeDataset(2);
  BroadcastDisksParams three;
  three.disk_fractions = {0.3, 0.3, 0.4};
  three.disk_frequencies = {4, 2, 1};
  EXPECT_FALSE(BuildDisks(tiny, geometry, three).ok());
}

}  // namespace
}  // namespace airindex
