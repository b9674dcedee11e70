// Unit tests for distributed indexing: replication structure, control
// index, the next-broadcast rule, and tuning-time bounds.

#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "des/random.h"
#include "inflated_channel.h"
#include "schemes/distributed.h"

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
  geometry.record_bytes = 30;  // fanout = 30/10 = 3, like the paper's figure
  geometry.key_bytes = 6;
  return geometry;
}

TEST(Distributed, PaperFigure1ReplicationCounts) {
  // 81 records, fanout 3, r = 2: replicated nodes are I (depth 0) and the
  // a-level (depth 1). I is broadcast 3 times, each a-node 3 times; the
  // b- and c-levels once each. Total index buckets = 12 + 36 = 48.
  const auto dataset = MakeDataset(81);
  const DistributedIndexing scheme =
      DistributedIndexing::Build(dataset, SmallGeometry(), 2).value();
  EXPECT_EQ(scheme.replicated_levels(), 2);
  EXPECT_EQ(scheme.num_segments(), 9);
  const InflatedChannel channel(scheme);
  EXPECT_EQ(scheme.view().num_index_buckets(), 48u);
  EXPECT_EQ(scheme.view().num_data_buckets(), 81u);
  EXPECT_TRUE(ValidateProgramStructure(scheme.view()).ok());

  // Count occurrences per (level, range) pair.
  std::map<std::pair<std::string, std::string>, int> occurrences;
  for (std::size_t i = 0; i < channel.num_buckets(); ++i) {
    const Bucket& bucket = channel.bucket(i);
    if (bucket.kind == BucketKind::kIndex) {
      ++occurrences[{bucket.range_lo, bucket.range_hi}];
    }
  }
  // The root's full range appears 3 times.
  EXPECT_EQ((occurrences[{dataset->min_key(), dataset->max_key()}]), 3);
}

TEST(Distributed, FirstSegmentEmitsFullPath) {
  const auto dataset = MakeDataset(81);
  const DistributedIndexing scheme =
      DistributedIndexing::Build(dataset, SmallGeometry(), 2).value();
  const InflatedChannel channel(scheme);
  // Cycle starts: root (covers all), a1, b1, c1..c3, then data.
  EXPECT_EQ(channel.bucket(0).kind, BucketKind::kIndex);
  EXPECT_EQ(channel.bucket(0).range_hi, dataset->max_key());
  EXPECT_EQ(channel.bucket(1).kind, BucketKind::kIndex);
  EXPECT_EQ(channel.bucket(1).range_lo, dataset->min_key());
  EXPECT_EQ(channel.bucket(1).range_hi, dataset->record(26).key);  // a1
  EXPECT_EQ(channel.bucket(2).range_hi, dataset->record(8).key);   // b1
  EXPECT_EQ(channel.bucket(3).range_hi, dataset->record(2).key);   // c1
  // last_broadcast_key is empty at the very start of the cycle.
  EXPECT_TRUE(channel.bucket(0).last_broadcast_key.empty());
}

TEST(Distributed, ControlIndexPointsForward) {
  const auto dataset = MakeDataset(81);
  const DistributedIndexing scheme =
      DistributedIndexing::Build(dataset, SmallGeometry(), 2).value();
  const InflatedChannel channel(scheme);
  for (std::size_t i = 0; i < channel.num_buckets(); ++i) {
    const Bucket& bucket = channel.bucket(i);
    if (bucket.kind != BucketKind::kIndex) continue;
    for (const PointerEntry& entry : bucket.control) {
      // Every control target is a bucket start of an index bucket whose
      // range contains this bucket's range.
      const std::size_t target = channel.BucketStartingAtPhase(entry.target_phase);
      ASSERT_LT(target, channel.num_buckets());
      const Bucket& ancestor = channel.bucket(target);
      EXPECT_EQ(ancestor.kind, BucketKind::kIndex);
      EXPECT_LE(ancestor.range_lo, bucket.range_lo);
      EXPECT_GE(ancestor.range_hi, bucket.range_hi);
    }
  }
}

TEST(Distributed, FindsEveryKeyFromManyTuneIns) {
  const auto dataset = MakeDataset(81);
  const DistributedIndexing scheme =
      DistributedIndexing::Build(dataset, SmallGeometry(), 2).value();
  Rng rng(21);
  for (int r = 0; r < dataset->size(); ++r) {
    for (int trial = 0; trial < 3; ++trial) {
      const Bytes tune_in =
          static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
              2 * scheme.view().cycle_bytes())));
      const AccessResult result =
          scheme.Access(dataset->record(r).key, tune_in);
      ASSERT_TRUE(result.found) << "record " << r << " tune_in " << tune_in;
      EXPECT_EQ(result.anomalies, 0);
    }
  }
}

TEST(Distributed, AllReplicationLevelsWork) {
  const auto dataset = MakeDataset(200);
  const BucketGeometry geometry = SmallGeometry();
  for (int r = 0; r < 5; ++r) {
    const auto built = DistributedIndexing::Build(dataset, geometry, r);
    ASSERT_TRUE(built.ok()) << "r=" << r << ": " << built.status().ToString();
    EXPECT_TRUE(ValidateProgramStructure(built.value().view()).ok());
    Rng rng(100 + static_cast<std::uint64_t>(r));
    for (int trial = 0; trial < 200; ++trial) {
      const int rec = static_cast<int>(rng.NextBounded(200));
      const Bytes tune_in = static_cast<Bytes>(rng.NextBounded(
          static_cast<std::uint64_t>(built.value().view().cycle_bytes())));
      const AccessResult result =
          built.value().Access(dataset->record(rec).key, tune_in);
      ASSERT_TRUE(result.found) << "r=" << r;
      ASSERT_EQ(result.anomalies, 0) << "r=" << r;
    }
  }
  // r == tree height is rejected.
  EXPECT_FALSE(DistributedIndexing::Build(dataset, geometry, 5).ok());
}

TEST(Distributed, AbsentKeysConcludeQuickly) {
  const auto dataset = MakeDataset(81);
  const DistributedIndexing scheme =
      DistributedIndexing::Build(dataset, SmallGeometry(), 2).value();
  const int k = scheme.tree().height();
  Rng rng(31);
  for (int i = 0; i <= dataset->size(); ++i) {
    const Bytes tune_in =
        static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
            scheme.view().cycle_bytes())));
    const AccessResult result = scheme.Access(dataset->AbsentKey(i), tune_in);
    EXPECT_FALSE(result.found);
    EXPECT_EQ(result.anomalies, 0);
    // Even with one restart, the probe count stays within ~2 descents.
    EXPECT_LE(result.probes, 2 * k + 2);
  }
}

TEST(Distributed, TuningStaysNearTreeHeight) {
  const auto dataset = MakeDataset(81);
  const DistributedIndexing scheme =
      DistributedIndexing::Build(dataset, SmallGeometry(), 2).value();
  const int k = scheme.tree().height();
  const Bytes dt = 30;
  Rng rng(41);
  double total = 0;
  constexpr int kTrials = 2000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const int rec = static_cast<int>(rng.NextBounded(81));
    const Bytes tune_in =
        static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
            scheme.view().cycle_bytes())));
    const AccessResult result = scheme.Access(dataset->record(rec).key, tune_in);
    ASSERT_TRUE(result.found);
    total += static_cast<double>(result.tuning_time);
    // Upper bound: initial wait + first bucket + restart root + climb +
    // full descent + download.
    EXPECT_LE(result.tuning_time, static_cast<Bytes>(2 * k + 4) * dt);
  }
  const double mean = total / kTrials;
  // The paper's model says (k + 1.5) Dt; our protocol adds the first
  // bucket and occasional restarts/climbs, so allow [k+1.5, k+4].
  EXPECT_GE(mean, (k + 1.5) * static_cast<double>(dt));
  EXPECT_LE(mean, (k + 4.0) * static_cast<double>(dt));
}

TEST(Distributed, DefaultROptimizesModelAccess) {
  const auto dataset = MakeDataset(500);
  const DistributedIndexing scheme =
      DistributedIndexing::Build(dataset, SmallGeometry()).value();
  EXPECT_EQ(scheme.replicated_levels(),
            DistributedIndexing::OptimalR(500, SmallGeometry()));
}

}  // namespace
}  // namespace airindex
