// Unit tests for the multichannel broadcast engine: ChannelGroup
// construction and validation, MultiChannelProgram builder rejections,
// and the channel-accounting behaviour of the three allocation
// strategies' walkers.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "broadcast/channel_group.h"
#include "des/random.h"
#include "schemes/multichannel.h"
#include "schemes/scheme.h"

namespace airindex {
namespace {

std::shared_ptr<const Dataset> MakeDataset(int n, int key_width = 8) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = key_width;
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

MultiChannelParams Params(int channels, ChannelAllocation allocation,
                          Bytes switch_cost = 0) {
  MultiChannelParams params;
  params.num_channels = channels;
  params.allocation = allocation;
  params.switch_cost_bytes = switch_cost;
  return params;
}

Channel FlatDataChannel(int num_buckets, Bytes bucket_bytes) {
  std::vector<Bucket> buckets;
  for (int i = 0; i < num_buckets; ++i) {
    Bucket bucket;
    bucket.kind = BucketKind::kData;
    bucket.size = bucket_bytes;
    bucket.record_id = i;
    buckets.push_back(std::move(bucket));
  }
  return Channel::Create(std::move(buckets)).value();
}

TEST(ChannelGroupTest, RejectsEmptyGroupAndNegativeSwitchCost) {
  EXPECT_FALSE(ChannelGroup::Create({}, 0).ok());
  EXPECT_FALSE(
      ChannelGroup::Create({FlatDataChannel(2, 100)}, -1).ok());
}

TEST(ChannelGroupTest, AggregatesShape) {
  std::vector<Channel> channels;
  channels.push_back(FlatDataChannel(2, 100));
  channels.push_back(FlatDataChannel(5, 100));
  const ChannelGroup group =
      ChannelGroup::Create(std::move(channels), 40).value();
  EXPECT_EQ(group.num_channels(), 2);
  EXPECT_EQ(group.max_cycle_bytes(), 500);
  EXPECT_EQ(group.num_buckets(), 7u);
  EXPECT_EQ(group.switch_cost_bytes(), 40);
  // Hopping costs 40 bytes; staying is free.
  EXPECT_EQ(group.SwitchCompleteTime(0, 1, 1000), 1040);
  EXPECT_EQ(group.SwitchCompleteTime(1, 1, 1000), 1000);
  // Two channels transmit in parallel: by t=200 channel 0 finished 2
  // buckets and channel 1 finished 2 (the server sums its channels'
  // views).
  std::size_t data_buckets = 0;
  std::int64_t broadcast = 0;
  for (int c = 0; c < group.num_channels(); ++c) {
    const ArenaChannelView view = ArenaChannelView::Flatten(group.channel(c));
    data_buckets += view.num_data_buckets();
    broadcast += view.BucketsBroadcastBy(200);
  }
  EXPECT_EQ(data_buckets, 7u);
  EXPECT_EQ(broadcast, 4);
}

TEST(ChannelGroupTest, ValidatesCrossChannelPointerTargets) {
  // An index bucket on channel 0 pointing into channel 1.
  auto make_group = [](int target_channel, Bytes target_phase) {
    Bucket index;
    index.kind = BucketKind::kIndex;
    index.size = 100;
    index.level = 0;
    static const std::string kLo = "a", kHi = "z";
    index.range_lo = kLo;
    index.range_hi = kHi;
    PointerEntry entry;
    entry.key_lo = kLo;
    entry.key_hi = kHi;
    entry.target_phase = target_phase;
    entry.target_channel = target_channel;
    index.local.push_back(entry);
    std::vector<Bucket> index_buckets;
    index_buckets.push_back(std::move(index));
    std::vector<Channel> channels;
    channels.push_back(Channel::Create(std::move(index_buckets)).value());
    channels.push_back(FlatDataChannel(3, 50));
    return ChannelGroup::Create(std::move(channels), 0).value();
  };
  // Phase 50 is a bucket start on channel 1 — valid.
  EXPECT_TRUE(ValidateChannelGroupStructure(make_group(1, 50)).ok());
  // Phase 50 relative to the target channel's cycle, but channel 2 does
  // not exist — invalid.
  EXPECT_FALSE(ValidateChannelGroupStructure(make_group(2, 50)).ok());
  // Mid-bucket phase on the target channel — invalid.
  EXPECT_FALSE(ValidateChannelGroupStructure(make_group(1, 25)).ok());
  // Phase beyond the target channel's cycle — invalid.
  EXPECT_FALSE(ValidateChannelGroupStructure(make_group(1, 150)).ok());
}

TEST(MultiChannelProgramTest, BuilderRejectsBadParameters) {
  const auto dataset = MakeDataset(100);
  const BucketGeometry geometry;
  // A single channel must bypass the wrapper, not build it.
  EXPECT_FALSE(MultiChannelProgram::Build(
                   SchemeKind::kFlat, dataset, geometry, {},
                   Params(1, ChannelAllocation::kDataPartitioned))
                   .ok());
  EXPECT_FALSE(MultiChannelProgram::Build(
                   SchemeKind::kFlat, dataset, geometry, {},
                   Params(65, ChannelAllocation::kDataPartitioned))
                   .ok());
  EXPECT_FALSE(MultiChannelProgram::Build(
                   SchemeKind::kFlat, dataset, geometry, {},
                   Params(4, ChannelAllocation::kDataPartitioned, -5))
                   .ok());
  // Fewer records than data partitions.
  EXPECT_FALSE(MultiChannelProgram::Build(
                   SchemeKind::kFlat, MakeDataset(2), geometry, {},
                   Params(4, ChannelAllocation::kDataPartitioned))
                   .ok());
}

class AllocationTest : public testing::TestWithParam<ChannelAllocation> {};

TEST_P(AllocationTest, StructureAndPartitionShape) {
  const ChannelAllocation allocation = GetParam();
  const auto dataset = MakeDataset(120);
  const auto program =
      MultiChannelProgram::Build(SchemeKind::kFlat, dataset, BucketGeometry{},
                                 {}, Params(3, allocation, 80))
          .value();
  EXPECT_TRUE(ValidateChannelGroupStructure(program->group()).ok());
  EXPECT_EQ(program->group().num_channels(), 3);
  EXPECT_EQ(program->allocation(), allocation);
  // Index-on-one reserves channel 0 for the index, so only two data
  // partitions; the other allocations partition over all three.
  const int expected_partitions =
      allocation == ChannelAllocation::kIndexOnOne ? 2 : 3;
  EXPECT_EQ(program->num_partitions(), expected_partitions);
  // Every record belongs to a data channel, in key order.
  const int first_data_channel =
      allocation == ChannelAllocation::kIndexOnOne ? 1 : 0;
  int previous_home = first_data_channel;
  for (int r = 0; r < dataset->size(); ++r) {
    const int home = program->HomeChannel(dataset->record(r).key);
    EXPECT_GE(home, previous_home);
    EXPECT_LT(home, 3);
    previous_home = home;
  }
  EXPECT_EQ(previous_home, 2) << "last partition never used";
}

TEST_P(AllocationTest, WalksFindEveryKeyAndAccountForHops) {
  const ChannelAllocation allocation = GetParam();
  constexpr Bytes kSwitchCost = 120;
  const auto dataset = MakeDataset(90);
  const auto program =
      MultiChannelProgram::Build(SchemeKind::kOneM, dataset, BucketGeometry{},
                                 {}, Params(3, allocation, kSwitchCost))
          .value();
  Rng rng(99);
  const Bytes horizon = 2 * program->group().max_cycle_bytes();
  int hops_seen = 0;
  for (int r = 0; r < dataset->size(); ++r) {
    const Bytes tune_in =
        static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(horizon)));
    const AccessResult result = program->Access(dataset->record(r).key, tune_in);
    ASSERT_TRUE(result.found) << "record " << r;
    ASSERT_EQ(result.anomalies, 0);
    ASSERT_EQ(result.start_channel, program->StartChannel(tune_in));
    if (allocation == ChannelAllocation::kIndexOnOne) {
      // The index channel carries no data: every hit hops exactly once.
      ASSERT_EQ(result.start_channel, 0);
      ASSERT_EQ(result.channel_hops, 1);
    }
    ASSERT_EQ(result.switch_bytes,
              static_cast<Bytes>(result.channel_hops) * kSwitchCost);
    if (result.channel_hops == 1) {
      ASSERT_EQ(result.final_channel,
                program->HomeChannel(dataset->record(r).key));
      ++hops_seen;
    } else {
      ASSERT_EQ(result.final_channel, result.start_channel);
    }
  }
  // With three channels, a uniform key sample must hop sometimes.
  EXPECT_GT(hops_seen, 0);
  // Absent keys terminate without finding anything.
  for (int i = 0; i <= dataset->size(); i += 7) {
    const AccessResult result = program->Access(dataset->absent_key(i), 0);
    ASSERT_FALSE(result.found) << "absent " << i;
    ASSERT_EQ(result.anomalies, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Allocations, AllocationTest,
    testing::Values(ChannelAllocation::kIndexOnOne,
                    ChannelAllocation::kDataPartitioned,
                    ChannelAllocation::kReplicatedIndex),
    [](const testing::TestParamInfo<ChannelAllocation>& info) {
      std::string name = ChannelAllocationToString(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(MultiChannelProgramTest, StartChannelIsAPureHashOfTuneIn) {
  const auto dataset = MakeDataset(60);
  const auto program =
      MultiChannelProgram::Build(
          SchemeKind::kFlat, dataset, BucketGeometry{}, {},
          Params(4, ChannelAllocation::kDataPartitioned))
          .value();
  std::vector<int> counts(4, 0);
  for (Bytes t = 0; t < 4000; t += 13) {
    const int start = program->StartChannel(t);
    ASSERT_GE(start, 0);
    ASSERT_LT(start, 4);
    ASSERT_EQ(start, program->StartChannel(t)) << "not deterministic";
    ++counts[static_cast<std::size_t>(start)];
  }
  for (int c = 0; c < 4; ++c) {
    EXPECT_GT(counts[static_cast<std::size_t>(c)], 0)
        << "channel " << c << " never chosen";
  }
}

TEST(MultiChannelProgramTest, DataPartitionedAcceptsEveryRegisteredScheme) {
  const auto dataset = MakeDataset(80);
  for (const SchemeKind kind :
       {SchemeKind::kFlat, SchemeKind::kOneM, SchemeKind::kDistributed,
        SchemeKind::kHashing, SchemeKind::kSignature,
        SchemeKind::kIntegratedSignature, SchemeKind::kMultiLevelSignature,
        SchemeKind::kBroadcastDisks, SchemeKind::kHybrid}) {
    auto program = MultiChannelProgram::Build(
        kind, dataset, BucketGeometry{}, {},
        Params(2, ChannelAllocation::kDataPartitioned));
    ASSERT_TRUE(program.ok())
        << SchemeKindToString(kind) << ": " << program.status().ToString();
    const AccessResult result =
        program.value()->Access(dataset->record(10).key, 0);
    EXPECT_TRUE(result.found) << SchemeKindToString(kind);
  }
}

}  // namespace
}  // namespace airindex
