// Unit tests for the multichannel broadcast engine: MultiChannelProgram
// builder rejections, the structure of its channel views, and the
// channel-accounting behaviour of the three allocation strategies'
// walkers.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "broadcast/schedule.h"
#include "bucket_oracle.h"
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

ArenaChannelView FlatDataChannel(int num_buckets, Bytes bucket_bytes) {
  std::vector<Bucket> buckets;
  for (int i = 0; i < num_buckets; ++i) {
    Bucket bucket;
    bucket.kind = BucketKind::kData;
    bucket.size = bucket_bytes;
    bucket.record_id = i;
    buckets.push_back(std::move(bucket));
  }
  return ViewOfBuckets(std::move(buckets)).value();
}

// The program's channel views, in channel order.
std::vector<ArenaChannelView> ChannelViews(const MultiChannelProgram& program) {
  std::vector<ArenaChannelView> views;
  for (int c = 0; c < program.num_channels(); ++c) {
    views.push_back(program.channel_view(c));
  }
  return views;
}

TEST(MultiChannelViewsTest, ChannelsOfDifferentCyclesAggregate) {
  const std::vector<ArenaChannelView> channels = {FlatDataChannel(2, 100),
                                                  FlatDataChannel(5, 100)};
  // Two channels transmit in parallel: by t=200 channel 0 finished 2
  // buckets and channel 1 finished 2 (the server sums its channels'
  // views).
  std::size_t data_buckets = 0;
  std::int64_t broadcast = 0;
  for (const ArenaChannelView& view : channels) {
    data_buckets += view.num_data_buckets();
    broadcast += view.BucketsBroadcastBy(200);
  }
  EXPECT_EQ(data_buckets, 7u);
  EXPECT_EQ(broadcast, 4);
  EXPECT_EQ(channels[0].cycle_bytes(), 200);
  EXPECT_EQ(channels[1].cycle_bytes(), 500);
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
  EXPECT_TRUE(ValidateProgramStructure(ChannelViews(*program)).ok());
  EXPECT_EQ(program->num_channels(), 3);
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
  Bytes horizon = 0;
  for (const ArenaChannelView& view : ChannelViews(*program)) {
    horizon = std::max(horizon, 2 * view.cycle_bytes());
  }
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

// --- walk golden ---------------------------------------------------------
//
// Pins the three allocations' walks exactly: per case, 400 seeded
// (key, tune-in) draws, every fifth key absent, each AccessResult field
// summed over the draws, plus every channel's cycle bytes and bucket
// count. Any change to a walk's phase arithmetic, leaf hop or channel
// accounting moves a sum.

struct WalkSums {
  std::int64_t access_time = 0;
  std::int64_t tuning_time = 0;
  std::int64_t probes = 0;
  std::int64_t index_probes = 0;
  std::int64_t false_drops = 0;
  std::int64_t overflow_hops = 0;
  std::int64_t anomalies = 0;
  std::int64_t found = 0;
  std::int64_t channel_hops = 0;
  std::int64_t switch_bytes = 0;
  std::int64_t final_channel_tuning = 0;
  std::int64_t start_channel = 0;
  std::int64_t final_channel = 0;

  bool operator==(const WalkSums&) const = default;
};

void PrintTo(const WalkSums& s, std::ostream* os) {
  *os << "{" << s.access_time << ", " << s.tuning_time << ", " << s.probes
      << ", " << s.index_probes << ", " << s.false_drops << ", "
      << s.overflow_hops << ", " << s.anomalies << ", " << s.found << ", "
      << s.channel_hops << ", " << s.switch_bytes << ", "
      << s.final_channel_tuning << ", " << s.start_channel << ", "
      << s.final_channel << "}";
}

struct ChannelShape {
  Bytes cycle_bytes = 0;
  std::size_t num_buckets = 0;

  bool operator==(const ChannelShape&) const = default;
};

void PrintTo(const ChannelShape& s, std::ostream* os) {
  *os << "{" << s.cycle_bytes << ", " << s.num_buckets << "}";
}

struct WalkGolden {
  const char* name;
  ChannelAllocation allocation;
  SchemeKind kind;
  bool scheduled;
  int channels;
  WalkSums sums;
  std::vector<ChannelShape> shape;
};

WalkSums SumWalks(const MultiChannelProgram& program, const Dataset& dataset,
                  int channels) {
  Bytes max_cycle = 0;
  for (int c = 0; c < channels; ++c) {
    max_cycle = std::max(max_cycle, program.channel_view(c).cycle_bytes());
  }
  Rng rng(0x6d756c7469ULL);
  WalkSums sums;
  for (int i = 0; i < 400; ++i) {
    const int r = static_cast<int>(
        rng.NextBounded(static_cast<std::uint64_t>(dataset.size())));
    const std::string_view key =
        i % 5 == 4 ? dataset.absent_key(r) : dataset.record(r).key;
    const Bytes tune_in = static_cast<Bytes>(
        rng.NextBounded(static_cast<std::uint64_t>(2 * max_cycle)));
    const AccessResult a = program.Access(key, tune_in);
    sums.access_time += a.access_time;
    sums.tuning_time += a.tuning_time;
    sums.probes += a.probes;
    sums.index_probes += a.index_probes;
    sums.false_drops += a.false_drops;
    sums.overflow_hops += a.overflow_hops;
    sums.anomalies += a.anomalies;
    sums.found += a.found ? 1 : 0;
    sums.channel_hops += a.channel_hops;
    sums.switch_bytes += a.switch_bytes;
    sums.final_channel_tuning += a.final_channel_tuning;
    sums.start_channel += a.start_channel;
    sums.final_channel += a.final_channel;
  }
  return sums;
}

TEST(MultiChannelWalkGolden, SumsAndShapesArePinned) {
  constexpr Bytes kSwitchCost = 120;
  const auto dataset = MakeDataset(1500);
  const std::vector<WalkGolden> goldens = {
      // clang-format off
      {"index-on-one (1,m) x2", ChannelAllocation::kIndexOnOne,
       SchemeKind::kOneM, false, 2,
       {140575744, 1057744, 1915, 1595, 0, 0, 0, 320, 320, 38400, 160000, 0, 320},
       {{48000, 96}, {750000, 1500}}},
      {"index-on-one (1,m) x4", ChannelAllocation::kIndexOnOne,
       SchemeKind::kOneM, false, 4,
       {58441388, 1053388, 1915, 1595, 0, 0, 0, 320, 320, 38400, 160000, 0, 650},
       {{48000, 96}, {250000, 500}, {250000, 500}, {250000, 500}}},
      {"replicated-index (1,m) x2", ChannelAllocation::kReplicatedIndex,
       SchemeKind::kOneM, false, 2,
       {164633375, 1057375, 1915, 1240, 0, 0, 0, 320, 171, 20520, 85500, 209, 206},
       {{423000, 846}, {423000, 846}}},
      {"replicated-index (1,m) x4", ChannelAllocation::kReplicatedIndex,
       SchemeKind::kOneM, false, 4,
       {94787241, 1055741, 1915, 1286, 0, 0, 0, 320, 229, 27480, 114500, 620, 617},
       {{235500, 471}, {235500, 471}, {235500, 471}, {235500, 471}}},
      {"data-partitioned flat x2", ChannelAllocation::kDataPartitioned,
       SchemeKind::kFlat, false, 2,
       {90079471, 90056431, 179775, 0, 0, 0, 0, 320, 192, 23040, 42184460, 202, 200},
       {{375000, 750}, {375000, 750}}},
      {"data-partitioned flat x4", ChannelAllocation::kDataPartitioned,
       SchemeKind::kFlat, false, 4,
       {45153329, 45118649, 89819, 0, 0, 0, 0, 320, 289, 34680, 32215820, 559, 610},
       {{187500, 375}, {187500, 375}, {187500, 375}, {187500, 375}}},
      {"data-partitioned (1,m) x2", ChannelAllocation::kDataPartitioned,
       SchemeKind::kOneM, false, 2,
       {106515817, 1335257, 2314, 1364, 0, 0, 0, 320, 213, 25560, 590940, 185, 200},
       {{473000, 946}, {473000, 946}}},
      {"data-partitioned (1,m) x4", ChannelAllocation::kDataPartitioned,
       SchemeKind::kOneM, false, 4,
       {52562318, 1370058, 2316, 1377, 0, 0, 0, 320, 298, 35760, 827240, 613, 610},
       {{239500, 479}, {239500, 479}, {239500, 479}, {239500, 479}}},
      {"data-partitioned distributed x2", ChannelAllocation::kDataPartitioned,
       SchemeKind::kDistributed, false, 2,
       {85682212, 1462812, 2583, 1561, 0, 0, 0, 320, 195, 23400, 604600, 191, 200},
       {{421500, 843}, {421500, 843}}},
      {"data-partitioned distributed x4", ChannelAllocation::kDataPartitioned,
       SchemeKind::kDistributed, false, 4,
       {43827786, 1457986, 2470, 1439, 0, 0, 0, 320, 315, 37800, 927700, 530, 610},
       {{211500, 423}, {211500, 423}, {211500, 423}, {211500, 423}}},
      {"data-partitioned hashing x2", ChannelAllocation::kDataPartitioned,
       SchemeKind::kHashing, false, 2,
       {129050182, 1112262, 1874, 800, 0, 220, 0, 320, 191, 22920, 431080, 203, 200},
       {{519000, 1038}, {509500, 1019}}},
      {"data-partitioned hashing x4", ChannelAllocation::kDataPartitioned,
       SchemeKind::kHashing, false, 4,
       {67816076, 1138656, 1857, 799, 0, 209, 0, 320, 291, 34920, 643580, 591, 610},
       {{260000, 520}, {259000, 518}, {257000, 514}, {255000, 510}}},
      {"data-partitioned signature x2", ChannelAllocation::kDataPartitioned,
       SchemeKind::kSignature, false, 2,
       {92903944, 3443584, 180523, 179924, 266, 0, 0, 320, 203, 24360, 1669960, 189, 200},
       {{387000, 1500}, {387000, 1500}}},
      {"data-partitioned signature x4", ChannelAllocation::kDataPartitioned,
       SchemeKind::kSignature, false, 4,
       {46529860, 1938640, 90523, 90043, 147, 0, 0, 320, 306, 36720, 1385356, 600, 610},
       {{193500, 750}, {193500, 750}, {193500, 750}, {193500, 750}}},
      {"data-partitioned (1,m) sqrt x2", ChannelAllocation::kDataPartitioned,
       SchemeKind::kOneM, true, 2,
       {140742408, 1343368, 2320, 1643, 0, 0, 0, 320, 217, 26040, 600460, 195, 200},
       {{764500, 1529}, {399500, 799}}},
      {"data-partitioned (1,m) sqrt x4", ChannelAllocation::kDataPartitioned,
       SchemeKind::kOneM, true, 4,
       {74945862, 1370102, 2320, 1638, 0, 0, 0, 320, 298, 35760, 828740, 611, 610},
       {{282500, 565}, {200500, 401}, {200500, 401}, {200500, 401}}},
      // clang-format on
  };
  for (const WalkGolden& golden : goldens) {
    SCOPED_TRACE(golden.name);
    SchemeParams params;
    if (golden.scheduled) {
      params.schedule.scheduler = SchedulerKind::kSquareRoot;
      params.schedule.theta = 0.9;
    }
    const auto program =
        MultiChannelProgram::Build(
            golden.kind, dataset, BucketGeometry{}, params,
            Params(golden.channels, golden.allocation, kSwitchCost))
            .value();
    std::vector<ChannelShape> shape;
    for (int c = 0; c < golden.channels; ++c) {
      shape.push_back({program->channel_view(c).cycle_bytes(),
                       program->channel_view(c).num_buckets()});
    }
    EXPECT_EQ(shape, golden.shape);
    EXPECT_EQ(SumWalks(*program, *dataset, golden.channels), golden.sums);
  }
}

}  // namespace
}  // namespace airindex
