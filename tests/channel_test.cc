// Unit tests for the broadcast channel: phase arithmetic (uniform and
// mixed bucket sizes), boundaries, and structural validation.

#include <vector>

#include <gtest/gtest.h>

#include "broadcast/channel.h"
#include "broadcast/geometry.h"
#include "schemes/channel_view.h"

namespace airindex {
namespace {

Bucket MakeBucket(BucketKind kind, Bytes size) {
  Bucket bucket;
  bucket.kind = kind;
  bucket.size = size;
  return bucket;
}

TEST(Channel, RejectsEmptyAndNonPositive) {
  EXPECT_FALSE(Channel::Create({}).ok());
  EXPECT_FALSE(Channel::Create({MakeBucket(BucketKind::kData, 0)}).ok());
  EXPECT_FALSE(Channel::Create({MakeBucket(BucketKind::kData, -5)}).ok());
}

TEST(Channel, UniformPhaseArithmetic) {
  std::vector<Bucket> buckets;
  for (int i = 0; i < 10; ++i) buckets.push_back(MakeBucket(BucketKind::kData, 100));
  const Channel channel = Channel::Create(std::move(buckets)).value();
  EXPECT_EQ(channel.cycle_bytes(), 1000);
  EXPECT_EQ(channel.num_buckets(), 10u);
  EXPECT_EQ(channel.BucketAtPhase(0), 0u);
  EXPECT_EQ(channel.BucketAtPhase(99), 0u);
  EXPECT_EQ(channel.BucketAtPhase(100), 1u);
  EXPECT_EQ(channel.BucketAtPhase(999), 9u);
  EXPECT_EQ(channel.start_phase(7), 700);
  EXPECT_EQ(channel.end_phase(7), 800);
}

TEST(Channel, MixedSizePhaseArithmetic) {
  std::vector<Bucket> buckets = {
      MakeBucket(BucketKind::kSignature, 16),
      MakeBucket(BucketKind::kData, 500),
      MakeBucket(BucketKind::kSignature, 16),
      MakeBucket(BucketKind::kData, 500),
  };
  const Channel channel = Channel::Create(std::move(buckets)).value();
  EXPECT_EQ(channel.cycle_bytes(), 1032);
  EXPECT_EQ(channel.BucketAtPhase(0), 0u);
  EXPECT_EQ(channel.BucketAtPhase(15), 0u);
  EXPECT_EQ(channel.BucketAtPhase(16), 1u);
  EXPECT_EQ(channel.BucketAtPhase(515), 1u);
  EXPECT_EQ(channel.BucketAtPhase(516), 2u);
  EXPECT_EQ(channel.BucketAtPhase(1031), 3u);
  // The arena view a scheme keeps in its place counts kinds and phases
  // the same way.
  const ArenaChannelView view = ArenaChannelView::Flatten(channel);
  EXPECT_EQ(view.cycle_bytes(), 1032);
  EXPECT_EQ(view.num_data_buckets(), 2u);
  EXPECT_EQ(view.num_signature_buckets(), 2u);
  EXPECT_EQ(view.num_index_buckets(), 0u);
  for (const Bytes phase : {0, 15, 16, 515, 516, 1031}) {
    EXPECT_EQ(view.BucketAtPhase(phase), channel.BucketAtPhase(phase));
  }
  EXPECT_EQ(view.end_phase(1), 516);
  EXPECT_EQ(view.BucketsBroadcastBy(1032 + 516), 6);
}

TEST(Channel, BucketStartingAtPhase) {
  std::vector<Bucket> buckets = {
      MakeBucket(BucketKind::kData, 10),
      MakeBucket(BucketKind::kData, 20),
  };
  const Channel channel = Channel::Create(std::move(buckets)).value();
  EXPECT_EQ(channel.BucketStartingAtPhase(0), 0u);
  EXPECT_EQ(channel.BucketStartingAtPhase(10), 1u);
  EXPECT_EQ(channel.BucketStartingAtPhase(5), channel.num_buckets());
}

TEST(Channel, NextBoundaryTime) {
  std::vector<Bucket> buckets = {
      MakeBucket(BucketKind::kData, 10),
      MakeBucket(BucketKind::kData, 20),
  };
  const Channel channel = Channel::Create(std::move(buckets)).value();
  EXPECT_EQ(channel.NextBoundaryTime(0), 0);    // already on a boundary
  EXPECT_EQ(channel.NextBoundaryTime(3), 10);
  EXPECT_EQ(channel.NextBoundaryTime(10), 10);
  EXPECT_EQ(channel.NextBoundaryTime(11), 30);
  // Across cycles: time 33 is phase 3 of the second cycle.
  EXPECT_EQ(channel.NextBoundaryTime(33), 40);
}

TEST(Channel, NextArrivalOfPhaseWraps) {
  std::vector<Bucket> buckets = {
      MakeBucket(BucketKind::kData, 10),
      MakeBucket(BucketKind::kData, 20),
  };
  const Channel channel = Channel::Create(std::move(buckets)).value();
  EXPECT_EQ(channel.NextArrivalOfPhase(10, 0), 10);
  EXPECT_EQ(channel.NextArrivalOfPhase(10, 10), 10);  // already there
  EXPECT_EQ(channel.NextArrivalOfPhase(0, 11), 30);   // wraps to next cycle
  EXPECT_EQ(channel.NextArrivalOfPhase(10, 95), 100);
}

TEST(Channel, ValidationAcceptsGoodPointers) {
  std::vector<Bucket> buckets = {
      MakeBucket(BucketKind::kIndex, 10),
      MakeBucket(BucketKind::kData, 10),
  };
  PointerEntry entry;
  entry.key_lo = "a";
  entry.key_hi = "b";
  entry.target_phase = 10;
  buckets[0].local.push_back(entry);
  buckets[0].range_lo = "a";
  buckets[0].range_hi = "b";
  const Channel channel = Channel::Create(std::move(buckets)).value();
  EXPECT_TRUE(ValidateChannelStructure(channel).ok());
}

TEST(Channel, ValidationCatchesMisalignedPointer) {
  std::vector<Bucket> buckets = {
      MakeBucket(BucketKind::kIndex, 10),
      MakeBucket(BucketKind::kData, 10),
  };
  PointerEntry entry;
  entry.target_phase = 7;  // not a bucket start
  buckets[0].local.push_back(entry);
  const Channel channel = Channel::Create(std::move(buckets)).value();
  EXPECT_FALSE(ValidateChannelStructure(channel).ok());
}

TEST(Channel, ValidationCatchesOutOfRangePhase) {
  std::vector<Bucket> buckets = {MakeBucket(BucketKind::kData, 10)};
  buckets[0].shift_phase = 999;
  const Channel channel = Channel::Create(std::move(buckets)).value();
  EXPECT_FALSE(ValidateChannelStructure(channel).ok());
}

TEST(Channel, ValidationCatchesInvertedRange) {
  std::vector<Bucket> buckets = {MakeBucket(BucketKind::kIndex, 10)};
  buckets[0].range_lo = "zz";
  buckets[0].range_hi = "aa";
  const Channel channel = Channel::Create(std::move(buckets)).value();
  EXPECT_FALSE(ValidateChannelStructure(channel).ok());
}

TEST(Geometry, FanoutAndRatio) {
  BucketGeometry geometry;  // 500-byte buckets, 25-byte keys, 4-byte offsets
  EXPECT_EQ(geometry.index_fanout(), 500 / 29);
  EXPECT_DOUBLE_EQ(geometry.record_key_ratio(), 20.0);
  geometry.key_bytes = 100;
  EXPECT_EQ(geometry.index_fanout(), 500 / 104);
  geometry.key_bytes = 499;  // degenerate: fanout floors at 2
  EXPECT_EQ(geometry.index_fanout(), 2);
}

}  // namespace
}  // namespace airindex
