// Unit tests for the broadcast channel view: phase arithmetic (uniform
// and mixed bucket sizes), boundaries, and the structural validator.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "broadcast/geometry.h"
#include "bucket_oracle.h"
#include "schemes/channel_view.h"

namespace airindex {
namespace {

Bucket MakeBucket(BucketKind kind, Bytes size) {
  Bucket bucket;
  bucket.kind = kind;
  bucket.size = size;
  return bucket;
}

ArenaChannelView ViewOf(std::vector<Bucket> buckets) {
  return ViewOfBuckets(std::move(buckets)).value();
}

TEST(ChannelView, RejectsEmptyAndNonPositive) {
  EXPECT_FALSE(ViewOfBuckets({}).ok());
  EXPECT_FALSE(
      ViewOfBuckets({MakeBucket(BucketKind::kData, 0)}).ok());
  EXPECT_FALSE(
      ViewOfBuckets({MakeBucket(BucketKind::kData, -5)}).ok());
}

TEST(ChannelView, UniformPhaseArithmetic) {
  std::vector<Bucket> buckets;
  for (int i = 0; i < 10; ++i) buckets.push_back(MakeBucket(BucketKind::kData, 100));
  const ArenaChannelView view = ViewOf(std::move(buckets));
  EXPECT_EQ(view.cycle_bytes(), 1000);
  EXPECT_EQ(view.num_buckets(), 10u);
  EXPECT_EQ(view.BucketAtPhase(0), 0u);
  EXPECT_EQ(view.BucketAtPhase(99), 0u);
  EXPECT_EQ(view.BucketAtPhase(100), 1u);
  EXPECT_EQ(view.BucketAtPhase(999), 9u);
  EXPECT_EQ(view.start_phase(7), 700);
  EXPECT_EQ(view.end_phase(7), 800);
}

TEST(ChannelView, MixedSizePhaseArithmetic) {
  const ArenaChannelView view = ViewOf({
      MakeBucket(BucketKind::kSignature, 16),
      MakeBucket(BucketKind::kData, 500),
      MakeBucket(BucketKind::kSignature, 16),
      MakeBucket(BucketKind::kData, 500),
  });
  EXPECT_EQ(view.cycle_bytes(), 1032);
  EXPECT_EQ(view.BucketAtPhase(0), 0u);
  EXPECT_EQ(view.BucketAtPhase(15), 0u);
  EXPECT_EQ(view.BucketAtPhase(16), 1u);
  EXPECT_EQ(view.BucketAtPhase(515), 1u);
  EXPECT_EQ(view.BucketAtPhase(516), 2u);
  EXPECT_EQ(view.BucketAtPhase(1031), 3u);
  EXPECT_EQ(view.num_data_buckets(), 2u);
  EXPECT_EQ(view.num_signature_buckets(), 2u);
  EXPECT_EQ(view.num_index_buckets(), 0u);
  EXPECT_EQ(view.end_phase(1), 516);
  EXPECT_EQ(view.BucketsBroadcastBy(1032 + 516), 6);
}

TEST(ChannelView, BucketStartingAtPhase) {
  const ArenaChannelView view = ViewOf({
      MakeBucket(BucketKind::kData, 10),
      MakeBucket(BucketKind::kData, 20),
  });
  EXPECT_EQ(view.start_phase(view.BucketAtPhase(0)), 0);
  EXPECT_EQ(view.BucketAtPhase(10), 1u);
  EXPECT_EQ(view.start_phase(view.BucketAtPhase(10)), 10);
  // Phase 5 is inside bucket 0, not the start of any bucket.
  EXPECT_EQ(view.BucketAtPhase(5), 0u);
  EXPECT_NE(view.start_phase(view.BucketAtPhase(5)), 5);
}

TEST(ChannelView, NextBoundaryTime) {
  const ArenaChannelView view = ViewOf({
      MakeBucket(BucketKind::kData, 10),
      MakeBucket(BucketKind::kData, 20),
  });
  EXPECT_EQ(view.NextBoundaryTime(0), 0);    // already on a boundary
  EXPECT_EQ(view.NextBoundaryTime(3), 10);
  EXPECT_EQ(view.NextBoundaryTime(10), 10);
  EXPECT_EQ(view.NextBoundaryTime(11), 30);
  // Across cycles: time 33 is phase 3 of the second cycle.
  EXPECT_EQ(view.NextBoundaryTime(33), 40);
}

TEST(ChannelView, NextArrivalOfPhaseWraps) {
  const ArenaChannelView view = ViewOf({
      MakeBucket(BucketKind::kData, 10),
      MakeBucket(BucketKind::kData, 20),
  });
  EXPECT_EQ(view.NextArrivalOfPhase(10, 0), 10);
  EXPECT_EQ(view.NextArrivalOfPhase(10, 10), 10);  // already there
  EXPECT_EQ(view.NextArrivalOfPhase(0, 11), 30);   // wraps to next cycle
  EXPECT_EQ(view.NextArrivalOfPhase(10, 95), 100);
}

TEST(ProgramStructure, AcceptsGoodPointers) {
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
  EXPECT_TRUE(ValidateProgramStructure(ViewOf(std::move(buckets))).ok());
}

TEST(ProgramStructure, CatchesMisalignedPointer) {
  std::vector<Bucket> buckets = {
      MakeBucket(BucketKind::kIndex, 10),
      MakeBucket(BucketKind::kData, 10),
  };
  PointerEntry entry;
  entry.target_phase = 7;  // not a bucket start
  buckets[0].local.push_back(entry);
  const Status status = ValidateProgramStructure(ViewOf(std::move(buckets)));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ProgramStructure, CatchesOutOfRangePhase) {
  std::vector<Bucket> buckets = {MakeBucket(BucketKind::kData, 10)};
  buckets[0].shift_phase = 999;
  EXPECT_FALSE(ValidateProgramStructure(ViewOf(std::move(buckets))).ok());
}

TEST(ProgramStructure, CatchesInvertedRange) {
  std::vector<Bucket> buckets = {MakeBucket(BucketKind::kIndex, 10)};
  buckets[0].range_lo = "zz";
  buckets[0].range_hi = "aa";
  EXPECT_FALSE(ValidateProgramStructure(ViewOf(std::move(buckets))).ok());
}

TEST(ProgramStructure, ValidatesCrossChannelPointerTargets) {
  // An index bucket on channel 0 pointing into channel 1, a data channel
  // of three 50-byte buckets.
  static const std::string kLo = "a", kHi = "z";
  const auto program = [](int target_channel, Bytes target_phase) {
    Bucket index = MakeBucket(BucketKind::kIndex, 100);
    index.level = 0;
    index.range_lo = kLo;
    index.range_hi = kHi;
    PointerEntry entry;
    entry.key_lo = kLo;
    entry.key_hi = kHi;
    entry.target_phase = target_phase;
    entry.target_channel = target_channel;
    index.local.push_back(entry);
    std::vector<ArenaChannelView> channels;
    channels.push_back(ViewOf({std::move(index)}));
    channels.push_back(ViewOf({MakeBucket(BucketKind::kData, 50),
                               MakeBucket(BucketKind::kData, 50),
                               MakeBucket(BucketKind::kData, 50)}));
    return channels;
  };
  // Phase 50 is a bucket start on channel 1 — valid.
  EXPECT_TRUE(ValidateProgramStructure(program(1, 50)).ok());
  // Phase 50 relative to the target channel's cycle, but channel 2 does
  // not exist — invalid.
  EXPECT_FALSE(ValidateProgramStructure(program(2, 50)).ok());
  // Mid-bucket phase on the target channel — invalid.
  EXPECT_FALSE(ValidateProgramStructure(program(1, 25)).ok());
  // Phase beyond the target channel's cycle — invalid.
  EXPECT_FALSE(ValidateProgramStructure(program(1, 150)).ok());
  // Phase 50 is mid-bucket on channel 0 itself — invalid.
  EXPECT_FALSE(ValidateProgramStructure(program(kSameChannel, 50)).ok());
  // One channel of the pair alone: its target channel 1 is missing.
  EXPECT_FALSE(ValidateProgramStructure(program(1, 50).front()).ok());
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
