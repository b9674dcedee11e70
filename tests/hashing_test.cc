// Unit tests for simple hashing: layout invariants, shift values,
// collision chains, and the access protocol's probe behaviour.

#include <memory>

#include <gtest/gtest.h>

#include "analytical/models.h"
#include "des/random.h"
#include "inflated_channel.h"
#include "schemes/hashing.h"

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

TEST(Hashing, CycleIsAllocatedPlusColliding) {
  const auto dataset = MakeDataset(500);
  const SimpleHashing scheme =
      SimpleHashing::Build(dataset, SmallGeometry(), 1.0).value();
  EXPECT_EQ(scheme.allocated(), 500);
  const InflatedChannel channel(scheme);
  EXPECT_EQ(channel.num_buckets(),
            static_cast<std::size_t>(scheme.allocated() + scheme.colliding()));
  // Every record appears exactly once.
  int carried = 0;
  for (std::size_t i = 0; i < channel.num_buckets(); ++i) {
    if (channel.bucket(i).record_id >= 0) ++carried;
  }
  EXPECT_EQ(carried, 500);
  // Collision count is in the ballpark of the balls-in-bins expectation.
  EXPECT_NEAR(scheme.colliding(), ExpectedHashCollisions(500, 500), 30);
}

TEST(Hashing, HashValuesNonDecreasingAlongCycle) {
  const auto dataset = MakeDataset(300);
  const SimpleHashing scheme =
      SimpleHashing::Build(dataset, SmallGeometry(), 1.0).value();
  const InflatedChannel channel(scheme);
  std::int64_t previous = -1;
  for (std::size_t i = 0; i < channel.num_buckets(); ++i) {
    const Bucket& bucket = channel.bucket(i);
    if (bucket.hash_value < 0) continue;  // empty slot bucket
    EXPECT_GE(bucket.hash_value, previous);
    previous = bucket.hash_value;
  }
}

TEST(Hashing, ShiftValuesPointAtChainStarts) {
  const auto dataset = MakeDataset(300);
  const SimpleHashing scheme =
      SimpleHashing::Build(dataset, SmallGeometry(), 1.0).value();
  const InflatedChannel channel(scheme);
  for (int slot = 0; slot < scheme.allocated(); ++slot) {
    const Bucket& home = channel.bucket(static_cast<std::size_t>(slot));
    ASSERT_EQ(home.slot, slot);
    ASSERT_NE(home.shift_phase, kInvalidPhase);
    const std::size_t chain =
        channel.BucketStartingAtPhase(home.shift_phase);
    ASSERT_LT(chain, channel.num_buckets());
    // Shifts only push forward.
    EXPECT_GE(chain, static_cast<std::size_t>(slot));
    // The chain start carries a record of this hash, or the slot is
    // empty and the bucket there belongs to a later slot (or nothing).
    const Bucket& first = channel.bucket(chain);
    if (first.hash_value >= 0 && first.hash_value == slot) {
      // Records of this slot form a contiguous run.
      std::size_t i = chain;
      while (i < channel.num_buckets() &&
             channel.bucket(i).hash_value == slot) {
        ++i;
      }
      for (std::size_t j = i; j < channel.num_buckets(); ++j) {
        EXPECT_NE(channel.bucket(j).hash_value, slot);
      }
    }
  }
  // Buckets beyond Na carry no slot control.
  for (std::size_t i = static_cast<std::size_t>(scheme.allocated());
       i < channel.num_buckets(); ++i) {
    EXPECT_EQ(channel.bucket(i).slot, -1);
  }
}

TEST(Hashing, FindsEveryKeyFromManyTuneIns) {
  const auto dataset = MakeDataset(250);
  const SimpleHashing scheme =
      SimpleHashing::Build(dataset, SmallGeometry(), 1.0).value();
  Rng rng(77);
  for (int r = 0; r < dataset->size(); ++r) {
    const Bytes tune_in =
        static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
            3 * scheme.view().cycle_bytes())));
    const AccessResult result = scheme.Access(dataset->record(r).key, tune_in);
    ASSERT_TRUE(result.found) << r;
    EXPECT_EQ(result.anomalies, 0);
    EXPECT_LE(result.tuning_time, result.access_time);
  }
}

TEST(Hashing, TuningIsSmallAndFlat) {
  // The paper: "it takes no more than four probes to reach the first
  // bucket containing the requested hashing value"; tuning is then the
  // chain scan. Mean tuning should be a handful of buckets regardless of
  // dataset size.
  const BucketGeometry geometry = SmallGeometry();
  double means[2];
  int idx = 0;
  for (const int n : {300, 3000}) {
    const auto dataset = MakeDataset(n);
    const SimpleHashing scheme =
        SimpleHashing::Build(dataset, geometry, 1.0).value();
    Rng rng(5);
    double total = 0;
    constexpr int kTrials = 4000;
    for (int trial = 0; trial < kTrials; ++trial) {
      const int rec = static_cast<int>(
          rng.NextBounded(static_cast<std::uint64_t>(n)));
      const Bytes tune_in =
          static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
              scheme.view().cycle_bytes())));
      const AccessResult result =
          scheme.Access(dataset->record(rec).key, tune_in);
      ASSERT_TRUE(result.found);
      total += static_cast<double>(result.tuning_time);
    }
    means[idx++] = total / kTrials;
  }
  EXPECT_LT(means[0], 6 * 100);
  EXPECT_LT(means[1], 6 * 100);
  // Flat: scaling the dataset 10x moves mean tuning by less than 10%.
  EXPECT_NEAR(means[0], means[1], 0.1 * means[0]);
}

TEST(Hashing, AbsentKeyFailsAfterChainScan) {
  const auto dataset = MakeDataset(200);
  const SimpleHashing scheme =
      SimpleHashing::Build(dataset, SmallGeometry(), 1.0).value();
  Rng rng(99);
  for (int i = 0; i <= dataset->size(); ++i) {
    const Bytes tune_in = static_cast<Bytes>(rng.NextBounded(30000));
    const AccessResult result = scheme.Access(dataset->AbsentKey(i), tune_in);
    EXPECT_FALSE(result.found);
    EXPECT_EQ(result.anomalies, 0);
    // First bucket + home bucket + chain + terminating bucket: small.
    EXPECT_LE(result.probes, 16);
  }
}

TEST(Hashing, AllocationFactorControlsSlots) {
  const auto dataset = MakeDataset(100);
  const SimpleHashing loose =
      SimpleHashing::Build(dataset, SmallGeometry(), 2.0).value();
  EXPECT_EQ(loose.allocated(), 200);
  // More slots, fewer collisions than the tight table.
  const SimpleHashing tight =
      SimpleHashing::Build(dataset, SmallGeometry(), 0.5).value();
  EXPECT_EQ(tight.allocated(), 50);
  EXPECT_GT(tight.colliding(), loose.colliding());
  // Both still answer queries.
  for (const SimpleHashing* scheme : {&loose, &tight}) {
    for (int r = 0; r < 100; ++r) {
      EXPECT_TRUE(scheme->Access(dataset->record(r).key, 12345).found);
    }
  }
}

TEST(Hashing, RejectsBadFactor) {
  const auto dataset = MakeDataset(10);
  EXPECT_FALSE(SimpleHashing::Build(dataset, SmallGeometry(), 0.0).ok());
  EXPECT_FALSE(SimpleHashing::Build(dataset, SmallGeometry(), -1.0).ok());
}

TEST(Hashing, SingleSlotDegeneratesToScan) {
  const auto dataset = MakeDataset(20);
  BucketGeometry geometry = SmallGeometry();
  const SimpleHashing scheme =
      SimpleHashing::Build(dataset, geometry, 0.05).value();
  EXPECT_EQ(scheme.allocated(), 1);
  for (int r = 0; r < 20; ++r) {
    EXPECT_TRUE(scheme.Access(dataset->record(r).key, 7).found);
  }
  EXPECT_FALSE(scheme.Access(dataset->AbsentKey(3), 7).found);
}

}  // namespace
}  // namespace airindex
