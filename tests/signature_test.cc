// Unit and property tests for signature indexing: generator semantics,
// channel layout, fast-path vs reference equivalence, false drops.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "des/random.h"
#include "inflated_channel.h"
#include "schemes/signature.h"
#include "signature_oracle.h"

namespace airindex {
namespace {

std::shared_ptr<const Dataset> MakeDataset(int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 6;
  config.num_attributes = 6;
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

BucketGeometry SmallGeometry() {
  BucketGeometry geometry;
  geometry.record_bytes = 100;
  geometry.key_bytes = 6;
  geometry.signature_bytes = 8;  // 64 bits: small enough to see false drops
  return geometry;
}

TEST(SignatureGenerator, QueryIsAlwaysContainedInOwnRecord) {
  const auto dataset = MakeDataset(200);
  SignatureParams params;
  params.bits_per_attribute = 6;
  const SignatureGenerator generator(SmallGeometry(), params);
  for (int i = 0; i < dataset->size(); ++i) {
    const RecordView record = dataset->record(i);
    const auto record_sig = generator.RecordSignature(record);
    const auto query_sig = generator.QuerySignature(record.key);
    EXPECT_TRUE(SignatureGenerator::Matches(record_sig.data(),
                                            query_sig.data(),
                                            generator.words()));
  }
}

TEST(SignatureGenerator, DifferentKeysUsuallyDiffer) {
  const auto dataset = MakeDataset(100);
  const SignatureGenerator generator(SmallGeometry(), SignatureParams());
  int identical = 0;
  const auto first = generator.QuerySignature(dataset->record(0).key);
  for (int i = 1; i < 100; ++i) {
    if (generator.QuerySignature(dataset->record(i).key) == first) {
      ++identical;
    }
  }
  EXPECT_EQ(identical, 0);
}

TEST(SignatureGenerator, DeterministicAcrossInstances) {
  const SignatureGenerator a(SmallGeometry(), SignatureParams());
  const SignatureGenerator b(SmallGeometry(), SignatureParams());
  EXPECT_EQ(a.QuerySignature("hello"), b.QuerySignature("hello"));
}

TEST(Signature, ChannelAlternatesSignatureAndData) {
  const auto dataset = MakeDataset(50);
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, SmallGeometry()).value();
  const InflatedChannel channel(scheme);
  ASSERT_EQ(channel.num_buckets(), 100u);
  for (std::size_t i = 0; i < channel.num_buckets(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(channel.bucket(i).kind, BucketKind::kSignature);
      EXPECT_EQ(channel.bucket(i).size, 8);
    } else {
      EXPECT_EQ(channel.bucket(i).kind, BucketKind::kData);
      EXPECT_EQ(channel.bucket(i).size, 100);
    }
    EXPECT_EQ(channel.bucket(i).record_id,
              static_cast<std::int64_t>(i / 2));
  }
  EXPECT_TRUE(ValidateProgramStructure(scheme.view()).ok());
}

TEST(Signature, FindsEveryKey) {
  const auto dataset = MakeDataset(80);
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, SmallGeometry()).value();
  Rng rng(3);
  for (int r = 0; r < dataset->size(); ++r) {
    const Bytes tune_in =
        static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
            2 * scheme.view().cycle_bytes())));
    const AccessResult result = scheme.Access(dataset->record(r).key, tune_in);
    ASSERT_TRUE(result.found) << r;
  }
}

// Record counts on both sides of the 64-record slice words and of the
// counting core's 1,024-record (16-word) blocks, so windows start and end
// in different blocks, and widths that leave unused high bits (1 and 12
// bytes) or span several words: present keys exercise wrap-around
// windows, absent keys the full-cycle count and the last-pair test.
TEST(Signature, FastPathEqualsReferenceEverywhere) {
  for (const int n : {1, 2, 63, 64, 65, 129, 1000, 1023, 1024, 1025, 2113}) {
    const auto dataset = MakeDataset(n);
    for (const Bytes width : {1, 8, 12, 16, 64}) {
      BucketGeometry geometry = SmallGeometry();
      geometry.signature_bytes = width;
      const SignatureIndexing scheme =
          SignatureIndexing::Build(dataset, geometry).value();
      Rng rng(2025);
      // The reference sifts O(n) buckets a call: fewer tune-ins past one
      // block keep the test in seconds.
      const int trials = n > 1000 ? 600 : 3000;
      for (int trial = 0; trial < trials; ++trial) {
        const Bytes tune_in =
            static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
                3 * scheme.view().cycle_bytes())));
        const bool present = rng.NextBernoulli(0.6);
        const std::string key =
            present ? std::string(
                          dataset
                              ->record(static_cast<int>(rng.NextBounded(
                                  static_cast<std::uint64_t>(n))))
                              .key)
                    : dataset->AbsentKey(static_cast<int>(
                          rng.NextBounded(static_cast<std::uint64_t>(n + 1))));
        const AccessResult fast = scheme.Access(key, tune_in);
        const AccessResult reference =
            SignatureOracle(scheme, *dataset, key, tune_in);
        const auto where = [&] {
          return "n=" + std::to_string(n) + " It=" + std::to_string(width) +
                 " " + key + " @" + std::to_string(tune_in);
        };
        ASSERT_EQ(fast.found, reference.found) << where();
        ASSERT_EQ(fast.access_time, reference.access_time) << where();
        ASSERT_EQ(fast.tuning_time, reference.tuning_time) << where();
        ASSERT_EQ(fast.probes, reference.probes) << where();
        ASSERT_EQ(fast.false_drops, reference.false_drops) << where();
        ASSERT_EQ(fast.index_probes, reference.index_probes) << where();
        ASSERT_EQ(fast.overflow_hops, reference.overflow_hops) << where();
        ASSERT_EQ(fast.retries, reference.retries) << where();
        ASSERT_EQ(fast.anomalies, reference.anomalies) << where();
        ASSERT_EQ(fast.abandoned, reference.abandoned) << where();
        ASSERT_EQ(fast.channel_hops, reference.channel_hops) << where();
        ASSERT_EQ(fast.start_channel, reference.start_channel) << where();
        ASSERT_EQ(fast.final_channel, reference.final_channel) << where();
        ASSERT_EQ(fast.switch_bytes, reference.switch_bytes) << where();
        ASSERT_EQ(fast.final_channel_tuning, reference.final_channel_tuning)
            << where();
      }
    }
  }
}

TEST(Signature, ExactTimesOnTinyChannel) {
  const auto dataset = MakeDataset(4);
  BucketGeometry geometry = SmallGeometry();
  geometry.signature_bytes = 64;  // huge signatures: no false drops
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, geometry).value();
  // Tune in at cycle start asking for record 2: sift sigs 0,1 (dozing
  // over data), then sig 2 + download.
  const AccessResult result = scheme.Access(dataset->record(2).key, 0);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.false_drops, 0);
  EXPECT_EQ(result.tuning_time, 3 * 64 + 100);
  EXPECT_EQ(result.access_time, 3 * (64 + 100));
}

TEST(Signature, AbsentKeySiftsWholeCycle) {
  const auto dataset = MakeDataset(30);
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, SmallGeometry()).value();
  const AccessResult result = scheme.Access(dataset->AbsentKey(10), 5);
  EXPECT_FALSE(result.found);
  // All 30 signatures are read.
  EXPECT_GE(result.probes, 30);
  EXPECT_GE(result.tuning_time, 30 * 8);
}

TEST(Signature, SmallerSignaturesDropMore) {
  const auto dataset = MakeDataset(2000);
  BucketGeometry tiny = SmallGeometry();
  tiny.signature_bytes = 4;  // 32 bits
  BucketGeometry roomy = SmallGeometry();
  roomy.signature_bytes = 32;  // 256 bits
  SignatureParams params;
  params.bits_per_attribute = 4;
  const SignatureIndexing small =
      SignatureIndexing::Build(dataset, tiny, params).value();
  const SignatureIndexing large =
      SignatureIndexing::Build(dataset, roomy, params).value();
  const double rate_small = small.MeasureFalseDropRate(50, 1);
  const double rate_large = large.MeasureFalseDropRate(50, 1);
  EXPECT_GT(rate_small, rate_large);
  EXPECT_GT(rate_small, 0.0);
}

// MeasureFalseDropRate against a row scan of the channel's signature
// buckets over the same sampled targets: both are exact integer ratios.
// The counts reach past one and two 1,024-record blocks.
TEST(Signature, FalseDropRateEqualsRowScan) {
  for (const int n : {2, 63, 64, 65, 129, 1000, 1023, 1024, 1025, 2113}) {
    const auto dataset = MakeDataset(n);
    for (const Bytes width : {1, 4, 12}) {
      BucketGeometry geometry = SmallGeometry();
      geometry.signature_bytes = width;
      const SignatureIndexing scheme =
          SignatureIndexing::Build(dataset, geometry).value();
      const SignatureGenerator& generator = scheme.generator();
      const InflatedChannel channel(scheme);
      for (const std::uint64_t seed : {1, 11, 77}) {
        Rng rng(seed);
        std::int64_t drops = 0;
        std::int64_t pairs_checked = 0;
        for (int q = 0; q < 40; ++q) {
          const int target = static_cast<int>(
              rng.NextBounded(static_cast<std::uint64_t>(n)));
          const auto query =
              generator.QuerySignature(dataset->record(target).key);
          for (std::size_t i = 0; i < channel.num_buckets(); i += 2) {
            if (SignatureGenerator::Matches(
                    channel.bucket(i).signature.data(), query.data(),
                    generator.words())) {
              ++drops;
            }
          }
          --drops;  // the target's own signature
          pairs_checked += n - 1;
        }
        EXPECT_EQ(scheme.MeasureFalseDropRate(40, seed),
                  static_cast<double>(drops) /
                      static_cast<double>(pairs_checked))
            << "n=" << n << " It=" << width << " seed=" << seed;
      }
    }
  }
}

TEST(Signature, RejectsBadParams) {
  const auto dataset = MakeDataset(10);
  BucketGeometry geometry = SmallGeometry();
  geometry.signature_bytes = 0;
  EXPECT_FALSE(SignatureIndexing::Build(dataset, geometry).ok());
  geometry = SmallGeometry();
  SignatureParams params;
  params.bits_per_attribute = 0;
  EXPECT_FALSE(SignatureIndexing::Build(dataset, geometry, params).ok());
  params.bits_per_attribute = 10000;
  EXPECT_FALSE(SignatureIndexing::Build(dataset, geometry, params).ok());
}

}  // namespace
}  // namespace airindex
