// Tests for attribute filtering (signature schemes vs the flat baseline)
// and the channel describe utility.

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "des/random.h"
#include "inflated_channel.h"
#include "schemes/flat.h"
#include "schemes/signature.h"
#include "schemes/trace.h"

namespace airindex {
namespace {

std::shared_ptr<const Dataset> MakeDataset(int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 6;
  config.num_attributes = 4;
  config.attribute_width = 3;  // narrow: attribute values repeat
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

BucketGeometry SmallGeometry() {
  BucketGeometry geometry;
  geometry.record_bytes = 100;
  geometry.key_bytes = 6;
  geometry.signature_bytes = 16;
  return geometry;
}

TEST(Filter, DatasetGroundTruth) {
  const auto dataset = MakeDataset(500);
  const std::string value(dataset->record(42).attributes[1]);
  const std::vector<int> matches = dataset->FindByAttribute(value);
  // Record 42 itself must be in the list; 3-char pseudo-words repeat, so
  // typically others carry it too.
  EXPECT_NE(std::find(matches.begin(), matches.end(), 42), matches.end());
  for (const int m : matches) {
    bool carries = false;
    for (const std::string_view attribute : dataset->record(m).attributes) {
      carries = carries || attribute == value;
    }
    EXPECT_TRUE(carries) << m;
  }
  EXPECT_TRUE(dataset->FindByAttribute("zzz-not-there").empty());
}

TEST(Filter, SignatureFindsExactlyTheCarriers) {
  const auto dataset = MakeDataset(400);
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, SmallGeometry()).value();
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const int record = static_cast<int>(rng.NextBounded(400));
    const int attr = static_cast<int>(rng.NextBounded(4));
    const std::string value(dataset->record(record).attributes[
        static_cast<std::size_t>(attr)]);
    const Bytes tune_in = static_cast<Bytes>(rng.NextBounded(100000));
    const FilterResult result = scheme.Filter(value, tune_in);
    EXPECT_EQ(result.matches, dataset->FindByAttribute(value));
    EXPECT_GE(result.false_drops, 0);
    EXPECT_LE(result.tuning_time, result.access_time);
  }
}

// Bucket-by-bucket Filter oracle over `channel`, the scheme's channel
// inflated once by the caller: from the first complete signature bucket
// at or after tune-in, read one cycle of signature buckets and download
// the data bucket after each match.
FilterResult FilterOracle(const SignatureIndexing& scheme,
                          const InflatedChannel& channel,
                          const Dataset& dataset, const std::string& value,
                          Bytes tune_in) {
  const Bytes cycle = channel.cycle_bytes();
  const std::size_t buckets = channel.num_buckets();
  const std::vector<std::uint64_t> query =
      scheme.generator().QuerySignature(value);
  FilterResult result;
  Bytes t = tune_in;
  std::size_t i = channel.BucketAtPhase(t % cycle);
  if (channel.start_phase(i) != t % cycle ||
      channel.bucket(i).kind != BucketKind::kSignature) {
    do {
      i = (i + 1) % buckets;
    } while (channel.bucket(i).kind != BucketKind::kSignature);
    t = channel.NextArrivalOfPhase(channel.start_phase(i), t);
  }
  result.tuning_time = t - tune_in;
  for (int scanned = 0; scanned < dataset.size(); ++scanned) {
    const Bucket& signature = channel.bucket(i);
    t += signature.size;
    result.tuning_time += signature.size;
    ++result.probes;
    const std::size_t data = (i + 1) % buckets;
    if (SignatureGenerator::Matches(signature.signature.data(), query.data(),
                                    scheme.generator().words())) {
      t += channel.bucket(data).size;
      result.tuning_time += channel.bucket(data).size;
      ++result.probes;
      const int position = static_cast<int>(channel.bucket(data).record_id);
      const AttributeRange attributes = dataset.record(position).attributes;
      if (std::find(attributes.begin(), attributes.end(), value) !=
          attributes.end()) {
        result.matches.push_back(position);
      } else {
        ++result.false_drops;
      }
    }
    if (scanned + 1 == dataset.size()) break;
    i = (data + 1) % buckets;
    t = channel.NextArrivalOfPhase(channel.start_phase(i), t);
  }
  result.access_time = t - tune_in;
  std::sort(result.matches.begin(), result.matches.end());
  return result;
}

// Record counts around the slice words and the counting core's
// 1,024-record (16-word) blocks.
TEST(Filter, SignatureEqualsBucketOracle) {
  for (const int n : {1, 2, 63, 64, 65, 129, 400, 1023, 1024, 1025, 2113}) {
    const auto dataset = MakeDataset(n);
    for (const Bytes width : {2, 4, 16}) {
      BucketGeometry geometry = SmallGeometry();
      geometry.signature_bytes = width;
      const SignatureIndexing scheme =
          SignatureIndexing::Build(dataset, geometry).value();
      const InflatedChannel channel(scheme);
      Rng rng(17);
      for (int trial = 0; trial < 200; ++trial) {
        const Bytes tune_in =
            static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
                3 * scheme.view().cycle_bytes())));
        // Carried values, and values no record carries ('!' is not in the
        // attribute alphabet).
        const std::string value =
            rng.NextBernoulli(0.7)
                ? std::string(
                      dataset
                          ->record(static_cast<int>(
                              rng.NextBounded(static_cast<std::uint64_t>(n))))
                          .attributes[rng.NextBounded(4)])
                : std::to_string(trial).insert(0, 1, '!');
        const FilterResult fast = scheme.Filter(value, tune_in);
        const FilterResult oracle =
            FilterOracle(scheme, channel, *dataset, value, tune_in);
        const auto where = [&] {
          return "n=" + std::to_string(n) + " It=" + std::to_string(width) +
                 " " + value + " @" + std::to_string(tune_in);
        };
        ASSERT_EQ(fast.matches, oracle.matches) << where();
        ASSERT_EQ(fast.false_drops, oracle.false_drops) << where();
        ASSERT_EQ(fast.access_time, oracle.access_time) << where();
        ASSERT_EQ(fast.tuning_time, oracle.tuning_time) << where();
        ASSERT_EQ(fast.probes, oracle.probes) << where();
      }
    }
  }
}

TEST(Filter, SignatureTunesFarLessThanFlat) {
  const auto dataset = MakeDataset(400);
  const BucketGeometry geometry = SmallGeometry();
  const SignatureIndexing signature =
      SignatureIndexing::Build(dataset, geometry).value();
  const FlatBroadcast flat = FlatBroadcast::Build(dataset, geometry).value();
  const std::string value(dataset->record(7).attributes[0]);
  const FilterResult sig_result = signature.Filter(value, 1234);
  const FilterResult flat_result = flat.Filter(value, 1234);
  EXPECT_EQ(sig_result.matches, flat_result.matches);
  // Flat listens to the whole cycle; signatures sift.
  EXPECT_LT(sig_result.tuning_time, flat_result.tuning_time / 3);
  EXPECT_EQ(flat_result.tuning_time, flat_result.access_time);
}

TEST(Filter, AbsentValueYieldsOnlyFalseDrops) {
  const auto dataset = MakeDataset(300);
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, SmallGeometry()).value();
  const FilterResult result = scheme.Filter("zq!", 0);
  EXPECT_TRUE(result.matches.empty());
  // All signature buckets were still sifted.
  EXPECT_GE(result.probes, 300);
}

TEST(Filter, AccessCoversOneCycle) {
  const auto dataset = MakeDataset(100);
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, SmallGeometry()).value();
  const FilterResult result =
      scheme.Filter(dataset->record(0).attributes[0], 0);
  const Bytes cycle = scheme.view().cycle_bytes();
  EXPECT_GE(result.access_time, cycle - 100 - 16);
  EXPECT_LE(result.access_time, cycle + 116);
}

TEST(Describe, PrintsBucketSummaries) {
  const auto dataset = MakeDataset(10);
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, SmallGeometry()).value();
  std::ostringstream out;
  DescribeChannel(scheme.view(), out, 4);
  const std::string text = out.str();
  EXPECT_NE(text.find("cycle: 20 buckets"), std::string::npos);
  EXPECT_NE(text.find("signature"), std::string::npos);
  EXPECT_NE(text.find("... (16 more buckets)"), std::string::npos);
}

}  // namespace
}  // namespace airindex
