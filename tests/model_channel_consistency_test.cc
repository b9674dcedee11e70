// Cross-checks between the analytical models and the channels the
// builders actually produce: the exact-tree models' bucket accounting
// must agree with the real channel, bucket for bucket, at any record
// count and geometry — incomplete trees included.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "analytical/models.h"
#include "schemes/distributed.h"
#include "schemes/hashing.h"
#include "schemes/one_m.h"
#include "schemes/signature.h"

namespace airindex {
namespace {

std::shared_ptr<const Dataset> MakeDataset(int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 8;
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

class ModelChannelTest : public testing::TestWithParam<int> {};

TEST_P(ModelChannelTest, DistributedBucketAccountingMatches) {
  const int num_records = GetParam();
  const auto dataset = MakeDataset(num_records);
  BucketGeometry geometry;
  geometry.key_bytes = 8;
  const BTreeLevelCounts levels =
      ComputeBTreeLevels(num_records, geometry.index_fanout());
  for (int r = 0; r < levels.height; ++r) {
    const DistributedIndexing scheme =
        DistributedIndexing::Build(dataset, geometry, r).value();
    // Replicated occurrences: sum of child counts over depths < r.
    double replicated = 0;
    for (int d = 0; d < r; ++d) {
      replicated += static_cast<double>(
          levels.count_at_depth[static_cast<std::size_t>(d + 1)]);
    }
    double non_replicated = 0;
    for (int d = r; d < levels.height; ++d) {
      non_replicated += static_cast<double>(
          levels.count_at_depth[static_cast<std::size_t>(d)]);
    }
    EXPECT_EQ(static_cast<double>(scheme.view().num_index_buckets()),
              replicated + non_replicated)
        << "n=" << num_records << " r=" << r;
    EXPECT_EQ(scheme.num_segments(),
              levels.count_at_depth[static_cast<std::size_t>(r)]);
    EXPECT_EQ(scheme.tree().height(), levels.height);
  }
}

TEST_P(ModelChannelTest, OneMBucketAccountingMatches) {
  const int num_records = GetParam();
  const auto dataset = MakeDataset(num_records);
  BucketGeometry geometry;
  geometry.key_bytes = 8;
  const BTreeLevelCounts levels =
      ComputeBTreeLevels(num_records, geometry.index_fanout());
  long long tree_size = 0;
  for (const long long c : levels.count_at_depth) tree_size += c;
  for (const int m : {1, 2, 5}) {
    if (m > num_records) continue;
    const OneMIndexing scheme =
        OneMIndexing::Build(dataset, geometry, m).value();
    EXPECT_EQ(static_cast<long long>(scheme.view().num_index_buckets()),
              static_cast<long long>(m) * tree_size)
        << "n=" << num_records << " m=" << m;
    EXPECT_EQ(static_cast<long long>(scheme.tree().nodes().size()),
              tree_size);
  }
}

TEST_P(ModelChannelTest, SignatureCycleMatchesModelInputs) {
  const int num_records = GetParam();
  const auto dataset = MakeDataset(num_records);
  BucketGeometry geometry;
  geometry.key_bytes = 8;
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, geometry).value();
  // The model's cycle: Nr * (Dt + It).
  EXPECT_EQ(scheme.view().cycle_bytes(),
            static_cast<Bytes>(num_records) *
                (geometry.data_bucket_bytes() +
                 geometry.signature_bucket_bytes()));
}

TEST_P(ModelChannelTest, HashingCollisionsNearExpectation) {
  const int num_records = GetParam();
  if (num_records < 50) GTEST_SKIP() << "expectation too noisy";
  const auto dataset = MakeDataset(num_records);
  BucketGeometry geometry;
  geometry.key_bytes = 8;
  const SimpleHashing scheme =
      SimpleHashing::Build(dataset, geometry, 1.0).value();
  const double expected = ExpectedHashCollisions(num_records, num_records);
  // 6-sigma-ish band around the balls-in-bins expectation.
  EXPECT_NEAR(scheme.colliding(), expected,
              6.0 * std::sqrt(expected) + 3.0);
}

INSTANTIATE_TEST_SUITE_P(RecordCounts, ModelChannelTest,
                         testing::Values(1, 2, 17, 18, 100, 289, 290, 1000,
                                         4913, 5000),
                         [](const testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param).insert(0, 1, 'n');
                         });

}  // namespace
}  // namespace airindex
