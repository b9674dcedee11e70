// End-to-end smoke test: every scheme builds a valid channel over a small
// dataset and finds every present key from arbitrary tune-in times.

#include <memory>

#include <gtest/gtest.h>

#include "core/simulator.h"
#include "data/dataset.h"
#include "inflated_channel.h"
#include "schemes/scheme.h"

namespace airindex {
namespace {

std::shared_ptr<const Dataset> SmallDataset(int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 8;
  Result<Dataset> dataset = Dataset::Generate(config);
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return std::make_shared<const Dataset>(std::move(dataset).value());
}

TEST(Smoke, AllSchemesFindEveryKey) {
  const auto dataset = SmallDataset(123);
  BucketGeometry geometry;
  geometry.record_bytes = 100;
  geometry.key_bytes = 8;
  for (const SchemeKind kind :
       {SchemeKind::kFlat, SchemeKind::kOneM, SchemeKind::kDistributed,
        SchemeKind::kHashing, SchemeKind::kSignature,
        SchemeKind::kIntegratedSignature, SchemeKind::kMultiLevelSignature}) {
    auto scheme = BuildScheme(kind, dataset, geometry);
    ASSERT_TRUE(scheme.ok()) << SchemeKindToString(kind) << ": "
                             << scheme.status().ToString();
    EXPECT_TRUE(
        ValidateProgramStructure(scheme.value()->view()).ok());
    for (int r = 0; r < dataset->size(); ++r) {
      const AccessResult result =
          scheme.value()->Access(dataset->record(r).key, 17 * r + 3);
      EXPECT_TRUE(result.found)
          << SchemeKindToString(kind) << " missed record " << r;
      EXPECT_EQ(result.anomalies, 0);
      EXPECT_GE(result.access_time, result.tuning_time);
    }
  }
}

TEST(Smoke, TestbedRuns) {
  TestbedConfig config;
  config.scheme = SchemeKind::kDistributed;
  config.num_records = 200;
  config.geometry.record_bytes = 100;
  config.geometry.key_bytes = 10;
  config.min_rounds = 2;
  config.max_rounds = 5;
  config.requests_per_round = 50;
  const Result<SimulationResult> result = RunTestbed(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().requests, 0);
  EXPECT_EQ(result.value().outcome_mismatches, 0);
  EXPECT_EQ(result.value().anomalies, 0);
}

}  // namespace
}  // namespace airindex
