// Tests for the testbed extensions: deadline policy, parallel sweep
// runner, Zipf-skewed request generation, and external datasets through
// RunTestbed.

#include <memory>

#include <gtest/gtest.h>

#include "client/air_walk.h"
#include "core/experiment.h"
#include "core/simulator.h"
#include "core/testbed_config.h"
#include "data/dataset.h"
#include "schemes/scheme.h"

namespace airindex {
namespace {

TestbedConfig SmallConfig(SchemeKind scheme) {
  TestbedConfig config;
  config.scheme = scheme;
  config.num_records = 300;
  config.geometry.record_bytes = 100;
  config.geometry.key_bytes = 10;
  config.requests_per_round = 100;
  config.min_rounds = 5;
  config.max_rounds = 40;
  return config;
}

TEST(Deadline, NoPolicyPassesThrough) {
  AccessResult walk;
  walk.found = true;
  walk.access_time = 1000;
  walk.tuning_time = 400;
  walk.probes = 7;
  const AccessResult out = ApplyDeadline(walk, DeadlinePolicy{});
  EXPECT_TRUE(out.found);
  EXPECT_EQ(out.access_time, 1000);
  EXPECT_FALSE(out.abandoned);
}

TEST(Deadline, TruncatesLateWalks) {
  AccessResult walk;
  walk.found = true;
  walk.access_time = 1000;
  walk.tuning_time = 400;
  walk.probes = 10;
  DeadlinePolicy policy;
  policy.access_deadline_bytes = 250;
  const AccessResult out = ApplyDeadline(walk, policy);
  EXPECT_FALSE(out.found);
  EXPECT_TRUE(out.abandoned);
  EXPECT_EQ(out.access_time, 250);
  EXPECT_EQ(out.tuning_time, 100);  // prorated 25%
  EXPECT_EQ(out.probes, 3);         // rounded
}

TEST(Deadline, ExactDeadlineIsNotAbandoned) {
  AccessResult walk;
  walk.found = true;
  walk.access_time = 250;
  DeadlinePolicy policy;
  policy.access_deadline_bytes = 250;
  EXPECT_TRUE(ApplyDeadline(walk, policy).found);
}

TEST(Deadline, TestbedCountsAbandonmentsNotMismatches) {
  TestbedConfig config = SmallConfig(SchemeKind::kFlat);
  // Flat access at 300 x 100 B averages ~15k bytes; a tight deadline
  // abandons most requests.
  config.deadline.access_deadline_bytes = 5000;
  const SimulationResult result = RunTestbed(config).value();
  EXPECT_GT(result.abandoned, result.requests / 2);
  EXPECT_EQ(result.outcome_mismatches, 0);
  EXPECT_LT(result.found, result.requests);
  // Every recorded access respects the deadline.
  EXPECT_LE(result.access_histogram.max(), 5000);
}

TEST(Deadline, GenerousDeadlineChangesNothing) {
  TestbedConfig config = SmallConfig(SchemeKind::kDistributed);
  const SimulationResult base = RunTestbed(config).value();
  config.deadline.access_deadline_bytes = 100000000;
  const SimulationResult with = RunTestbed(config).value();
  EXPECT_DOUBLE_EQ(base.access.mean(), with.access.mean());
  EXPECT_EQ(with.abandoned, 0);
}

TEST(Sweep, MatchesIndividualRunsAndReusesDatasets) {
  // All four cells share (num_records, geometry, seed), so the sweep's
  // dataset cache builds one dataset instead of four; the statistics must
  // still be bit-identical to a fresh Run per config.
  std::vector<TestbedConfig> configs;
  for (const SchemeKind kind :
       {SchemeKind::kFlat, SchemeKind::kDistributed, SchemeKind::kHashing,
        SchemeKind::kSignature}) {
    configs.push_back(SmallConfig(kind));
  }
  ParallelExperiment engine({.jobs = 4});
  const auto sweep = engine.RunSweep(configs);
  ASSERT_EQ(sweep.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(sweep[i].ok());
    ParallelExperiment single({.jobs = 4});
    const SimulationResult alone = single.Run(configs[i]).value();
    EXPECT_DOUBLE_EQ(sweep[i].value().access.mean(), alone.access.mean());
    EXPECT_DOUBLE_EQ(sweep[i].value().tuning.mean(), alone.tuning.mean());
    EXPECT_EQ(sweep[i].value().requests, alone.requests);
  }
}

TEST(Sweep, PropagatesPerConfigErrors) {
  std::vector<TestbedConfig> configs = {SmallConfig(SchemeKind::kFlat),
                                        SmallConfig(SchemeKind::kFlat)};
  configs[1].num_records = -1;
  ParallelExperiment engine({.jobs = 2});
  const auto results = engine.RunSweep(configs);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
}

TEST(Sweep, EmptyAndSingleThread) {
  ParallelExperiment engine({.jobs = 1});
  EXPECT_TRUE(engine.RunSweep({}).empty());
  const auto results = engine.RunSweep({SmallConfig(SchemeKind::kHashing)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok());
}

TEST(Zipf, SkewedRequestsLowerDisksAccess) {
  TestbedConfig uniform = SmallConfig(SchemeKind::kBroadcastDisks);
  TestbedConfig skewed = uniform;
  skewed.zipf_theta = 1.2;
  const SimulationResult u = RunTestbed(uniform).value();
  const SimulationResult s = RunTestbed(skewed).value();
  EXPECT_LT(s.access.mean(), 0.8 * u.access.mean());
  EXPECT_EQ(s.outcome_mismatches, 0);
}

TEST(ExternalDataset, RunsThroughTestbed) {
  std::vector<Record> records;
  for (int i = 0; i < 64; ++i) {
    Record record;
    record.key = "key" + std::to_string(100 + i);
    record.attributes = {"attr" + std::to_string(i % 5)};
    records.push_back(std::move(record));
  }
  auto dataset = std::make_shared<const Dataset>(
      Dataset::FromRecords(std::move(records)).value());

  TestbedConfig config = SmallConfig(SchemeKind::kDistributed);
  config.dataset = dataset;
  const Result<SimulationResult> run = RunTestbed(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().num_data_buckets, 64);
  EXPECT_EQ(run.value().outcome_mismatches, 0);
  EXPECT_EQ(run.value().anomalies, 0);
}

TEST(ExternalDataset, AllSchemesHandleExternalData) {
  std::vector<Record> records;
  for (int i = 0; i < 40; ++i) {
    Record record;
    record.key = "city" + std::to_string(1000 + 7 * i);
    record.attributes = {"zone" + std::to_string(i % 3), "poi"};
    records.push_back(std::move(record));
  }
  auto dataset = std::make_shared<const Dataset>(
      Dataset::FromRecords(std::move(records)).value());
  BucketGeometry geometry;
  geometry.record_bytes = 100;
  geometry.key_bytes = 8;
  for (const SchemeKind kind :
       {SchemeKind::kFlat, SchemeKind::kOneM, SchemeKind::kDistributed,
        SchemeKind::kHashing, SchemeKind::kSignature, SchemeKind::kHybrid,
        SchemeKind::kBroadcastDisks}) {
    auto scheme = BuildScheme(kind, dataset, geometry);
    ASSERT_TRUE(scheme.ok()) << SchemeKindToString(kind);
    for (int r = 0; r < dataset->size(); ++r) {
      EXPECT_TRUE(scheme.value()->Access(dataset->record(r).key, 31 * r).found)
          << SchemeKindToString(kind) << " record " << r;
    }
    EXPECT_FALSE(
        scheme.value()->Access(dataset->AbsentKey(7), 11).found);
  }
}

}  // namespace
}  // namespace airindex
