// Unit tests for the error-prone channel model.

#include <memory>

#include <gtest/gtest.h>

#include "client/air_walk.h"
#include "data/dataset.h"
#include "des/random.h"
#include "schemes/scheme.h"

namespace airindex {
namespace {

std::unique_ptr<BroadcastScheme> MakeScheme(SchemeKind kind, int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 6;
  auto dataset =
      std::make_shared<const Dataset>(Dataset::Generate(config).value());
  BucketGeometry geometry;
  geometry.record_bytes = 100;
  geometry.key_bytes = 6;
  return BuildScheme(kind, dataset, geometry).value();
}

TEST(ErrorModel, ZeroRateIsIdentity) {
  const auto scheme = MakeScheme(SchemeKind::kDistributed, 200);
  DatasetConfig config;
  config.num_records = 200;
  config.key_width = 6;
  const Dataset dataset = Dataset::Generate(config).value();
  Rng rng(1);
  const ErrorModel model;  // rate 0
  for (int r = 0; r < 200; r += 7) {
    const AccessResult plain = scheme->Access(dataset.record(r).key, 555);
    const AccessResult with_errors =
        AccessWithErrors(*scheme, dataset.record(r).key, 555, model, &rng);
    EXPECT_EQ(plain.found, with_errors.found);
    EXPECT_EQ(plain.access_time, with_errors.access_time);
    EXPECT_EQ(plain.tuning_time, with_errors.tuning_time);
    EXPECT_EQ(plain.probes, with_errors.probes);
  }
}

TEST(ErrorModel, CertainCorruptionExhaustsRetries) {
  const auto scheme = MakeScheme(SchemeKind::kHashing, 100);
  DatasetConfig config;
  config.num_records = 100;
  config.key_width = 6;
  const Dataset dataset = Dataset::Generate(config).value();
  Rng rng(2);
  ErrorModel model;
  model.bucket_error_rate = 1.0;
  const AccessResult result = AccessWithErrors(
      *scheme, dataset.record(5).key, 0, model, &rng, /*max_retries=*/8);
  EXPECT_FALSE(result.found);
  EXPECT_GE(result.anomalies, 1);
  EXPECT_GT(result.access_time, 0);
}

TEST(ErrorModel, ModerateErrorsStillFindEventually) {
  const auto scheme = MakeScheme(SchemeKind::kDistributed, 300);
  DatasetConfig config;
  config.num_records = 300;
  config.key_width = 6;
  const Dataset dataset = Dataset::Generate(config).value();
  Rng rng(3);
  ErrorModel model;
  model.bucket_error_rate = 0.05;
  int found = 0;
  double plain_total = 0;
  double error_total = 0;
  for (int r = 0; r < 300; ++r) {
    const AccessResult result =
        AccessWithErrors(*scheme, dataset.record(r).key, 100 * r, model, &rng);
    if (result.found) ++found;
    error_total += static_cast<double>(result.tuning_time);
    plain_total += static_cast<double>(
        scheme->Access(dataset.record(r).key, 100 * r).tuning_time);
  }
  EXPECT_EQ(found, 300);  // retries succeed
  EXPECT_GT(error_total, plain_total);  // but corruption wastes listening
}

TEST(ErrorModel, DeterministicGivenRngSeed) {
  const auto scheme = MakeScheme(SchemeKind::kSignature, 150);
  DatasetConfig config;
  config.num_records = 150;
  config.key_width = 6;
  const Dataset dataset = Dataset::Generate(config).value();
  ErrorModel model;
  model.bucket_error_rate = 0.01;
  Rng a(7);
  Rng b(7);
  for (int r = 0; r < 150; r += 11) {
    const AccessResult ra =
        AccessWithErrors(*scheme, dataset.record(r).key, 42, model, &a);
    const AccessResult rb =
        AccessWithErrors(*scheme, dataset.record(r).key, 42, model, &b);
    EXPECT_EQ(ra.access_time, rb.access_time);
    EXPECT_EQ(ra.tuning_time, rb.tuning_time);
    EXPECT_EQ(ra.found, rb.found);
  }
}

TEST(ErrorModel, AbsentKeysStayAbsent) {
  const auto scheme = MakeScheme(SchemeKind::kOneM, 100);
  DatasetConfig config;
  config.num_records = 100;
  config.key_width = 6;
  const Dataset dataset = Dataset::Generate(config).value();
  Rng rng(9);
  ErrorModel model;
  model.bucket_error_rate = 0.02;
  for (int i = 0; i <= 100; i += 9) {
    const AccessResult result =
        AccessWithErrors(*scheme, dataset.AbsentKey(i), 1000 * i, model, &rng);
    EXPECT_FALSE(result.found);
  }
}

}  // namespace
}  // namespace airindex
