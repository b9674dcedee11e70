// Fleet-population engine (client/fleet.h + core/fleet_runner.h):
// single-client equivalence, shard/jobs bit-identity, metric
// consistency and the closed-form (1,m) percentile model.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analytical/models.h"
#include "client/fleet.h"
#include "core/broadcast_server.h"
#include "core/fleet_runner.h"
#include "core/simulator.h"
#include "des/random.h"

namespace airindex {
namespace {

/// Histograms are integer bucket arrays, so equality of count, range and
/// a quantile ladder pins sample-identical distributions.
void ExpectHistogramsEqual(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(a.Quantile(q), b.Quantile(q)) << "quantile " << q;
  }
}

FleetParams ParamsFrom(const TestbedConfig& config, int queries) {
  FleetParams params;
  params.queries_per_client = queries;
  params.cache_capacity = config.client.cache_capacity;
  params.session_length = config.client.session_length;
  params.repeat_probability = config.client.repeat_probability;
  params.data_availability = config.data_availability;
  params.mean_request_interval_bytes = config.mean_request_interval_bytes;
  params.zipf_theta = config.zipf_theta;
  params.seed = config.seed;
  params.deadline = config.deadline;
  params.error_model = config.error_model;
  return params;
}

/// A fleet of one stateless client must reproduce single-client
/// replication 0 request for request: same seeding, same draw order,
/// same access walks — so the histograms match sample for sample.
TEST(FleetTest, SizeOneReproducesStatelessReplication) {
  TestbedConfig config;
  config.scheme = SchemeKind::kOneM;
  config.num_records = 300;
  config.zipf_theta = 0.9;
  config.data_availability = 0.9;
  config.client.session_length = 3;
  config.client.repeat_probability = 0.3;
  config.requests_per_round = 16;
  config.seed = 99;
  const auto dataset = BuildTestbedDataset(config).value();
  const auto server =
      BroadcastServer::Create(config.scheme, dataset, config.geometry,
                              config.params)
          .value();
  const ReplicationResult rep = RunReplication(
      server, *dataset, config, ReplicationSeed(config.seed, 0));

  FleetParams params = ParamsFrom(config, config.requests_per_round);
  params.fleet_size = 1;
  const FleetShardResult fleet =
      RunFleetShard(server.scheme(), *dataset, params, 0, 1);

  EXPECT_EQ(fleet.clients, 1);
  EXPECT_EQ(fleet.queries, rep.requests);
  EXPECT_EQ(fleet.found, rep.found);
  EXPECT_EQ(fleet.tuning_bytes, rep.metrics.Get("client.bytes_listened"));
  EXPECT_EQ(fleet.index_probes, rep.metrics.Get("client.index_probes"));
  EXPECT_EQ(fleet.bucket_probes,
            rep.metrics.Get("client.buckets_listened"));
  ExpectHistogramsEqual(fleet.access_histogram, rep.access_histogram);
  ExpectHistogramsEqual(fleet.tuning_histogram, rep.tuning_histogram);
}

/// With the cache on, the residency bits must reproduce SessionClient's
/// hit/miss stream. A dataset of <= 64 records under capacity >= size
/// never evicts on either side, so the two caches hold identical
/// contents at every step.
TEST(FleetTest, SizeOneReproducesSessionClientWithCache) {
  TestbedConfig config;
  config.scheme = SchemeKind::kOneM;
  config.num_records = 60;
  config.zipf_theta = 0.9;
  config.data_availability = 0.85;
  config.client.cache_capacity = 60;
  config.client.session_length = 3;
  config.client.repeat_probability = 0.3;
  config.requests_per_round = 40;
  config.seed = 4242;
  const auto dataset = BuildTestbedDataset(config).value();
  const auto server =
      BroadcastServer::Create(config.scheme, dataset, config.geometry,
                              config.params)
          .value();
  const ReplicationResult rep = RunReplication(
      server, *dataset, config, ReplicationSeed(config.seed, 0));

  FleetParams params = ParamsFrom(config, config.requests_per_round);
  params.fleet_size = 1;
  const FleetShardResult fleet =
      RunFleetShard(server.scheme(), *dataset, params, 0, 1);

  EXPECT_EQ(fleet.queries, rep.metrics.Get("client.session_queries"));
  EXPECT_EQ(fleet.cache_hits, rep.metrics.Get("client.cache_hits"));
  EXPECT_EQ(fleet.cache_misses, rep.metrics.Get("client.cache_misses"));
  EXPECT_EQ(fleet.found, rep.found);
  ExpectHistogramsEqual(fleet.access_histogram, rep.access_histogram);
  ExpectHistogramsEqual(fleet.tuning_histogram, rep.tuning_histogram);
  EXPECT_EQ(fleet.hits_per_client.count(), 1);
  EXPECT_EQ(fleet.hits_per_client.max(), fleet.cache_hits);
}

/// Client-visible totals are invariant to how the fleet is cut into
/// shards: per-client seeding makes each client's contribution a pure
/// function of its id, and every statistic merges commutatively.
TEST(FleetTest, ShardPartitionInvariance) {
  TestbedConfig config;
  config.scheme = SchemeKind::kOneM;
  config.num_records = 500;
  config.zipf_theta = 0.9;
  config.data_availability = 0.9;
  config.client.cache_capacity = 32;
  config.client.session_length = 4;
  config.client.repeat_probability = 0.25;
  config.seed = 7;
  const auto dataset = BuildTestbedDataset(config).value();
  const auto server =
      BroadcastServer::Create(config.scheme, dataset, config.geometry,
                              config.params)
          .value();
  FleetParams params = ParamsFrom(config, 6);
  params.fleet_size = 500;

  const FleetShardResult whole =
      RunFleetShard(server.scheme(), *dataset, params, 0, 500);
  FleetShardResult merged;
  for (const auto& [lo, hi] :
       std::vector<std::pair<std::int64_t, std::int64_t>>{
           {0, 123}, {123, 400}, {400, 500}}) {
    merged.Merge(RunFleetShard(server.scheme(), *dataset, params, lo, hi));
  }

  EXPECT_EQ(whole.clients, merged.clients);
  EXPECT_EQ(whole.queries, merged.queries);
  EXPECT_EQ(whole.found, merged.found);
  EXPECT_EQ(whole.cache_hits, merged.cache_hits);
  EXPECT_EQ(whole.cache_misses, merged.cache_misses);
  EXPECT_EQ(whole.access_bytes, merged.access_bytes);
  EXPECT_EQ(whole.tuning_bytes, merged.tuning_bytes);
  EXPECT_EQ(whole.index_probes, merged.index_probes);
  EXPECT_EQ(whole.bucket_probes, merged.bucket_probes);
  EXPECT_EQ(whole.wake_events, merged.wake_events);
  ExpectHistogramsEqual(whole.access_histogram, merged.access_histogram);
  ExpectHistogramsEqual(whole.tuning_histogram, merged.tuning_histogram);
  ExpectHistogramsEqual(whole.hits_per_client, merged.hits_per_client);
}

/// The runner pins the shard count independently of --jobs, so the whole
/// merged registry — engine telemetry included — is bit-identical for
/// every jobs value (the BENCH_fleet counter identity of the CI gate).
TEST(FleetTest, RunnerIsBitIdenticalAcrossJobs) {
  TestbedConfig config;
  config.scheme = SchemeKind::kOneM;
  config.num_records = 400;
  config.zipf_theta = 0.9;
  config.client.cache_capacity = 48;
  config.client.session_length = 4;
  config.client.repeat_probability = 0.25;
  config.seed = 21;
  FleetOptions options;
  options.fleet_size = 3000;
  options.queries_per_client = 5;
  options.shards = 16;

  std::vector<MetricsRegistry> registries;
  for (const int jobs : {1, 4, 8}) {
    FleetExperiment experiment({.jobs = jobs});
    const auto run = experiment.Run(config, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    registries.push_back(run.value().metrics);
  }
  EXPECT_EQ(registries[0], registries[1]);
  EXPECT_EQ(registries[0], registries[2]);
}

/// fleet.* accounting invariants (the ones bench_compare
/// --strict-counters enforces on fleet reports).
TEST(FleetTest, RunnerMetricsAreConsistent) {
  TestbedConfig config;
  config.scheme = SchemeKind::kOneM;
  config.num_records = 400;
  config.zipf_theta = 0.9;
  config.data_availability = 0.9;
  config.client.cache_capacity = 64;
  config.client.session_length = 4;
  config.client.repeat_probability = 0.25;
  config.multichannel.num_channels = 4;
  config.seed = 33;
  FleetOptions options;
  options.fleet_size = 2000;
  options.queries_per_client = 6;

  FleetExperiment experiment({.jobs = 2});
  const auto run = experiment.Run(config, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const MetricsRegistry& metrics = run.value().metrics;

  EXPECT_EQ(metrics.Get("fleet.clients"), options.fleet_size);
  EXPECT_EQ(metrics.Get("fleet.queries"),
            options.fleet_size * options.queries_per_client);
  EXPECT_EQ(metrics.Get("fleet.cache_hits") +
                metrics.Get("fleet.cache_misses"),
            metrics.Get("fleet.queries"));
  EXPECT_LE(metrics.Get("fleet.found"), metrics.Get("fleet.queries"));
  EXPECT_GE(metrics.Get("fleet.access_p95"),
            metrics.Get("fleet.access_p50"));
  EXPECT_GE(metrics.Get("fleet.access_p99"),
            metrics.Get("fleet.access_p95"));
  EXPECT_GE(metrics.Get("fleet.tuning_p99"),
            metrics.Get("fleet.tuning_p50"));
  // Per-channel tuning attribution is exhaustive.
  std::int64_t per_channel = 0;
  for (int c = 0; c < run.value().num_channels; ++c) {
    per_channel += metrics.Get("fleet.tuning_bytes_ch" + std::to_string(c));
  }
  EXPECT_EQ(per_channel, metrics.Get("fleet.tuning_bytes"));
  EXPECT_EQ(run.value().num_channels, 4);
}

/// The fleet's four gates, each on a config the single-client engine
/// accepts, so the fleet's own gate is the one that fires: caches past
/// the 64 residency bits, server updates, cache warmup and online
/// re-tiering (docs/ARCHITECTURE.md §6 gives each reason). Deadlines
/// and the unreliable channel run through the shared client walk, so
/// they validate.
TEST(FleetTest, ValidationRejectsUnsupportedExtensions) {
  const FleetOptions options;
  // Each gate's config and a phrase of its error message.
  std::vector<std::pair<std::string, TestbedConfig>> rejected(4);
  rejected[0].first = "64 residency bits";
  rejected[0].second.client.cache_capacity = 65;
  rejected[1].first = "server updates";
  rejected[1].second.client.update_rate = 2.0;
  rejected[2].first = "cache warmup";
  rejected[2].second.client.cache_capacity = 16;
  rejected[2].second.client.warmup_queries = 10;
  rejected[3].first = "online re-tiering";
  rejected[3].second.params.schedule.scheduler = SchedulerKind::kOnline;
  for (const auto& [phrase, config] : rejected) {
    SCOPED_TRACE(phrase);
    EXPECT_TRUE(ValidateTestbedConfig(config).ok());
    const Status status = ValidateFleetConfig(config, options);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(phrase), std::string::npos)
        << status.ToString();
  }

  TestbedConfig config;
  EXPECT_TRUE(ValidateFleetConfig(config, options).ok());
  config.error_model.bucket_error_rate = 0.1;
  EXPECT_TRUE(ValidateFleetConfig(config, options).ok());
  config.deadline.access_deadline_bytes = 1000;
  EXPECT_TRUE(ValidateFleetConfig(config, options).ok());
  config.client.cache_capacity = 64;
  EXPECT_TRUE(ValidateFleetConfig(config, options).ok());
}

/// Simulated population percentiles track the closed-form (1,m)
/// trapezoid quantiles. Tolerance covers the histogram's ~1/16 bucket
/// resolution plus the model's constant-shift approximation.
TEST(FleetTest, OneMFleetPercentilesMatchModel) {
  TestbedConfig config;
  config.scheme = SchemeKind::kOneM;
  config.num_records = 2000;
  // The model assumes a uniform tune-in phase; spreading arrivals over
  // many broadcast cycles (cycle here is ~1.25 MB) decorrelates phases.
  config.mean_request_interval_bytes = 10'000'000.0;
  config.seed = 11;
  FleetOptions options;
  options.fleet_size = 20000;
  options.queries_per_client = 4;

  FleetExperiment experiment({.jobs = 0});
  const auto run = experiment.Run(config, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const FleetShardResult& totals = run.value().totals;
  const int m = OneMOptimalMExact(config.num_records, config.geometry);

  const double sim_mean =
      static_cast<double>(totals.access_bytes) /
      static_cast<double>(totals.queries);
  const double model_mean =
      OneMModelExact(config.num_records, config.geometry, m).access_time;
  EXPECT_NEAR(sim_mean, model_mean, 0.05 * model_mean);

  for (const double q : {0.5, 0.95, 0.99}) {
    const auto sim = static_cast<double>(totals.access_histogram.Quantile(q));
    const double model =
        OneMFleetAccessQuantile(config.num_records, config.geometry, m, q);
    EXPECT_NEAR(sim, model, 0.12 * model) << "quantile " << q;
  }
  // The quantile function is monotone and brackets the mean.
  const double p01 =
      OneMFleetAccessQuantile(config.num_records, config.geometry, m, 0.01);
  const double p99 =
      OneMFleetAccessQuantile(config.num_records, config.geometry, m, 0.99);
  EXPECT_LT(p01, model_mean);
  EXPECT_GT(p99, model_mean);
}

}  // namespace
}  // namespace airindex
