// Tests for the testbed core: request generation, result handling,
// accuracy control, RunTestbed integration behaviour, and one
// replication's exact output pinned bit for bit.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/accuracy_controller.h"
#include "core/experiment.h"
#include "core/request_generator.h"
#include "core/result_handler.h"
#include "core/simulator.h"
#include "core/testbed_config.h"
#include "des/random.h"

namespace airindex {
namespace {

Dataset MakeDataset(int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 6;
  return Dataset::Generate(config).value();
}

TEST(RequestGenerator, AvailabilityControlsHitRate) {
  const Dataset dataset = MakeDataset(100);
  for (const double availability : {0.0, 0.35, 1.0}) {
    RequestGenerator generator(&dataset, availability, 1000.0, Rng(5));
    int on_air = 0;
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) {
      const Query query = generator.NextQuery();
      const bool actually_present = dataset.FindIndex(query.key) >= 0;
      EXPECT_EQ(query.on_air, actually_present);
      if (query.on_air) ++on_air;
    }
    EXPECT_NEAR(static_cast<double>(on_air) / kDraws, availability, 0.02);
  }
}

TEST(RequestGenerator, InterArrivalsArepositiveWithRequestedMean) {
  const Dataset dataset = MakeDataset(10);
  RequestGenerator generator(&dataset, 1.0, 700.0, Rng(6));
  double sum = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const Bytes delta = generator.NextInterArrival();
    EXPECT_GE(delta, 1);
    sum += static_cast<double>(delta);
  }
  EXPECT_NEAR(sum / kDraws, 700.0, 15.0);
}

TEST(ResultHandler, RoundsResetButTotalsAccumulate) {
  ResultHandler handler;
  AccessResult result;
  result.found = true;
  result.access_time = 100;
  result.tuning_time = 40;
  handler.Add(result, true);
  result.access_time = 200;
  handler.Add(result, true);
  EXPECT_EQ(handler.round_size(), 2);
  const ResultHandler::RoundStats round = handler.CloseRound();
  EXPECT_DOUBLE_EQ(round.access_mean, 150.0);
  EXPECT_DOUBLE_EQ(round.tuning_mean, 40.0);
  EXPECT_EQ(round.requests, 2);
  EXPECT_EQ(handler.round_size(), 0);
  EXPECT_EQ(handler.requests(), 2);
  EXPECT_EQ(handler.found(), 2);
}

TEST(ResultHandler, CountsMismatchesAndAnomalies) {
  ResultHandler handler;
  AccessResult result;
  result.found = false;
  result.anomalies = 2;
  result.false_drops = 3;
  handler.Add(result, /*expected_on_air=*/true);  // mismatch!
  EXPECT_EQ(handler.outcome_mismatches(), 1);
  EXPECT_EQ(handler.anomalies(), 2);
  EXPECT_EQ(handler.false_drops(), 3);
  result.found = true;
  result.anomalies = 0;
  handler.Add(result, true);  // fine
  EXPECT_EQ(handler.outcome_mismatches(), 1);
}

TEST(AccuracyController, RequiresBothMetrics) {
  AccuracyController controller(0.99, 0.01);
  // Access converges (identical values), tuning oscillates wildly.
  for (int i = 0; i < 50; ++i) {
    controller.AddRound(100.0, i % 2 == 0 ? 10.0 : 1000.0);
  }
  EXPECT_FALSE(controller.Satisfied());
  AccuracyController both(0.99, 0.01);
  for (int i = 0; i < 50; ++i) both.AddRound(100.0, 10.0);
  EXPECT_TRUE(both.Satisfied());
  EXPECT_EQ(both.rounds(), 50);
}

TestbedConfig SmallConfig(SchemeKind scheme) {
  TestbedConfig config;
  config.scheme = scheme;
  config.num_records = 300;
  config.geometry.record_bytes = 100;
  config.geometry.key_bytes = 10;
  config.requests_per_round = 100;
  config.min_rounds = 5;
  config.max_rounds = 60;
  return config;
}

TEST(RunTestbed, AllSchemesProduceCleanRuns) {
  for (const SchemeKind kind :
       {SchemeKind::kFlat, SchemeKind::kOneM, SchemeKind::kDistributed,
        SchemeKind::kHashing, SchemeKind::kSignature,
        SchemeKind::kIntegratedSignature, SchemeKind::kMultiLevelSignature}) {
    const Result<SimulationResult> run = RunTestbed(SmallConfig(kind));
    ASSERT_TRUE(run.ok()) << SchemeKindToString(kind);
    const SimulationResult& result = run.value();
    EXPECT_EQ(result.outcome_mismatches, 0) << SchemeKindToString(kind);
    EXPECT_EQ(result.anomalies, 0) << SchemeKindToString(kind);
    EXPECT_EQ(result.found, result.requests) << SchemeKindToString(kind);
    EXPECT_GE(result.requests, 500);
    EXPECT_GT(result.access.mean(), 0.0);
    EXPECT_GT(result.tuning.mean(), 0.0);
    EXPECT_LE(result.tuning.mean(), result.access.mean());
  }
}

TEST(RunTestbed, DeterministicForEqualSeeds) {
  const TestbedConfig config = SmallConfig(SchemeKind::kDistributed);
  const SimulationResult a = RunTestbed(config).value();
  const SimulationResult b = RunTestbed(config).value();
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_DOUBLE_EQ(a.access.mean(), b.access.mean());
  EXPECT_DOUBLE_EQ(a.tuning.mean(), b.tuning.mean());
  TestbedConfig other = config;
  other.seed = 43;
  const SimulationResult c = RunTestbed(other).value();
  EXPECT_NE(a.access.mean(), c.access.mean());
}

TEST(RunTestbed, AvailabilityReflectedInFoundRate) {
  TestbedConfig config = SmallConfig(SchemeKind::kDistributed);
  config.data_availability = 0.4;
  const SimulationResult result = RunTestbed(config).value();
  EXPECT_EQ(result.outcome_mismatches, 0);
  EXPECT_NEAR(result.found_rate(), 0.4, 0.05);
}

TEST(RunTestbed, StopsAtMaxRoundsWhenNotConverged) {
  TestbedConfig config = SmallConfig(SchemeKind::kFlat);
  config.confidence_accuracy = 1e-9;  // unreachable
  config.max_rounds = 8;
  const SimulationResult result = RunTestbed(config).value();
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.rounds, 8);
}

TEST(RunTestbed, ConvergedRunsReportAccuracy) {
  TestbedConfig config = SmallConfig(SchemeKind::kHashing);
  config.confidence_accuracy = 0.05;
  config.max_rounds = 200;
  const SimulationResult result = RunTestbed(config).value();
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.access_check.relative_accuracy, 0.05);
  EXPECT_LE(result.tuning_check.relative_accuracy, 0.05);
}

TEST(RunTestbed, RejectsBadConfigs) {
  TestbedConfig config = SmallConfig(SchemeKind::kFlat);
  config.num_records = 0;
  EXPECT_FALSE(RunTestbed(config).ok());
  config = SmallConfig(SchemeKind::kFlat);
  config.data_availability = 1.5;
  EXPECT_FALSE(RunTestbed(config).ok());
  config = SmallConfig(SchemeKind::kFlat);
  config.mean_request_interval_bytes = 0;
  EXPECT_FALSE(RunTestbed(config).ok());
  config = SmallConfig(SchemeKind::kFlat);
  config.confidence_level = 1.0;
  EXPECT_FALSE(RunTestbed(config).ok());
  config = SmallConfig(SchemeKind::kFlat);
  config.max_rounds = 1;
  config.min_rounds = 5;
  EXPECT_FALSE(RunTestbed(config).ok());
}

TEST(ValidateTestbedConfig, RejectsNonFiniteDoubles) {
  // NaN fails both sides of a `x < lo || x > hi` range test, so every
  // double field needs an explicit finiteness check.
  using Setter = void (*)(TestbedConfig*, double);
  const std::vector<std::pair<const char*, Setter>> fields = {
      {"data_availability",
       [](TestbedConfig* c, double x) { c->data_availability = x; }},
      {"mean_request_interval_bytes",
       [](TestbedConfig* c, double x) { c->mean_request_interval_bytes = x; }},
      {"zipf_theta", [](TestbedConfig* c, double x) { c->zipf_theta = x; }},
      {"bucket_error_rate",
       [](TestbedConfig* c, double x) {
         c->error_model.bucket_error_rate = x;
       }},
      {"confidence_level",
       [](TestbedConfig* c, double x) { c->confidence_level = x; }},
      {"confidence_accuracy",
       [](TestbedConfig* c, double x) { c->confidence_accuracy = x; }},
      {"repeat_probability",
       [](TestbedConfig* c, double x) { c->client.repeat_probability = x; }},
      {"update_rate",
       [](TestbedConfig* c, double x) { c->client.update_rate = x; }},
      {"update_zipf",
       [](TestbedConfig* c, double x) { c->client.update_zipf = x; }},
  };
  ASSERT_TRUE(ValidateTestbedConfig(SmallConfig(SchemeKind::kFlat)).ok());
  for (const auto& [name, set] : fields) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      SCOPED_TRACE(std::string(name) + " = " + std::to_string(bad));
      TestbedConfig config = SmallConfig(SchemeKind::kFlat);
      set(&config, bad);
      const Status status = ValidateTestbedConfig(config);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << status.ToString();
    }
  }
}

TEST(RunTestbed, ChannelShapeReported) {
  const SimulationResult result =
      RunTestbed(SmallConfig(SchemeKind::kSignature)).value();
  EXPECT_EQ(result.num_data_buckets, 300);
  EXPECT_EQ(result.num_signature_buckets, 300);
  EXPECT_EQ(result.cycle_bytes, 300 * (100 + 16));
}

// --- One replication's exact output -------------------------------------
//
// The statistical gates (bench_compare's Student-t bounds) cannot see a
// last-bit change in the Welford fold, yet the fold depends on the order
// in which completions reach ResultHandler::Add. These cases pin every
// accumulator of one RunReplication exactly, doubles as hex-float
// literals, so any change to the engine's completion order, draw order
// or request path fails here. Each case carries a witness that the
// feature it names really ran.

struct GoldenStats {
  std::int64_t count;
  double mean;
  double m2;
};

struct GoldenReplication {
  GoldenStats access;
  GoldenStats tuning;
  GoldenStats probes;
  double round_access_mean;
  double round_tuning_mean;
  std::int64_t found;
  std::int64_t abandoned;
  std::vector<std::pair<std::string, std::int64_t>> metrics;
};

void ExpectStats(const RunningStats& actual, const GoldenStats& golden,
                 const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(actual.count(), golden.count);
  EXPECT_EQ(actual.mean(), golden.mean);
  EXPECT_EQ(actual.m2(), golden.m2);
}

void ExpectGolden(const ReplicationResult& actual,
                  const GoldenReplication& golden) {
  ExpectStats(actual.access, golden.access, "access");
  ExpectStats(actual.tuning, golden.tuning, "tuning");
  ExpectStats(actual.probes, golden.probes, "probes");
  EXPECT_EQ(actual.round_access_mean, golden.round_access_mean);
  EXPECT_EQ(actual.round_tuning_mean, golden.round_tuning_mean);
  EXPECT_EQ(actual.found, golden.found);
  EXPECT_EQ(actual.abandoned, golden.abandoned);
  std::vector<std::pair<std::string, std::int64_t>> metrics;
  for (const MetricsRegistry::Entry& entry : actual.metrics.entries()) {
    metrics.emplace_back(entry.name, entry.value);
  }
  EXPECT_EQ(metrics, golden.metrics);
}

/// Builds the cell's server the way the replication engine does and runs
/// replication 0 of `config`.
ReplicationResult RunFirstReplication(const TestbedConfig& config) {
  EXPECT_TRUE(ValidateTestbedConfig(config).ok());
  std::unique_ptr<ProgramCache> program_cache;
  const TestbedServer cell =
      BuildTestbedServer(config, &program_cache).value();
  return RunReplication(cell.server, *cell.dataset, config,
                        ReplicationSeed(config.seed, 0));
}

TEST(RunReplicationGolden, FlatWhereLaterArrivalsFinishFirst) {
  TestbedConfig config;
  config.scheme = SchemeKind::kFlat;
  config.num_records = 2000;
  ExpectGolden(
      RunFirstReplication(config),
      {{500, 0x1.ec2e69999999ap+18, 0x1.28d76d18396ep+45},
       {500, 0x1.ec2e69999999ap+18, 0x1.28d76d18396ep+45},
       {500, 0x1.f7beb851eb855p+9, 0x1.37426b1e6666p+27},
       0x1.ec2e69999999ap+18,
       0x1.ec2e69999999ap+18,
       500,
       0,
       {{"sim.events_processed", 1000},
        {"server.buckets_broadcast", 53714},
        {"client.buckets_listened", 503745},
        {"client.bytes_listened", 251996825},
        {"client.bytes_dozed", 0},
        {"client.index_probes", 0},
        {"client.overflow_hops", 0},
        {"client.error_retries", 0}}});

  // Witness: the stateless client's request stream, replayed from the
  // replication's first split, has requests that complete before an
  // earlier arrival does, so the fold order differs from arrival order.
  const auto dataset = BuildTestbedDataset(config).value();
  const BroadcastServer server =
      BroadcastServer::Create(config.scheme, dataset, config.geometry,
                              config.params)
          .value();
  Rng master(ReplicationSeed(config.seed, 0));
  RequestGenerator generator(dataset.get(), config.data_availability,
                             config.mean_request_interval_bytes,
                             master.Split());
  Bytes arrival = 0;
  Bytes latest_completion = 0;
  int overtaken = 0;
  for (int i = 0; i < config.requests_per_round; ++i) {
    arrival += generator.NextInterArrival();
    const Query query = generator.NextQuery();
    const Bytes completion =
        arrival + server.scheme().Access(query.key, arrival).access_time;
    if (completion < latest_completion) ++overtaken;
    latest_completion = std::max(latest_completion, completion);
  }
  EXPECT_GT(overtaken, 0);
}

TEST(RunReplicationGolden, SkewCacheUpdatesRateFour) {
  // The (1,m) rate-4 cell of perfbench's skew_cache_updates workload at
  // its seed-1 master seed: Zipf requests through an LRU session cache
  // while the server mutates records and compacts every 4 epochs.
  TestbedConfig config;
  config.scheme = SchemeKind::kOneM;
  config.num_records = 7000;
  config.zipf_theta = 0.9;
  config.client.cache_capacity = 64;
  config.client.cache_policy = CachePolicy::kLru;
  config.client.session_length = 8;
  config.client.repeat_probability = 0.25;
  config.client.update_rate = 4;
  config.client.update_zipf = 0.7;
  config.client.compact_every = 4;
  config.seed = 100003 + 7000;
  const ReplicationResult result = RunFirstReplication(config);
  ExpectGolden(
      result,
      {{500, 0x1.bd618774bc6adp+20, 0x1.23c66bf91e9bp+50},
       {500, 0x1.219cfdf3b6459p+11, 0x1.f04984f4a7ef5p+29},
       {500, 0x1.124dd2f1a9fcp+2, 0x1.c0c3439581065p+11},
       0x1.bd618774bc6adp+20,
       0x1.219cfdf3b6459p+11,
       461,
       0,
       {{"sim.events_processed", 1000},
        {"server.buckets_broadcast", 52799},
        {"client.buckets_listened", 2143},
        {"client.bytes_listened", 1158453},
        {"client.bytes_dozed", 910984004},
        {"client.index_probes", 1520},
        {"client.overflow_hops", 0},
        {"client.error_retries", 0},
        {"client.session_queries", 500},
        {"client.cache_hits", 139},
        {"client.cache_misses", 361},
        {"client.cache_hit_bytes", 0},
        {"client.cache_validation_bytes", 2720},
        {"client.cache_invalidations", 31},
        {"client.cache_evictions", 227},
        {"client.cache_warm_inserts", 0},
        {"dynamic.cycles", 5},
        {"dynamic.patched_cycles", 4},
        {"dynamic.rebuilt_cycles", 1},
        {"dynamic.mutations", 140000},
        {"dynamic.inserts", 12039},
        {"dynamic.deletes", 12647},
        {"dynamic.updates", 115314},
        {"dynamic.freelist_pushes", 12376},
        {"dynamic.freelist_pops", 11222},
        {"dynamic.delta_appends", 3620},
        {"dynamic.queries", 361},
        {"dynamic.dirty_queries", 215},
        {"dynamic.delta_reads", 2},
        {"dynamic.delta_read_bytes", 2000},
        {"dynamic.compaction_failures", 0},
        {"dynamic.stale_reads", 31}}});
  EXPECT_GT(result.metrics.Get("client.cache_hits"), 0);
  EXPECT_GT(result.metrics.Get("dynamic.rebuilt_cycles"), 0);
}

TEST(RunReplicationGolden, LossyDistributedWithDeadline) {
  TestbedConfig config;
  config.scheme = SchemeKind::kDistributed;
  config.num_records = 2000;
  config.error_model.bucket_error_rate = 0.05;
  config.deadline.access_deadline_bytes = 600000;
  const ReplicationResult result = RunFirstReplication(config);
  ExpectGolden(
      result,
      {{500, 0x1.bd505126e978dp+18, 0x1.06947f5b13e19p+44},
       {500, 0x1.7bb47ae147adfp+11, 0x1.b6d50fd333331p+28},
       {500, 0x1.65604189374bap+2, 0x1.8c5e353f7ced7p+10},
       0x1.bd505126e978dp+18,
       0x1.7bb47ae147adfp+11,
       252,
       248,
       {{"sim.events_processed", 1000},
        {"server.buckets_broadcast", 52954},
        {"client.buckets_listened", 2792},
        {"client.bytes_listened", 1518820},
        {"client.bytes_dozed", 226481814},
        {"client.index_probes", 1913},
        {"client.overflow_hops", 0},
        {"client.error_retries", 197}}});
  EXPECT_GT(result.metrics.Get("client.error_retries"), 0);
  EXPECT_GT(result.abandoned, 0);
}

TEST(RunReplicationGolden, OnlineRetieringFlat) {
  // kFlat under the square-root scheduler, re-tiered online every 64
  // observed requests.
  TestbedConfig config;
  config.scheme = SchemeKind::kFlat;
  config.num_records = 2000;
  config.zipf_theta = 0.9;
  config.params.schedule.scheduler = SchedulerKind::kOnline;
  config.params.schedule.num_disks = 4;
  config.params.schedule.retier_requests = 64;
  const ReplicationResult result = RunFirstReplication(config);
  ExpectGolden(
      result,
      {{500, 0x1.6671299999995p+18, 0x1.0b096ddf4ceecp+46},
       {500, 0x1.6671299999995p+18, 0x1.0b096ddf4ceecp+46},
       {500, 0x1.6ecbc6a7ef9d8p+9, 0x1.180338ec49ba6p+28},
       0x1.6671299999995p+18,
       0x1.6671299999995p+18,
       500,
       0,
       {{"sim.events_processed", 1000},
        {"server.buckets_broadcast", 53328},
        {"client.buckets_listened", 366796},
        {"client.bytes_listened", 183522325},
        {"client.bytes_dozed", 0},
        {"client.index_probes", 0},
        {"client.overflow_hops", 0},
        {"client.error_retries", 0},
        {"schedule.num_disks", 4},
        {"schedule.major_frequency", 5},
        {"schedule.data_slots", 2680},
        {"schedule.occurrences", 2680},
        {"schedule.retier_epochs", 7},
        {"schedule.retier_moves", 529},
        {"schedule.rebuild_failures", 0}}});
  EXPECT_GT(result.metrics.Get("schedule.retier_epochs"), 0);
}

}  // namespace
}  // namespace airindex
