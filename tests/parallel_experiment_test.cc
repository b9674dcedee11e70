// Tests of the parallel replication engine (core/experiment.h): the
// --jobs 1 vs --jobs 8 bit-identity guarantee, RunTestbed as its serial
// case, deterministic splitmix64 per-replication seeding with
// non-overlapping adjacent streams, sweeps pinned to lone runs (cold and
// warm program caches, invalid and sharded cells), timing accounting, and
// the merge-friendliness and round bounds of the confidence stopping
// rule.

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/accuracy_controller.h"
#include "core/experiment.h"
#include "core/shard.h"
#include "core/simulator.h"
#include "core/testbed_config.h"
#include "des/random.h"
#include "stats/confidence.h"

namespace airindex {
namespace {

TestbedConfig SmallConfig(SchemeKind kind) {
  TestbedConfig config;
  config.scheme = kind;
  config.num_records = 400;
  config.requests_per_round = 50;
  config.min_rounds = 5;
  config.max_rounds = 40;
  // Loose enough that the stopping rule usually fires before max_rounds,
  // exercising the mid-wave stop (speculative replications discarded).
  config.confidence_accuracy = 0.05;
  config.seed = 20240807;
  return config;
}

/// Exact (bitwise) equality of every statistic the engine reports.
void ExpectIdenticalResults(const SimulationResult& a,
                            const SimulationResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.converged, b.converged);

  EXPECT_EQ(a.access.count(), b.access.count());
  EXPECT_EQ(a.access.mean(), b.access.mean());
  EXPECT_EQ(a.access.variance(), b.access.variance());
  EXPECT_EQ(a.access.min(), b.access.min());
  EXPECT_EQ(a.access.max(), b.access.max());
  EXPECT_EQ(a.tuning.mean(), b.tuning.mean());
  EXPECT_EQ(a.tuning.variance(), b.tuning.variance());
  EXPECT_EQ(a.probes.mean(), b.probes.mean());

  EXPECT_EQ(a.access_check.mean, b.access_check.mean);
  EXPECT_EQ(a.access_check.half_width, b.access_check.half_width);
  EXPECT_EQ(a.access_check.relative_accuracy,
            b.access_check.relative_accuracy);
  EXPECT_EQ(a.tuning_check.mean, b.tuning_check.mean);
  EXPECT_EQ(a.tuning_check.half_width, b.tuning_check.half_width);

  EXPECT_EQ(a.access_histogram.count(), b.access_histogram.count());
  EXPECT_EQ(a.access_histogram.p50(), b.access_histogram.p50());
  EXPECT_EQ(a.access_histogram.p99(), b.access_histogram.p99());
  EXPECT_EQ(a.tuning_histogram.p95(), b.tuning_histogram.p95());

  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.false_drops, b.false_drops);
  EXPECT_EQ(a.anomalies, b.anomalies);
  EXPECT_EQ(a.outcome_mismatches, b.outcome_mismatches);
  EXPECT_EQ(a.cycle_bytes, b.cycle_bytes);
  EXPECT_EQ(a.num_buckets, b.num_buckets);
}

/// What the old wave-barrier engine (and a fully serial run) produces: a
/// test-local reference that executes replications one by one in id
/// order, merges each into the running statistics, and applies the
/// Student-t stopping rule after every merge. `stopping_replication` is
/// the id of the replication whose merge satisfied the rule (or
/// max_rounds - 1 when the cap hit first).
struct WaveReference {
  SimulationResult merged;
  int stopping_replication = -1;
};

WaveReference WaveReferenceRun(const TestbedConfig& config) {
  const auto dataset = BuildTestbedDataset(config).value();
  const BroadcastServer server =
      BroadcastServer::Create(config.scheme, dataset, config.geometry,
                              config.params)
          .value();
  AccuracyController accuracy(config.confidence_level,
                              config.confidence_accuracy);
  WaveReference reference;
  SimulationResult& merged = reference.merged;
  int rounds = 0;
  for (int id = 0; id < config.max_rounds; ++id) {
    const ReplicationResult replication = RunReplication(
        server, *dataset, config,
        ReplicationSeed(config.seed, static_cast<std::uint64_t>(id)));
    merged.access.Merge(replication.access);
    merged.tuning.Merge(replication.tuning);
    merged.probes.Merge(replication.probes);
    merged.access_histogram.Merge(replication.access_histogram);
    merged.tuning_histogram.Merge(replication.tuning_histogram);
    merged.found += replication.found;
    merged.abandoned += replication.abandoned;
    merged.false_drops += replication.false_drops;
    merged.anomalies += replication.anomalies;
    merged.outcome_mismatches += replication.outcome_mismatches;
    accuracy.AddRound(replication.round_access_mean,
                      replication.round_tuning_mean);
    ++rounds;
    if ((rounds >= config.min_rounds && accuracy.Satisfied()) ||
        rounds >= config.max_rounds) {
      reference.stopping_replication = id;
      break;
    }
  }
  merged.requests = merged.access.count();
  merged.rounds = rounds;
  merged.converged = accuracy.Satisfied();
  merged.access_check = accuracy.access_check();
  merged.tuning_check = accuracy.tuning_check();
  const ArenaChannelView& channel = server.channel();
  merged.cycle_bytes = channel.cycle_bytes();
  merged.num_buckets = static_cast<std::int64_t>(channel.num_buckets());
  return reference;
}

TEST(ParallelExperiment, StreamedMergeMatchesWaveReference) {
  // The tentpole guarantee: the streaming ordered-merge scheduler is
  // bit-identical to the wave-merged (serial id-order) statistics for
  // every jobs value, including which replication satisfies the
  // stopping rule.
  for (const SchemeKind kind :
       {SchemeKind::kDistributed, SchemeKind::kSignature}) {
    SCOPED_TRACE(SchemeKindToString(kind));
    const TestbedConfig config = SmallConfig(kind);
    const WaveReference reference = WaveReferenceRun(config);
    // The stopping rule must actually fire mid-stream for this test to
    // exercise the cancellation point.
    ASSERT_TRUE(reference.merged.converged);
    ASSERT_LT(reference.stopping_replication, config.max_rounds - 1);
    for (const int jobs : {1, 2, 8}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      ParallelExperiment streamed({.jobs = jobs});
      const Result<SimulationResult> result = streamed.Run(config);
      ASSERT_TRUE(result.ok());
      ExpectIdenticalResults(result.value(), reference.merged);
      // rounds == stopping id + 1: the engine merged exactly the prefix
      // ending at the replication that satisfied the rule.
      EXPECT_EQ(result.value().rounds, reference.stopping_replication + 1);
      EXPECT_EQ(streamed.timing().replications_merged,
                reference.stopping_replication + 1);
    }
  }
}

TEST(ParallelExperiment, JobsOneAndJobsEightAreBitIdentical) {
  for (const SchemeKind kind :
       {SchemeKind::kFlat, SchemeKind::kDistributed, SchemeKind::kHashing,
        SchemeKind::kSignature}) {
    SCOPED_TRACE(SchemeKindToString(kind));
    const TestbedConfig config = SmallConfig(kind);
    ParallelExperiment serial({.jobs = 1});
    ParallelExperiment parallel({.jobs = 8});
    const Result<SimulationResult> a = serial.Run(config);
    const Result<SimulationResult> b = parallel.Run(config);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectIdenticalResults(a.value(), b.value());
  }
}

TEST(ParallelExperiment, BitIdenticalUnderErrorsDeadlinesAndSkew) {
  // The error-model and deadline paths draw from extra RNG streams;
  // they must be just as scheduling-independent.
  TestbedConfig config = SmallConfig(SchemeKind::kDistributed);
  config.error_model.bucket_error_rate = 1e-3;
  config.deadline.access_deadline_bytes = 400 * 500;
  config.zipf_theta = 0.8;
  config.data_availability = 0.8;
  ParallelExperiment serial({.jobs = 1});
  ParallelExperiment parallel({.jobs = 8});
  const Result<SimulationResult> a = serial.Run(config);
  const Result<SimulationResult> b = parallel.Run(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectIdenticalResults(a.value(), b.value());
}

TEST(ParallelExperiment, RepeatedRunsOnOneEngineAreIdentical) {
  const TestbedConfig config = SmallConfig(SchemeKind::kHashing);
  ParallelExperiment experiment({.jobs = 4});
  const SimulationResult a = experiment.Run(config).value();
  const SimulationResult b = experiment.Run(config).value();
  ExpectIdenticalResults(a, b);
}

TEST(ParallelExperiment, SweepMatchesIndividualRuns) {
  std::vector<TestbedConfig> configs = {SmallConfig(SchemeKind::kFlat),
                                        SmallConfig(SchemeKind::kSignature)};
  configs[1].seed = 7;
  ParallelExperiment sweeper({.jobs = 3});
  const auto sweep = sweeper.RunSweep(configs);
  ASSERT_EQ(sweep.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(sweep[i].ok());
    ParallelExperiment single({.jobs = 3});
    ExpectIdenticalResults(sweep[i].value(),
                           single.Run(configs[i]).value());
  }
}

/// A sweep grid that touches every per-cell path of RunSweep. Cell 0
/// names `second_dir`, so the engine's program cache is recreated for
/// `dir` at cell 1. Cells 1-4 share one generated dataset, cells 0, 6
/// and 7 another. Cell 5 is invalid and sits between two valid cells.
/// Cell 7's min_rounds is below every in-flight window.
std::vector<TestbedConfig> PinnedSweepGrid(const std::string& dir,
                                           const std::string& second_dir) {
  std::vector<TestbedConfig> grid;
  const auto add = [&](SchemeKind kind, int records,
                       const std::string& cache_dir) {
    TestbedConfig config = SmallConfig(kind);
    config.num_records = records;
    config.program_cache_dir = cache_dir;
    grid.push_back(config);
  };
  add(SchemeKind::kDistributed, 700, second_dir);
  add(SchemeKind::kFlat, 400, dir);
  add(SchemeKind::kDistributed, 400, dir);
  add(SchemeKind::kHashing, 400, dir);
  add(SchemeKind::kSignature, 400, dir);
  add(SchemeKind::kFlat, 400, dir);
  grid.back().num_records = -1;
  add(SchemeKind::kFlat, 700, dir);
  add(SchemeKind::kSignature, 700, dir);
  grid.back().min_rounds = 1;
  return grid;
}

/// An empty snapshot directory under the test's temporary directory.
std::string FreshCacheDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(ParallelExperiment, SweepGridMatchesLoneRunsColdAndWarm) {
  const std::string dir = FreshCacheDir("parallel_experiment_pin_a");
  const std::string second_dir = FreshCacheDir("parallel_experiment_pin_b");
  const std::vector<TestbedConfig> grid = PinnedSweepGrid(dir, second_dir);
  std::vector<Result<SimulationResult>> lone;
  for (const TestbedConfig& config : grid) {
    lone.push_back(ParallelExperiment({.jobs = 2}).Run(config));
  }
  ASSERT_FALSE(lone[5].ok());
  // Cell 0's program went to the cache the sweep replaced at cell 1.
  int valid_in_dir = 0;
  for (std::size_t c = 1; c < grid.size(); ++c) {
    if (lone[c].ok()) ++valid_in_dir;
  }
  ASSERT_EQ(valid_in_dir, 6);

  const auto expect_lone = [&](const std::vector<Result<SimulationResult>>&
                                   sweep) {
    ASSERT_EQ(sweep.size(), grid.size());
    for (std::size_t c = 0; c < grid.size(); ++c) {
      SCOPED_TRACE("cell " + std::to_string(c));
      ASSERT_EQ(sweep[c].ok(), lone[c].ok());
      if (!lone[c].ok()) {
        EXPECT_EQ(sweep[c].status().ToString(), lone[c].status().ToString());
        continue;
      }
      ExpectIdenticalResults(sweep[c].value(), lone[c].value());
      EXPECT_TRUE(sweep[c].value().metrics == lone[c].value().metrics);
    }
  };
  for (const int jobs : {1, 3}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    FreshCacheDir("parallel_experiment_pin_a");
    FreshCacheDir("parallel_experiment_pin_b");
    ParallelExperiment cold({.jobs = jobs});
    expect_lone(cold.RunSweep(grid));
    ASSERT_NE(cold.program_cache(), nullptr);
    const MetricsRegistry cold_cache = cold.program_cache()->MetricsSnapshot();
    EXPECT_EQ(cold_cache.Get("program.snapshot_hits") +
                  cold_cache.Get("program.memory_hits") +
                  cold_cache.Get("program.builds"),
              valid_in_dir);
    EXPECT_EQ(cold_cache.Get("program.builds"), valid_in_dir);

    ParallelExperiment warm({.jobs = jobs});
    expect_lone(warm.RunSweep(grid));
    ASSERT_NE(warm.program_cache(), nullptr);
    const MetricsRegistry warm_cache = warm.program_cache()->MetricsSnapshot();
    EXPECT_EQ(warm_cache.Get("program.snapshot_hits") +
                  warm_cache.Get("program.memory_hits") +
                  warm_cache.Get("program.builds"),
              valid_in_dir);
    EXPECT_EQ(warm_cache.Get("program.builds"), 0);
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(second_dir);
}

TEST(ParallelExperiment, ShardedSweepKeepsPlaceholdersAtTheirIndex) {
  const std::string dir = FreshCacheDir("parallel_experiment_shard_a");
  const std::string second_dir = FreshCacheDir("parallel_experiment_shard_b");
  const std::vector<TestbedConfig> grid = PinnedSweepGrid(dir, second_dir);
  std::vector<int> caps;
  for (const TestbedConfig& config : grid) caps.push_back(config.max_rounds);
  // Shard 2 of 3 owns the middle of the flat replication sequence:
  // cells 2-5, the invalid cell last, and neither end of the grid.
  const ShardSpec spec{1, 3};
  const std::vector<ShardRange> ranges = PartitionSweep(caps, spec);
  ASSERT_TRUE(ranges.front().empty());
  ASSERT_TRUE(ranges.back().empty());
  ASSERT_FALSE(ranges[5].empty());

  std::vector<std::vector<Result<SimulationResult>>> sweeps;
  std::vector<std::vector<ShardCell>> cells;
  for (const int jobs : {1, 3}) {
    ParallelExperiment sharded({.jobs = jobs, .shard = spec});
    sweeps.push_back(sharded.RunSweep(grid));
    cells.push_back(sharded.shard_cells());
  }
  const Status invalid = ParallelExperiment().Run(grid[5]).status();
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    ASSERT_EQ(sweeps[s].size(), grid.size());
    ASSERT_EQ(cells[s].size(), grid.size());
    for (std::size_t c = 0; c < grid.size(); ++c) {
      SCOPED_TRACE("cell " + std::to_string(c));
      const Result<SimulationResult>& result = sweeps[s][c];
      EXPECT_EQ(cells[s][c].max_rounds, grid[c].max_rounds);
      if (c == 5) {
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().ToString(), invalid.ToString());
        EXPECT_TRUE(cells[s][c].replications.empty());
        continue;
      }
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (ranges[c].empty()) {
        // The placeholder: nothing of the cell ran in this shard.
        EXPECT_EQ(result.value().requests, 0);
        EXPECT_EQ(result.value().rounds, 0);
        EXPECT_TRUE(cells[s][c].replications.empty());
        continue;
      }
      EXPECT_EQ(result.value().rounds, ranges[c].hi - ranges[c].lo);
      ASSERT_EQ(static_cast<int>(cells[s][c].replications.size()),
                ranges[c].hi - ranges[c].lo);
      for (int k = 0; k < ranges[c].hi - ranges[c].lo; ++k) {
        const ReplicationPayload& payload = cells[s][c].replications[k];
        EXPECT_EQ(payload.id, ranges[c].lo + k);
        EXPECT_EQ(payload.access_mean,
                  cells[0][c].replications[k].access_mean);
        EXPECT_EQ(payload.tuning_m2, cells[0][c].replications[k].tuning_m2);
      }
      ExpectIdenticalResults(result.value(), sweeps[0][c].value());
    }
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(second_dir);
}

TEST(ParallelExperiment, RejectsBadConfigsLikeRunTestbed) {
  TestbedConfig config;
  config.num_records = 0;
  ParallelExperiment experiment({.jobs = 2});
  EXPECT_FALSE(experiment.Run(config).ok());
  config = SmallConfig(SchemeKind::kFlat);
  config.confidence_level = 1.5;
  EXPECT_FALSE(experiment.Run(config).ok());
}

TEST(ParallelExperiment, TimingIsAccounted) {
  const TestbedConfig config = SmallConfig(SchemeKind::kDistributed);
  ParallelExperiment experiment({.jobs = 2});
  const SimulationResult result = experiment.Run(config).value();
  const RunTiming& timing = experiment.timing();
  EXPECT_EQ(timing.jobs, 2);
  EXPECT_EQ(timing.replications_merged, result.rounds);
  EXPECT_GE(timing.replications_run, timing.replications_merged);
  EXPECT_EQ(timing.replications_discarded,
            timing.replications_run - timing.replications_merged);
  // At least the merged replications flowed through the reorder buffer.
  EXPECT_GE(timing.reorder_buffer_peak, 1);
  EXPECT_GT(timing.wall_seconds, 0.0);
  EXPECT_GT(timing.busy_seconds, 0.0);
  EXPECT_GE(timing.idle_seconds, 0.0);
  // Run prepares its one cell before any replication starts.
  EXPECT_GT(timing.setup_seconds, 0.0);
  EXPECT_LT(timing.setup_seconds, timing.wall_seconds);
  EXPECT_GE(timing.worker_utilization(), 0.0);
  EXPECT_LE(timing.worker_utilization(), 1.0);
  EXPECT_GT(timing.replications_per_second(), 0.0);
}

TEST(ParallelExperiment, SweepWallIsTheSumOfCellWalls) {
  // A sweep charges each cell's whole interval to wall_seconds,
  // including the datasets it generates and the programs it builds, so a
  // fresh engine's wall is exactly the sum of its cell walls.
  std::vector<TestbedConfig> configs;
  for (const int records : {900, 1500}) {
    for (const SchemeKind kind : {SchemeKind::kFlat, SchemeKind::kHashing}) {
      TestbedConfig config = SmallConfig(kind);
      config.num_records = records;
      configs.push_back(config);
    }
  }
  ParallelExperiment experiment({.jobs = 2});
  for (const Result<SimulationResult>& result : experiment.RunSweep(configs)) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  const RunTiming& timing = experiment.timing();
  ASSERT_EQ(timing.cell_wall_seconds.size(), configs.size());
  double cell_walls = 0.0;
  for (const double seconds : timing.cell_wall_seconds) cell_walls += seconds;
  EXPECT_DOUBLE_EQ(timing.wall_seconds, cell_walls);
  EXPECT_GT(timing.setup_seconds, 0.0);
  EXPECT_LT(timing.setup_seconds, timing.wall_seconds);
}

TEST(ParallelExperiment, RunTestbedIsTheSerialEngine) {
  // RunTestbed is ParallelExperiment({.jobs = 1}).Run: one config gives
  // one answer, from an example or from a bench at any --jobs. Each case
  // engages one client stage, and its witness counter proves the stage
  // actually ran.
  struct Case {
    const char* name;
    TestbedConfig config;
    const char* witness;
  };
  std::vector<Case> cases;

  TestbedConfig warm = SmallConfig(SchemeKind::kDistributed);
  warm.zipf_theta = 0.8;
  warm.client.cache_capacity = 32;
  warm.client.warmup_queries = 200;
  cases.push_back({"session cache with warmup", warm, "client.cache_hits"});

  TestbedConfig stale = SmallConfig(SchemeKind::kOneM);
  stale.zipf_theta = 0.9;
  stale.client.cache_capacity = 64;
  stale.client.update_rate = 8.0;
  stale.client.update_zipf = 0.9;
  stale.client.compact_every = 2;
  cases.push_back({"dynamic updates with a cache", stale,
                   "dynamic.stale_reads"});

  TestbedConfig online = SmallConfig(SchemeKind::kFlat);
  online.zipf_theta = 0.9;
  online.params.schedule.scheduler = SchedulerKind::kOnline;
  online.params.schedule.num_disks = 4;
  online.params.schedule.retier_requests = 16;
  cases.push_back({"online re-tiering", online, "schedule.retier_epochs"});

  TestbedConfig lossy = SmallConfig(SchemeKind::kDistributed);
  lossy.error_model.bucket_error_rate = 1e-3;
  lossy.deadline.access_deadline_bytes = 400 * 500;
  lossy.zipf_theta = 0.8;
  lossy.data_availability = 0.8;
  cases.push_back({"errors, deadline and skew", lossy,
                   "client.error_retries"});

  TestbedConfig channels = SmallConfig(SchemeKind::kOneM);
  channels.multichannel.num_channels = 2;
  channels.multichannel.allocation = ChannelAllocation::kDataPartitioned;
  cases.push_back({"two data-partitioned channels", channels,
                   "client.channel_hops"});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Result<SimulationResult> serial = RunTestbed(c.config);
    ParallelExperiment engine({.jobs = 4});
    const Result<SimulationResult> parallel = engine.Run(c.config);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectIdenticalResults(serial.value(), parallel.value());
    EXPECT_TRUE(serial.value().metrics == parallel.value().metrics);
    EXPECT_GT(serial.value().metrics.Get(c.witness), 0) << c.witness;
  }
  // The deadline case must also have abandoned some requests.
  EXPECT_GT(RunTestbed(lossy).value().abandoned, 0);
}

TEST(AccuracyController, ShouldStopHonoursRoundBounds) {
  // Identical rounds satisfy the accuracy target from the second round
  // on; the rule still waits for min_rounds.
  AccuracyController steady(0.99, 0.01);
  for (int i = 0; i < 3; ++i) steady.AddRound(100.0, 10.0);
  ASSERT_TRUE(steady.Satisfied());
  EXPECT_FALSE(steady.ShouldStop(4, 10));
  EXPECT_TRUE(steady.ShouldStop(3, 10));
  // Rounds that never meet the target stop only at the max_rounds cap.
  AccuracyController noisy(0.99, 0.01);
  noisy.AddRound(1.0, 1.0);
  noisy.AddRound(100.0, 100.0);
  ASSERT_FALSE(noisy.Satisfied());
  EXPECT_FALSE(noisy.ShouldStop(1, 3));
  EXPECT_TRUE(noisy.ShouldStop(1, 2));
}

TEST(ReplicationSeed, IsMasterSeedXorSplitmix64OfId) {
  const std::uint64_t master = 0x1234abcdULL;
  for (const std::uint64_t id : {0ULL, 1ULL, 2ULL, 1000ULL}) {
    EXPECT_EQ(ReplicationSeed(master, id), master ^ Mix64(id));
  }
  EXPECT_NE(ReplicationSeed(master, 0), ReplicationSeed(master, 1));
}

TEST(ReplicationSeed, AdjacentIdStreamsDoNotOverlap) {
  // Streams of adjacent replication ids must not collide: 4096 draws
  // from each of ids {0..4} share no 64-bit output (a collision among
  // 20480 uniform draws has probability ~1e-11, so any hit would mean
  // correlated streams).
  const std::uint64_t master = 42;
  constexpr int kDraws = 4096;
  std::set<std::uint64_t> seen;
  std::size_t produced = 0;
  for (std::uint64_t id = 0; id < 5; ++id) {
    Rng rng(ReplicationSeed(master, id));
    for (int i = 0; i < kDraws; ++i) {
      seen.insert(rng.NextUint64());
      ++produced;
    }
  }
  EXPECT_EQ(seen.size(), produced);
}

TEST(ReplicationResult, IsDeterministicPerSeed) {
  const TestbedConfig config = SmallConfig(SchemeKind::kHashing);
  const auto dataset = BuildTestbedDataset(config).value();
  const BroadcastServer server =
      BroadcastServer::Create(config.scheme, dataset, config.geometry,
                              config.params)
          .value();
  const std::uint64_t seed = ReplicationSeed(config.seed, 3);
  const ReplicationResult a = RunReplication(server, *dataset, config, seed);
  const ReplicationResult b = RunReplication(server, *dataset, config, seed);
  EXPECT_EQ(a.requests, config.requests_per_round);
  EXPECT_EQ(a.access.mean(), b.access.mean());
  EXPECT_EQ(a.round_access_mean, b.round_access_mean);
  EXPECT_EQ(a.round_tuning_mean, b.round_tuning_mean);
  // A different replication id gives a different request stream.
  const ReplicationResult c = RunReplication(
      server, *dataset, config, ReplicationSeed(config.seed, 4));
  EXPECT_NE(a.access.mean(), c.access.mean());
}

TEST(ConfidenceEstimator, MergeMatchesSequentialObservations) {
  ConfidenceEstimator whole(0.99, 0.01);
  ConfidenceEstimator left(0.99, 0.01);
  ConfidenceEstimator right(0.99, 0.01);
  const std::vector<double> ys = {10.0, 10.5, 9.5, 10.2, 9.9, 10.1};
  for (std::size_t i = 0; i < ys.size(); ++i) {
    whole.AddObservation(ys[i]);
    (i < 3 ? left : right).AddObservation(ys[i]);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  const ConfidenceCheck merged = left.Check();
  const ConfidenceCheck sequential = whole.Check();
  EXPECT_NEAR(merged.half_width, sequential.half_width, 1e-12);
  EXPECT_EQ(merged.satisfied, sequential.satisfied);
}

}  // namespace
}  // namespace airindex
