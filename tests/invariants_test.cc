// Randomized invariant harness: every registered scheme crossed with
// randomized dataset / geometry / multichannel / scheduler
// configurations (flat majority, square-root broadcast disks minority;
// the jobs property below also draws the online re-tiering loop). Each case
// draws its parameters from a per-case RNG stream seeded by
// ReplicationSeed(kHarnessSeed, case_id), so a failure log shows the
// exact (harness seed, case id) pair needed to replay it.
//
// Invariants checked on every protocol walk:
//  I1. tuning_time <= access_time, both non-negative;
//  I2. found iff the key is in the dataset (lossless, deadline-free);
//  I3. no anomalies, no retries, no abandonment;
//  I4. all counters non-negative;
//  I5. channel accounting: at most one hop per walk,
//      switch_bytes == channel_hops * switch cost, channel ids in range,
//      and a hop-free walk has identical start/final channels and no
//      final-channel tuning (a single channel has no accounting at all).
//
// And on the simulation level:
//  I6. ParallelExperiment results are bit-identical for jobs 1, 4 and 8 —
//      means, outcome counters and the full metrics registry.
//
// Arena property (single-channel cases, every walk case):
//  I7. flatten → snapshot-serialize → deserialize → restore is lossless:
//      the deserialized arena and a re-flatten of the restored scheme are
//      byte-identical to the original arena, and the restored scheme
//      answers every probe of the case identically to the built one.
//
// Shard property (core/shard.h):
//  I8. for random sweeps and N ∈ {2, 3, 5}, running every shard without
//      the stopping rule and replaying the merge with MergeShardedReports
//      reproduces the unsharded report bit-for-bit (points and counters);
//      and PartitionSweep's per-shard ranges partition every cell exactly.
//
// Dynamic property (src/dynamic; single-channel, non-scheduled cases):
//  I9. under a randomized mutation stream, every probe of the live
//      program keeps I1/I3, found tracks MutationLog liveness exactly,
//      and the dynamic.* counter identities hold. The jobs property
//      draws an update rate too, so I6 covers the mutation engine.
//
// Fleet property (client/fleet.h):
//  I10. a fleet of one client is replication 0: over every kind, 1–4
//      channels, availability, skew, sessions, channel errors and
//      deadlines (and the cache, where neither cache can evict), the
//      fleet's found count, access and tuning histograms, tuning,
//      index-probe, bucket-probe and per-channel tuning totals, and
//      cache hits and misses equal RunReplication's.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "broadcast/schedule.h"
#include "broadcast/snapshot.h"
#include "client/fleet.h"
#include "core/broadcast_server.h"
#include "core/experiment.h"
#include "core/fleet_runner.h"
#include "core/json_report.h"
#include "core/shard.h"
#include "core/simulator.h"
#include "data/dataset.h"
#include "des/random.h"
#include "dynamic/dynamic_program.h"
#include "schemes/multichannel.h"
#include "schemes/scheme.h"

namespace airindex {
namespace {

constexpr std::uint64_t kHarnessSeed = 0x1a11ce5eedull;
constexpr int kNumWalkCases = 220;

constexpr SchemeKind kAllSchemes[] = {
    SchemeKind::kFlat,
    SchemeKind::kOneM,
    SchemeKind::kDistributed,
    SchemeKind::kHashing,
    SchemeKind::kSignature,
    SchemeKind::kIntegratedSignature,
    SchemeKind::kMultiLevelSignature,
    SchemeKind::kBroadcastDisks,
    SchemeKind::kHybrid,
};

struct RandomCase {
  SchemeKind scheme = SchemeKind::kFlat;
  int num_records = 0;
  BucketGeometry geometry;
  MultiChannelParams multichannel;
  SchemeParams params;
};

RandomCase DrawCase(Rng* rng) {
  RandomCase c;
  c.scheme = kAllSchemes[rng->NextBounded(std::size(kAllSchemes))];
  // >= 12 records keeps every partition of a 4-channel split big enough
  // for broadcast disks (one record per disk).
  c.num_records = 12 + static_cast<int>(rng->NextBounded(289));
  c.geometry.key_bytes = 8 + static_cast<Bytes>(rng->NextBounded(18));
  c.geometry.record_bytes =
      2 * c.geometry.key_bytes + static_cast<Bytes>(rng->NextBounded(451));
  // Single-channel cases stay in the mix: the invariants must hold on
  // the paper's original testbed too.
  constexpr int kChannelChoices[] = {1, 1, 2, 3, 4};
  c.multichannel.num_channels =
      kChannelChoices[rng->NextBounded(std::size(kChannelChoices))];
  constexpr ChannelAllocation kAllocations[] = {
      ChannelAllocation::kIndexOnOne,
      ChannelAllocation::kDataPartitioned,
      ChannelAllocation::kReplicatedIndex,
  };
  c.multichannel.allocation =
      kAllocations[rng->NextBounded(std::size(kAllocations))];
  constexpr Bytes kSwitchCosts[] = {0, 50, 250};
  c.multichannel.switch_cost_bytes =
      kSwitchCosts[rng->NextBounded(std::size(kSwitchCosts))];
  // Skew-aware scheduling joins the walk mix: flat stays the majority so
  // the paper's committed layouts keep their coverage, and a scheduled
  // draw picks its own disk count and planning skew.
  constexpr SchedulerKind kSchedulers[] = {
      SchedulerKind::kFlat,   SchedulerKind::kFlat,
      SchedulerKind::kFlat,   SchedulerKind::kSquareRoot,
      SchedulerKind::kSquareRoot,
  };
  c.params.schedule.scheduler =
      kSchedulers[rng->NextBounded(std::size(kSchedulers))];
  if (c.params.schedule.active()) {
    constexpr int kDiskChoices[] = {2, 3, 4, 8};
    constexpr double kThetaChoices[] = {0.6, 0.95, 1.2};
    // A 4-channel split leaves ~n/4 records per partition; every disk
    // needs at least one record, so cap the draw at that floor.
    const int draw = kDiskChoices[rng->NextBounded(std::size(kDiskChoices))];
    const int cap = c.num_records / c.multichannel.num_channels;
    c.params.schedule.num_disks = draw < cap ? draw : cap;
    c.params.schedule.theta =
        kThetaChoices[rng->NextBounded(std::size(kThetaChoices))];
    // The scheduler composes only with the data-partitioned allocation.
    if (c.multichannel.num_channels > 1) {
      c.multichannel.allocation = ChannelAllocation::kDataPartitioned;
    }
  }
  return c;
}

std::shared_ptr<const Dataset> MakeDataset(const RandomCase& c) {
  DatasetConfig config;
  config.num_records = c.num_records;
  config.key_width = static_cast<int>(c.geometry.key_bytes);
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

void CheckWalkInvariants(const AccessResult& result, bool present,
                         const RandomCase& c) {
  // I1 / I4.
  EXPECT_GE(result.access_time, 0);
  EXPECT_GE(result.tuning_time, 0);
  EXPECT_LE(result.tuning_time, result.access_time);
  EXPECT_GE(result.probes, 0);
  EXPECT_GE(result.false_drops, 0);
  EXPECT_GE(result.index_probes, 0);
  EXPECT_GE(result.overflow_hops, 0);
  EXPECT_LE(result.index_probes, result.probes);
  // I2 / I3: lossless channel, patient client.
  EXPECT_EQ(result.found, present);
  EXPECT_EQ(result.anomalies, 0);
  EXPECT_EQ(result.retries, 0);
  EXPECT_FALSE(result.abandoned);
  if (result.found) {
    EXPECT_GT(result.tuning_time, 0);
  }
  // I5: channel accounting.
  const int channels = c.multichannel.num_channels;
  EXPECT_GE(result.channel_hops, 0);
  EXPECT_LE(result.channel_hops, 1);
  EXPECT_GE(result.start_channel, 0);
  EXPECT_LT(result.start_channel, channels);
  EXPECT_GE(result.final_channel, 0);
  EXPECT_LT(result.final_channel, channels);
  EXPECT_EQ(result.switch_bytes,
            static_cast<Bytes>(result.channel_hops) *
                c.multichannel.switch_cost_bytes);
  EXPECT_GE(result.final_channel_tuning, 0);
  EXPECT_LE(result.final_channel_tuning, result.tuning_time);
  if (result.channel_hops == 0) {
    EXPECT_EQ(result.start_channel, result.final_channel);
    EXPECT_EQ(result.final_channel_tuning, 0);
  } else {
    EXPECT_NE(result.start_channel, result.final_channel);
  }
  if (channels == 1) {
    EXPECT_EQ(result.channel_hops, 0);
    EXPECT_EQ(result.switch_bytes, 0);
  }
}

// I7 support: a restored scheme must be observably identical to the
// built one — every field a walk can produce.
void ExpectSameAccess(const AccessResult& built, const AccessResult& restored) {
  EXPECT_EQ(built.found, restored.found);
  EXPECT_EQ(built.access_time, restored.access_time);
  EXPECT_EQ(built.tuning_time, restored.tuning_time);
  EXPECT_EQ(built.probes, restored.probes);
  EXPECT_EQ(built.false_drops, restored.false_drops);
  EXPECT_EQ(built.index_probes, restored.index_probes);
  EXPECT_EQ(built.overflow_hops, restored.overflow_hops);
  EXPECT_EQ(built.retries, restored.retries);
  EXPECT_EQ(built.anomalies, restored.anomalies);
  EXPECT_EQ(built.abandoned, restored.abandoned);
}

/// I7: arena round trip for a single-channel program. Returns the
/// restored scheme so the walk loops can shadow every probe.
std::unique_ptr<BroadcastScheme> RoundTripThroughArena(
    const RandomCase& c, std::shared_ptr<const Dataset> dataset,
    const BroadcastScheme& program) {
  auto arena = FlattenSchemeProgram(c.scheme, program,
                                    /*dataset_fingerprint=*/11,
                                    /*params_fingerprint=*/22);
  if (!arena.ok()) {
    ADD_FAILURE() << "flatten failed: " << arena.status().ToString();
    return nullptr;
  }
  const std::vector<std::uint8_t> wire =
      ProgramSnapshot::Serialize(arena.value());
  auto loaded = ProgramSnapshot::Deserialize(wire);
  if (!loaded.ok()) {
    ADD_FAILURE() << "deserialize failed: " << loaded.status().ToString();
    return nullptr;
  }
  EXPECT_EQ(loaded.value().bytes(), arena.value().bytes());
  EXPECT_EQ(ProgramSnapshot::Serialize(loaded.value()), wire);
  auto shared = std::make_shared<const ProgramArena>(std::move(loaded).value());
  auto restored =
      RestoreSchemeFromArena(shared, std::move(dataset), c.geometry,
                             c.params);
  if (!restored.ok()) {
    ADD_FAILURE() << "restore failed: " << restored.status().ToString();
    return nullptr;
  }
  auto reflattened = FlattenSchemeProgram(c.scheme, *restored.value(),
                                          /*dataset_fingerprint=*/11,
                                          /*params_fingerprint=*/22);
  if (!reflattened.ok()) {
    ADD_FAILURE() << "re-flatten failed: " << reflattened.status().ToString();
    return nullptr;
  }
  EXPECT_EQ(reflattened.value().bytes(), shared->bytes());
  return std::move(restored).value();
}

TEST(InvariantsTest, RandomizedWalks) {
  for (std::uint64_t case_id = 0; case_id < kNumWalkCases; ++case_id) {
    Rng rng(ReplicationSeed(kHarnessSeed, case_id));
    const RandomCase c = DrawCase(&rng);
    SCOPED_TRACE("harness seed " + std::to_string(kHarnessSeed) + " case " +
                 std::to_string(case_id) + ": " +
                 std::string(SchemeKindToString(c.scheme)) + ", n=" +
                 std::to_string(c.num_records) + ", channels=" +
                 std::to_string(c.multichannel.num_channels) + ", alloc=" +
                 ChannelAllocationToString(c.multichannel.allocation) +
                 ", switch=" +
                 std::to_string(c.multichannel.switch_cost_bytes) +
                 ", scheduler=" +
                 SchedulerKindToString(c.params.schedule.scheduler) +
                 ", disks=" + std::to_string(c.params.schedule.num_disks));

    const auto dataset = MakeDataset(c);
    std::unique_ptr<BroadcastScheme> program;
    Bytes horizon = 0;
    if (c.multichannel.num_channels > 1) {
      auto built = MultiChannelProgram::Build(c.scheme, dataset, c.geometry,
                                              c.params, c.multichannel);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      for (int ch = 0; ch < built.value()->num_channels(); ++ch) {
        horizon = std::max(horizon,
                           2 * built.value()->channel_view(ch).cycle_bytes());
      }
      program = std::move(built).value();
    } else {
      auto built = BuildScheme(c.scheme, dataset, c.geometry, c.params);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      program = std::move(built).value();
      horizon = 2 * program->view().cycle_bytes();
    }
    // I7 (single-channel): the restored twin shadows every probe below.
    std::unique_ptr<BroadcastScheme> restored;
    if (c.multichannel.num_channels == 1) {
      restored = RoundTripThroughArena(c, dataset, *program);
      ASSERT_NE(restored, nullptr);
    }

    // Present keys at random tune-in times.
    const int present_probes = std::min(c.num_records, 24);
    for (int i = 0; i < present_probes; ++i) {
      const int index = static_cast<int>(
          rng.NextBounded(static_cast<std::uint64_t>(c.num_records)));
      const Bytes tune_in = static_cast<Bytes>(
          rng.NextBounded(static_cast<std::uint64_t>(horizon)));
      const AccessResult result =
          program->Access(dataset->record(index).key, tune_in);
      SCOPED_TRACE("present record " + std::to_string(index) + " tune_in " +
                   std::to_string(tune_in));
      CheckWalkInvariants(result, /*present=*/true, c);
      if (restored != nullptr) {
        ExpectSameAccess(result,
                         restored->Access(dataset->record(index).key, tune_in));
      }
    }
    // Absent keys interleaved with the data.
    for (int i = 0; i < 8; ++i) {
      const int slot = static_cast<int>(
          rng.NextBounded(static_cast<std::uint64_t>(c.num_records + 1)));
      const Bytes tune_in = static_cast<Bytes>(
          rng.NextBounded(static_cast<std::uint64_t>(horizon)));
      const AccessResult result =
          program->Access(dataset->absent_key(slot), tune_in);
      SCOPED_TRACE("absent slot " + std::to_string(slot) + " tune_in " +
                   std::to_string(tune_in));
      CheckWalkInvariants(result, /*present=*/false, c);
      if (restored != nullptr) {
        ExpectSameAccess(result,
                         restored->Access(dataset->absent_key(slot), tune_in));
      }
    }

    // I9: a mutation stream over the same program. The runtime composes
    // with single-channel, non-scheduled programs only (the validator
    // enforces the same gate on configs).
    if (c.multichannel.num_channels == 1 && !c.params.schedule.active()) {
      constexpr double kRates[] = {0.0, 0.5, 4.0};
      const double rate = kRates[rng.NextBounded(std::size(kRates))];
      if (rate > 0.0) {
        DynamicRuntime runtime;
        DynamicRuntime::Params p;
        p.kind = c.scheme;
        p.universe = dataset;
        p.geometry = c.geometry;
        p.scheme_params = c.params;
        p.update_rate = rate;
        p.update_zipf = (rng.NextBounded(2) == 0) ? 0.0 : 0.9;
        p.compact_every = (rng.NextBounded(2) == 0) ? 0 : 3;
        p.seed = ReplicationSeed(kHarnessSeed, 5000000 + case_id);
        p.epoch_bytes = program->view().cycle_bytes();
        p.base_scheme = program.get();
        ASSERT_TRUE(runtime.Start(std::move(p)).ok());
        // The runtime's clock is monotone (the event queue hands out
        // arrivals in time order), so probe with increasing tune-ins.
        Bytes now = 1;
        for (int i = 0; i < 16; ++i) {
          now += 1 + static_cast<Bytes>(
                         rng.NextBounded(static_cast<std::uint64_t>(horizon)));
          const int index = static_cast<int>(
              rng.NextBounded(static_cast<std::uint64_t>(c.num_records)));
          const AccessResult result =
              runtime.Access(dataset->record(index).key, now);
          SCOPED_TRACE("dynamic probe " + std::to_string(i) + " record " +
                       std::to_string(index) + " now " + std::to_string(now));
          EXPECT_EQ(result.found, runtime.log().live(index));
          EXPECT_GE(result.tuning_time, 0);
          EXPECT_LE(result.tuning_time, result.access_time);
          EXPECT_EQ(result.anomalies, 0);
          EXPECT_FALSE(result.abandoned);
        }
        const DynamicCounters& d = runtime.counters();
        EXPECT_EQ(d.patched_cycles + d.rebuilt_cycles, d.cycles);
        EXPECT_EQ(d.inserts + d.deletes + d.updates, d.mutations);
        EXPECT_LE(d.freelist_pops, d.freelist_pushes);
        EXPECT_LE(d.freelist_pushes, d.deletes);
        EXPECT_LE(d.freelist_pops, d.inserts);
        EXPECT_LE(d.dirty_queries, d.queries);
        EXPECT_LE(d.delta_reads, d.dirty_queries);
        EXPECT_EQ(d.delta_read_bytes == 0, d.delta_reads == 0);
      }
    }
  }
}

// I6: the replication engine's promise, exercised over randomized
// configs that also turn on the orthogonal extensions (availability,
// skew, channel errors, deadlines) to stress the merge path.
TEST(InvariantsTest, JobsBitIdentity) {
  constexpr std::uint64_t kJobsSeedBase = 1u << 20;
  constexpr int kNumConfigs = 8;
  for (std::uint64_t i = 0; i < kNumConfigs; ++i) {
    Rng rng(ReplicationSeed(kHarnessSeed, kJobsSeedBase + i));
    const RandomCase c = DrawCase(&rng);
    SCOPED_TRACE("harness seed " + std::to_string(kHarnessSeed) +
                 " jobs-config " + std::to_string(i));

    TestbedConfig config;
    config.scheme = c.scheme;
    config.geometry = c.geometry;
    config.multichannel = c.multichannel;
    config.params = c.params;
    config.num_records = c.num_records;
    config.data_availability = (rng.NextBounded(2) == 0) ? 1.0 : 0.6;
    config.zipf_theta = (rng.NextBounded(2) == 0) ? 0.0 : 0.8;
    config.error_model.bucket_error_rate =
        (rng.NextBounded(2) == 0) ? 0.0 : 0.02;
    config.deadline.access_deadline_bytes =
        (rng.NextBounded(2) == 0) ? 0 : 250000;
    // The online re-tiering loop is simulation-only state, so its jobs
    // bit-identity lives here: single-channel scheduled draws upgrade to
    // kOnline half the time, with an epoch short enough to close several
    // times inside the run.
    if (config.params.schedule.active() &&
        config.multichannel.num_channels == 1 && rng.NextBounded(2) == 0) {
      config.params.schedule.scheduler = SchedulerKind::kOnline;
      config.params.schedule.retier_requests = 40;
    }
    // The mutation engine joins the jobs mix where it composes: single
    // channel, no scheduler, lossless channel (the validator's gate).
    if (config.multichannel.num_channels == 1 &&
        !config.params.schedule.active() &&
        config.error_model.bucket_error_rate == 0.0) {
      constexpr double kRates[] = {0.0, 1.0, 4.0};
      config.client.update_rate = kRates[rng.NextBounded(std::size(kRates))];
      if (config.client.update_rate > 0.0) {
        config.client.update_zipf = (rng.NextBounded(2) == 0) ? 0.0 : 0.7;
        constexpr int kCompacts[] = {0, 4, 8};
        config.client.compact_every =
            kCompacts[rng.NextBounded(std::size(kCompacts))];
      }
    }
    config.requests_per_round = 50;
    config.min_rounds = 3;
    config.max_rounds = 5;
    config.seed = ReplicationSeed(kHarnessSeed, 7000 + i);

    std::vector<SimulationResult> results;
    for (const int jobs : {1, 4, 8}) {
      ParallelExperiment experiment({.jobs = jobs});
      auto run = experiment.Run(config);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      results.push_back(std::move(run).value());
    }
    const SimulationResult& reference = results.front();
    for (std::size_t j = 1; j < results.size(); ++j) {
      const SimulationResult& other = results[j];
      SCOPED_TRACE("jobs variant " + std::to_string(j));
      EXPECT_EQ(reference.requests, other.requests);
      EXPECT_EQ(reference.rounds, other.rounds);
      EXPECT_EQ(reference.converged, other.converged);
      EXPECT_EQ(reference.found, other.found);
      EXPECT_EQ(reference.abandoned, other.abandoned);
      EXPECT_EQ(reference.false_drops, other.false_drops);
      EXPECT_EQ(reference.anomalies, other.anomalies);
      EXPECT_EQ(reference.outcome_mismatches, other.outcome_mismatches);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(reference.access.mean(), other.access.mean());
      EXPECT_EQ(reference.tuning.mean(), other.tuning.mean());
      EXPECT_EQ(reference.probes.mean(), other.probes.mean());
      EXPECT_TRUE(reference.metrics == other.metrics);
    }
  }
}

// I8 support: the report a bench driver would write for a sweep —
// exactly AddSimulationPoint's construction (bench/bench_main.cc), so
// the property exercises the same bytes the JSON gate compares.
BenchReport ReportFromSweep(const std::vector<Result<SimulationResult>>& runs) {
  BenchReport report;
  report.bench = "shard_property";
  std::size_t index = 0;
  for (const Result<SimulationResult>& run : runs) {
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    const SimulationResult& sim = run.value();
    BenchPoint point;
    point.labels = {{"cell", std::to_string(index++)}};
    point.metrics.emplace_back(
        "access_bytes", BenchMetricValue{sim.access.mean(),
                                         sim.access_check.half_width, false});
    point.metrics.emplace_back(
        "tuning_bytes", BenchMetricValue{sim.tuning.mean(),
                                         sim.tuning_check.half_width, false});
    point.replications = sim.rounds;
    point.requests = sim.requests;
    point.converged = sim.converged;
    report.counters.Merge(sim.metrics);
    report.points.push_back(std::move(point));
  }
  return report;
}

// Canonical bytes of a report with the (merged-not-compared) timing
// block blanked out.
std::string CanonicalReportBytes(BenchReport report) {
  report.timing = RunTiming{};
  return BenchReportToJson(report).Serialize();
}

// I8a: PartitionSweep's ranges partition every cell: contiguous across
// shard indices, starting at 0 and ending at the cell's cap.
TEST(InvariantsTest, PartitionSweepCoversEveryCell) {
  constexpr std::uint64_t kPartitionSeedBase = 1u << 22;
  for (std::uint64_t trial = 0; trial < 32; ++trial) {
    Rng rng(ReplicationSeed(kHarnessSeed, kPartitionSeedBase + trial));
    std::vector<int> caps;
    const int cells = 1 + static_cast<int>(rng.NextBounded(6));
    for (int c = 0; c < cells; ++c) {
      caps.push_back(1 + static_cast<int>(rng.NextBounded(40)));
    }
    for (const int count : {2, 3, 5, 7}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " shards " +
                   std::to_string(count));
      // next[c] is where cell c's next range must start.
      std::vector<int> next(caps.size(), 0);
      for (int index = 0; index < count; ++index) {
        const std::vector<ShardRange> ranges =
            PartitionSweep(caps, ShardSpec{index, count});
        ASSERT_EQ(ranges.size(), caps.size());
        for (std::size_t c = 0; c < caps.size(); ++c) {
          // An unowned cell is the {0, 0} placeholder, not a cursor.
          if (ranges[c].empty()) continue;
          EXPECT_EQ(ranges[c].lo, next[c]);
          EXPECT_LT(ranges[c].lo, ranges[c].hi);
          EXPECT_LE(ranges[c].hi, caps[c]);
          next[c] = ranges[c].hi;
        }
      }
      for (std::size_t c = 0; c < caps.size(); ++c) {
        EXPECT_EQ(next[c], caps[c]);
      }
    }
  }
}

// I8: sharded sweeps merge back to the unsharded report bit-for-bit.
// Each shard runs its slice without the stopping rule; the merge replays
// the coordinator loop over the id-ordered union and must land on the
// identical points and counters — the contract tools/bench_merge.cc and
// the CI sharded leg rely on.
TEST(InvariantsTest, ShardPartitionBitIdentity) {
  constexpr std::uint64_t kShardSeedBase = 1u << 21;
  constexpr int kNumTrials = 3;
  for (std::uint64_t trial = 0; trial < kNumTrials; ++trial) {
    Rng rng(ReplicationSeed(kHarnessSeed, kShardSeedBase + trial));
    const int num_cells = 2 + static_cast<int>(rng.NextBounded(3));
    std::vector<TestbedConfig> configs;
    for (int cell = 0; cell < num_cells; ++cell) {
      const RandomCase c = DrawCase(&rng);
      TestbedConfig config;
      config.scheme = c.scheme;
      config.geometry = c.geometry;
      config.multichannel = c.multichannel;
      config.params = c.params;
      config.num_records = c.num_records;
      config.data_availability = (rng.NextBounded(2) == 0) ? 1.0 : 0.6;
      config.zipf_theta = (rng.NextBounded(2) == 0) ? 0.0 : 0.8;
      config.requests_per_round = 40;
      config.min_rounds = 2 + static_cast<int>(rng.NextBounded(3));
      config.max_rounds =
          config.min_rounds + 1 + static_cast<int>(rng.NextBounded(5));
      // Loose enough that some cells converge before max_rounds, so the
      // replayed stopping rule truncates inside a shard's slice.
      config.confidence_accuracy = 0.05;
      config.seed = ReplicationSeed(kHarnessSeed, 9000 + trial * 16 + cell);
      configs.push_back(config);
    }

    ParallelExperiment reference({.jobs = 2});
    const std::string want =
        CanonicalReportBytes(ReportFromSweep(reference.RunSweep(configs)));

    for (const int count : {2, 3, 5}) {
      SCOPED_TRACE("harness seed " + std::to_string(kHarnessSeed) +
                   " shard-trial " + std::to_string(trial) + " shards " +
                   std::to_string(count));
      std::vector<ShardedPartial> partials;
      double setup_seconds = 0.0;
      for (int index = 0; index < count; ++index) {
        const ShardSpec spec{index, count};
        ParallelExperiment experiment({.jobs = 2, .shard = spec});
        BenchReport report = ReportFromSweep(experiment.RunSweep(configs));
        report.timing = experiment.timing();
        ShardSection section{spec, experiment.shard_cells()};
        ASSERT_EQ(section.cells.size(), configs.size());
        // Round-trip the partial through its serialized document — the
        // path bench_merge reads from disk — so the property also covers
        // the shortest-round-trip double encoding of the payloads.
        JsonValue root = BenchReportToJson(report);
        root.Set("shard", ShardSectionToJson(section));
        auto parsed = JsonValue::Parse(root.Serialize());
        ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
        ASSERT_TRUE(HasShardSection(parsed.value()));
        auto loaded_report = BenchReportFromJson(parsed.value());
        ASSERT_TRUE(loaded_report.ok()) << loaded_report.status().ToString();
        auto loaded_shard = ShardSectionFromJson(parsed.value());
        ASSERT_TRUE(loaded_shard.ok()) << loaded_shard.status().ToString();
        EXPECT_DOUBLE_EQ(loaded_report.value().timing.setup_seconds,
                         experiment.timing().setup_seconds);
        setup_seconds += loaded_report.value().timing.setup_seconds;
        partials.push_back(ShardedPartial{std::move(loaded_report).value(),
                                          std::move(loaded_shard).value()});
      }
      auto merged = MergeShardedReports(partials);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      // Timing is summed, never compared.
      EXPECT_GT(setup_seconds, 0.0);
      EXPECT_DOUBLE_EQ(merged.value().timing.setup_seconds, setup_seconds);
      EXPECT_EQ(CanonicalReportBytes(std::move(merged).value()), want);
    }
  }
}

// I10 support: histograms are integer bucket arrays, so equal counts,
// ranges and a quantile at every sample rank pin equal distributions.
void ExpectSameHistogram(const Histogram& a, const Histogram& b) {
  ASSERT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  for (std::int64_t k = 0; k <= a.count(); ++k) {
    const double q =
        static_cast<double>(k) / static_cast<double>(std::max<std::int64_t>(
                                     a.count(), 1));
    EXPECT_EQ(a.Quantile(q), b.Quantile(q)) << "quantile " << q;
  }
}

// I10: the fleet's client is the replication's client. Client 0 of a
// fleet draws ReplicationSeed(seed, 0)'s request and error streams and
// walks through the same AirWalk, so a fleet of one reproduces
// replication 0 request for request. The kind cycles through all nine;
// the cache is on only where neither cache can evict (<= 64 records and
// capacity >= records), since the fleet's top-score residency and the
// session client's LRU differ once they evict.
TEST(InvariantsTest, FleetOfOneIsReplicationZero) {
  constexpr std::uint64_t kFleetSeedBase = 1u << 23;
  constexpr int kNumFleetCases = 72;
  for (std::uint64_t i = 0; i < kNumFleetCases; ++i) {
    Rng rng(ReplicationSeed(kHarnessSeed, kFleetSeedBase + i));
    RandomCase c = DrawCase(&rng);
    c.scheme = kAllSchemes[i % std::size(kAllSchemes)];
    const bool cache_on = rng.NextBounded(2) == 0;
    if (cache_on) {
      c.num_records = 12 + static_cast<int>(rng.NextBounded(53));
      if (c.params.schedule.active()) {
        c.params.schedule.num_disks =
            std::min(c.params.schedule.num_disks,
                     c.num_records / c.multichannel.num_channels);
      }
    }

    TestbedConfig config;
    config.scheme = c.scheme;
    config.geometry = c.geometry;
    config.multichannel = c.multichannel;
    config.params = c.params;
    config.num_records = c.num_records;
    config.data_availability = (rng.NextBounded(2) == 0) ? 1.0 : 0.6;
    config.zipf_theta = (rng.NextBounded(2) == 0) ? 0.0 : 0.8;
    if (rng.NextBounded(2) == 0) {
      config.client.session_length = 3;
      config.client.repeat_probability = 0.4;
    }
    if (cache_on) {
      config.client.cache_capacity =
          c.num_records +
          static_cast<int>(rng.NextBounded(
              static_cast<std::uint64_t>(65 - c.num_records)));
    }
    config.error_model.bucket_error_rate =
        (rng.NextBounded(2) == 0) ? 0.0 : 0.03;
    const bool deadline_on = rng.NextBounded(2) == 0;
    config.requests_per_round = 40;
    config.seed = ReplicationSeed(kHarnessSeed, 11000 + i);

    const auto dataset = BuildTestbedDataset(config).value();
    auto built = BroadcastServer::Create(config.scheme, dataset,
                                         config.geometry,
                                         ResolvedSchemeParams(config),
                                         config.multichannel);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const BroadcastServer server = std::move(built).value();
    // Half a cycle truncates a good share of the walks.
    if (deadline_on) {
      config.deadline.access_deadline_bytes =
          std::max<Bytes>(1, server.channel().cycle_bytes() / 2);
    }
    SCOPED_TRACE("harness seed " + std::to_string(kHarnessSeed) +
                 " fleet case " + std::to_string(i) + ": " +
                 std::string(SchemeKindToString(c.scheme)) + ", n=" +
                 std::to_string(c.num_records) + ", channels=" +
                 std::to_string(c.multichannel.num_channels) + ", cache=" +
                 std::to_string(config.client.cache_capacity) +
                 ", errors=" +
                 std::to_string(config.error_model.bucket_error_rate) +
                 ", deadline=" +
                 std::to_string(config.deadline.access_deadline_bytes));
    FleetOptions options;
    options.fleet_size = 1;
    options.queries_per_client = config.requests_per_round;
    ASSERT_TRUE(ValidateFleetConfig(config, options).ok());

    const ReplicationResult rep = RunReplication(
        server, *dataset, config, ReplicationSeed(config.seed, 0));
    FleetParams params;
    params.fleet_size = 1;
    params.queries_per_client = config.requests_per_round;
    params.cache_capacity = config.client.cache_capacity;
    params.session_length = config.client.session_length;
    params.repeat_probability = config.client.repeat_probability;
    params.data_availability = config.data_availability;
    params.mean_request_interval_bytes = config.mean_request_interval_bytes;
    params.zipf_theta = config.zipf_theta;
    params.seed = config.seed;
    params.deadline = config.deadline;
    params.error_model = config.error_model;
    const FleetShardResult fleet =
        RunFleetShard(server.scheme(), *dataset, params, 0, 1);

    EXPECT_EQ(fleet.queries, rep.requests);
    EXPECT_EQ(fleet.found, rep.found);
    ExpectSameHistogram(fleet.access_histogram, rep.access_histogram);
    ExpectSameHistogram(fleet.tuning_histogram, rep.tuning_histogram);
    EXPECT_EQ(fleet.tuning_bytes, rep.metrics.Get("client.bytes_listened"));
    EXPECT_EQ(fleet.index_probes, rep.metrics.Get("client.index_probes"));
    EXPECT_EQ(fleet.bucket_probes,
              rep.metrics.Get("client.buckets_listened"));
    for (int ch = 0; ch < server.num_channels(); ++ch) {
      const auto at = static_cast<std::size_t>(ch);
      const std::int64_t fleet_tuning =
          at < fleet.tuning_bytes_per_channel.size()
              ? fleet.tuning_bytes_per_channel[at]
              : 0;
      // A single channel has no per-channel counter: all of it is ch0.
      EXPECT_EQ(fleet_tuning,
                server.num_channels() > 1
                    ? rep.metrics.Get("client.tuning_bytes_ch" +
                                      std::to_string(ch))
                    : rep.metrics.Get("client.bytes_listened"))
          << "channel " << ch;
    }
    EXPECT_EQ(fleet.cache_hits, rep.metrics.Get("client.cache_hits"));
    EXPECT_EQ(fleet.cache_misses, rep.metrics.Get("client.cache_misses"));
  }
}

}  // namespace
}  // namespace airindex
