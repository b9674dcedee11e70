// broadcast/schedule.h and its consumers: exact per-cycle accounting of
// the square-root disk layouts, schedule quality (gap balance plus a
// seeded chi-square goodness-of-fit on the slot composition), the
// square-root-rule bound against both the closed-form model and the
// simulated testbed at a pinned operating point, online re-tiering
// determinism, and the conflict-aware multichannel placement.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analytical/models.h"
#include "broadcast/schedule.h"
#include "core/metrics.h"
#include "core/simulator.h"
#include "core/testbed_config.h"
#include "data/dataset.h"
#include "des/random.h"
#include "schemes/multichannel.h"
#include "schemes/scheduled.h"
#include "schemes/scheme.h"

namespace airindex {
namespace {

std::shared_ptr<const Dataset> MakeDataset(int num_records) {
  DatasetConfig config;
  config.num_records = num_records;
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

double MetricValue(const MetricsRegistry& metrics, const std::string& name) {
  for (const auto& entry : metrics.entries()) {
    if (entry.name == name) return entry.value;
  }
  ADD_FAILURE() << "metric not found: " << name;
  return -1.0;
}

/// The exact accounting identity: a record on disk d occupies exactly
/// f_d slots of the major cycle, the cycle length is the analytical
/// SlotsPerMajorCycle sum, and the per-record slot lists agree with the
/// emitted slot order.
void CheckExactAccounting(const DiskAssignment& assignment) {
  const DiskLayout layout = BuildDiskLayout(assignment);
  ASSERT_EQ(static_cast<std::int64_t>(layout.slot_record.size()),
            assignment.SlotsPerMajorCycle());

  const std::vector<int> disk_of = assignment.DiskOfRecord();
  std::vector<int> occurrences(disk_of.size(), 0);
  for (const int record : layout.slot_record) {
    ASSERT_GE(record, 0);
    ASSERT_LT(record, static_cast<int>(disk_of.size()));
    ++occurrences[static_cast<std::size_t>(record)];
  }
  for (std::size_t r = 0; r < disk_of.size(); ++r) {
    const int frequency =
        assignment.frequencies[static_cast<std::size_t>(disk_of[r])];
    EXPECT_EQ(occurrences[r], frequency) << "record " << r;
    ASSERT_EQ(static_cast<int>(layout.record_slots[r].size()), frequency);
    for (std::size_t k = 0; k < layout.record_slots[r].size(); ++k) {
      const int slot = layout.record_slots[r][k];
      EXPECT_EQ(layout.slot_record[static_cast<std::size_t>(slot)],
                static_cast<int>(r));
      if (k > 0) {
        EXPECT_GT(slot, layout.record_slots[r][k - 1]);
      }
    }
  }

  // Minor cycles partition the slot sequence into max_frequency pieces.
  ASSERT_EQ(static_cast<int>(layout.minor_begin.size()),
            assignment.max_frequency() + 1);
  EXPECT_EQ(layout.minor_begin.front(), 0);
  EXPECT_EQ(layout.minor_begin.back(),
            static_cast<int>(layout.slot_record.size()));
  for (std::size_t m = 1; m < layout.minor_begin.size(); ++m) {
    EXPECT_GT(layout.minor_begin[m], layout.minor_begin[m - 1]);
  }
}

TEST(ScheduleTest, SchedulerKindNamesRoundTrip) {
  for (const SchedulerKind kind : {SchedulerKind::kFlat,
                                   SchedulerKind::kSquareRoot,
                                   SchedulerKind::kOnline}) {
    SchedulerKind parsed = SchedulerKind::kFlat;
    ASSERT_TRUE(ParseSchedulerKind(SchedulerKindToString(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  SchedulerKind parsed = SchedulerKind::kFlat;
  EXPECT_FALSE(ParseSchedulerKind("round-robin", &parsed));
}

TEST(ScheduleTest, ZipfSlicesAreConditionalPopularities) {
  // A key-partitioned channel's slice must renormalize the global
  // profile, not restart a fresh Zipf at rank 0.
  const std::vector<double> global = ZipfRankPopularity(100, 0.95);
  double sum = 0.0;
  for (std::size_t i = 0; i < global.size(); ++i) {
    sum += global[i];
    if (i > 0) {
      EXPECT_LE(global[i], global[i - 1]);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);

  const std::vector<double> slice = ZipfRankPopularity(25, 0.95,
                                                       /*rank_offset=*/50,
                                                       /*total_ranks=*/100);
  ASSERT_EQ(slice.size(), 25u);
  // The slice carries the records' *global* masses (so a partition's
  // schedule sees the conditional shape after SquareRootAssignment
  // renormalizes), exactly matching the whole-population profile.
  for (std::size_t i = 0; i < slice.size(); ++i) {
    EXPECT_NEAR(slice[i], global[50 + i], 1e-12);
  }
}

TEST(ScheduleTest, SquareRootAssignmentExactAccounting) {
  for (const double theta : {0.0, 0.6, 0.95, 1.2}) {
    for (const int disks : {1, 2, 3, 4, 8, 12}) {
      for (const int records : {13, 64, 200}) {
        SCOPED_TRACE("theta " + std::to_string(theta) + " disks " +
                     std::to_string(disks) + " records " +
                     std::to_string(records));
        const auto assignment = SquareRootAssignment(
            ZipfRankPopularity(records, theta), disks);
        ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
        ASSERT_EQ(assignment.value().num_disks(), disks);
        ASSERT_EQ(assignment.value().num_records(), records);
        // Frequencies non-increasing, every one dividing the hottest.
        const auto& f = assignment.value().frequencies;
        for (std::size_t d = 1; d < f.size(); ++d) {
          EXPECT_LE(f[d], f[d - 1]);
          EXPECT_EQ(f.front() % f[d], 0);
        }
        CheckExactAccounting(assignment.value());
      }
    }
  }
  // Degenerate inputs are rejected, not mangled.
  EXPECT_FALSE(SquareRootAssignment(ZipfRankPopularity(4, 0.9), 8).ok());
  EXPECT_FALSE(SquareRootAssignment(ZipfRankPopularity(16, 0.9), 0).ok());
}

TEST(ScheduleTest, FractionAssignmentExactAccounting) {
  const auto assignment = AssignmentFromFractions(
      {0.1, 0.3, 0.6}, {4, 2, 1}, /*num_records=*/50);
  ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
  CheckExactAccounting(assignment.value());
  EXPECT_EQ(assignment.value().SlotsPerMajorCycle(),
            5 * 4 + 15 * 2 + 30 * 1);
}

// Schedule quality, deterministic half: consecutive occurrences of every
// repeated record are never wildly unbalanced — the chunked emission
// keeps each cyclic gap within a factor of two of the ideal M / f_d.
TEST(ScheduleTest, OccurrenceGapsStayBalanced) {
  const auto assignment =
      SquareRootAssignment(ZipfRankPopularity(300, 0.95), 8);
  ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
  const DiskLayout layout = BuildDiskLayout(assignment.value());
  const auto total = static_cast<int>(layout.slot_record.size());
  const std::vector<int> disk_of = assignment.value().DiskOfRecord();
  for (std::size_t r = 0; r < layout.record_slots.size(); ++r) {
    const std::vector<int>& slots = layout.record_slots[r];
    if (slots.size() < 2) continue;
    const double ideal = static_cast<double>(total) /
                         static_cast<double>(slots.size());
    for (std::size_t k = 0; k < slots.size(); ++k) {
      const int next = slots[(k + 1) % slots.size()];
      const int gap = (next - slots[k] + total) % total;
      SCOPED_TRACE("record " + std::to_string(r) + " disk " +
                   std::to_string(disk_of[r]) + " occurrence " +
                   std::to_string(k));
      EXPECT_GE(gap, static_cast<int>(ideal / 2.0));
      EXPECT_LE(gap, static_cast<int>(ideal * 2.0) + 1);
    }
  }
}

// Schedule quality, randomized half: a seeded chi-square goodness-of-fit
// of the slot composition. Sampling uniform slots of the emitted cycle
// and tallying the owning disk must match the exact per-disk slot shares
// size_d * f_d / M. The seed is logged so a failure replays exactly.
TEST(ScheduleTest, SlotCompositionChiSquare) {
  constexpr std::uint64_t kSeed = 0x5c4ed1e5ull;
  constexpr int kSamples = 30000;
  SCOPED_TRACE("chi-square seed " + std::to_string(kSeed));
  const auto assignment =
      SquareRootAssignment(ZipfRankPopularity(500, 0.95), 8);
  ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
  const DiskLayout layout = BuildDiskLayout(assignment.value());
  const std::vector<int> disk_of = assignment.value().DiskOfRecord();
  const auto total = static_cast<std::uint64_t>(layout.slot_record.size());

  std::vector<double> expected(
      static_cast<std::size_t>(assignment.value().num_disks()), 0.0);
  for (const int record : layout.slot_record) {
    expected[static_cast<std::size_t>(disk_of[record])] +=
        static_cast<double>(kSamples) / static_cast<double>(total);
  }
  std::vector<int> observed(expected.size(), 0);
  Rng rng(kSeed);
  for (int i = 0; i < kSamples; ++i) {
    const auto slot = static_cast<std::size_t>(rng.NextBounded(total));
    ++observed[static_cast<std::size_t>(disk_of[layout.slot_record[slot]])];
  }
  double chi_square = 0.0;
  for (std::size_t d = 0; d < expected.size(); ++d) {
    ASSERT_GT(expected[d], 0.0);
    const double diff = static_cast<double>(observed[d]) - expected[d];
    chi_square += diff * diff / expected[d];
  }
  // df = 7; the 0.999 quantile is 24.32. The seeded draw is
  // deterministic, so this is a regression gate, not a flaky test.
  EXPECT_LT(chi_square, 24.32);
}

// The PR's acceptance criterion, pinned at the validated operating
// point: n=800, theta=0.95, 12 disks. Both the exact closed-form model
// of the planned schedule and the *measured* testbed access time must
// land within 10% of the square-root-rule lower bound (and never below
// a bound that no schedule can beat).
TEST(ScheduleTest, SimTracksSquareRootBoundAtPinnedPoint) {
  constexpr int kRecords = 800;
  constexpr double kTheta = 0.95;
  constexpr int kDisks = 12;

  TestbedConfig config;
  config.scheme = SchemeKind::kFlat;
  config.num_records = kRecords;
  config.zipf_theta = kTheta;
  config.params.schedule.scheduler = SchedulerKind::kSquareRoot;
  config.params.schedule.num_disks = kDisks;
  config.requests_per_round = 500;
  config.min_rounds = 12;
  config.max_rounds = 12;
  config.seed = 42;

  const Bytes bucket = config.geometry.data_bucket_bytes();
  const std::vector<double> popularity = ZipfRankPopularity(kRecords, kTheta);
  const double bound = SquareRootRuleBound(popularity, bucket);
  ASSERT_GT(bound, 0.0);

  const auto assignment = SquareRootAssignment(popularity, kDisks);
  ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
  const DiskLayout layout = BuildDiskLayout(assignment.value());
  const double model = ScheduledScanAccessModel(
      layout.record_slots, static_cast<std::int64_t>(layout.slot_record.size()),
      bucket, popularity);

  EXPECT_GE(model, bound);
  EXPECT_LE(model, 1.10 * bound);

  const auto run = RunTestbed(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const SimulationResult& sim = run.value();
  EXPECT_EQ(sim.anomalies, 0);
  EXPECT_EQ(sim.found, sim.requests);
  EXPECT_GE(sim.access.mean(), 0.98 * bound);
  EXPECT_LE(sim.access.mean(), 1.10 * bound);
  // The simulation is estimating exactly what the model computes.
  EXPECT_NEAR(sim.access.mean() / model, 1.0, 0.05);

  // Accounting telemetry: every slot of the planned cycle is a record
  // occurrence, and the planned shape reaches the report unchanged —
  // summed, like every per-replication counter, over the merged
  // replications.
  EXPECT_EQ(MetricValue(sim.metrics, "schedule.num_disks"),
            static_cast<double>(kDisks * sim.rounds));
  EXPECT_EQ(MetricValue(sim.metrics, "schedule.data_slots"),
            static_cast<double>(assignment.value().SlotsPerMajorCycle() *
                                sim.rounds));
  EXPECT_EQ(MetricValue(sim.metrics, "schedule.occurrences"),
            MetricValue(sim.metrics, "schedule.data_slots"));

  // And the skew win is real: the flat layout is strictly worse here.
  TestbedConfig flat = config;
  flat.params.schedule = ScheduleParams{};
  const auto flat_run = RunTestbed(flat);
  ASSERT_TRUE(flat_run.ok()) << flat_run.status().ToString();
  EXPECT_GT(flat_run.value().access.mean(), 1.15 * sim.access.mean());
}

// An indexed base keeps its selective-tuning property under the
// scheduler: tuning stays far below access and every key is found.
TEST(ScheduleTest, IndexedBaseKeepsSelectiveTuning) {
  TestbedConfig config;
  config.scheme = SchemeKind::kOneM;
  config.num_records = 400;
  config.zipf_theta = 0.95;
  config.params.schedule.scheduler = SchedulerKind::kSquareRoot;
  config.params.schedule.num_disks = 4;
  config.requests_per_round = 200;
  config.min_rounds = 4;
  config.max_rounds = 4;
  const auto run = RunTestbed(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().anomalies, 0);
  EXPECT_EQ(run.value().found, run.value().requests);
  EXPECT_LT(20.0 * run.value().tuning.mean(), run.value().access.mean());
}

TEST(ScheduleTest, OnlineRetiererIsDeterministicWithHysteresis) {
  const auto initial =
      SquareRootAssignment(ZipfRankPopularity(24, 0.0), 3);
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();

  // Two retierers fed the identical stream stay byte-identical.
  OnlineRetierer a(initial.value());
  OnlineRetierer b(initial.value());
  Rng rng(0xdecaf);
  std::vector<int> stream;
  for (int i = 0; i < 600; ++i) {
    stream.push_back(static_cast<int>(rng.NextBounded(24)));
  }
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      a.Observe(stream[i]);
      b.Observe(stream[i]);
    }
    EXPECT_EQ(a.EndEpoch(), b.EndEpoch());
    EXPECT_EQ(a.assignment().record_order, b.assignment().record_order);
  }
  // Membership may change; the disk template never does.
  EXPECT_EQ(a.assignment().disk_begin, initial.value().disk_begin);
  EXPECT_EQ(a.assignment().frequencies, initial.value().frequencies);
  EXPECT_EQ(a.assignment().SlotsPerMajorCycle(),
            initial.value().SlotsPerMajorCycle());

  // Hysteresis: a cold record that dominates one epoch climbs to the hot
  // disk, and one quiet epoch only halves its standing instead of
  // dropping it back.
  OnlineRetierer h(initial.value());
  for (int i = 0; i < 100; ++i) h.Observe(23);
  EXPECT_EQ(h.observed_this_epoch(), 100);
  EXPECT_GT(h.EndEpoch(), 0);
  EXPECT_EQ(h.observed_this_epoch(), 0);
  const std::vector<int> after_burst = h.assignment().DiskOfRecord();
  EXPECT_EQ(after_burst[23], 0);
  h.Observe(0);  // a nearly-quiet epoch
  h.EndEpoch();
  EXPECT_EQ(h.assignment().DiskOfRecord()[23], 0)
      << "one quiet epoch must not evict a hot record";
}

// Two identical online runs produce byte-identical results — the
// regression the deterministic epoch design exists for.
TEST(ScheduleTest, OnlineRunsAreByteIdentical) {
  TestbedConfig config;
  config.scheme = SchemeKind::kFlat;
  config.num_records = 300;
  config.zipf_theta = 0.95;
  config.params.schedule.scheduler = SchedulerKind::kOnline;
  config.params.schedule.num_disks = 4;
  config.params.schedule.retier_requests = 64;
  config.requests_per_round = 200;
  config.min_rounds = 4;
  config.max_rounds = 4;
  config.seed = 2026;

  const auto first = RunTestbed(config);
  const auto second = RunTestbed(config);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first.value().access.mean(), second.value().access.mean());
  EXPECT_EQ(first.value().tuning.mean(), second.value().tuning.mean());
  EXPECT_EQ(first.value().requests, second.value().requests);
  EXPECT_EQ(first.value().found, second.value().found);
  EXPECT_TRUE(first.value().metrics == second.value().metrics);

  // The loop actually ran, and re-tiering moves only exist because
  // epochs closed — the identity the strict counter gate enforces.
  EXPECT_GT(MetricValue(first.value().metrics, "schedule.retier_epochs"), 0.0);
  EXPECT_EQ(MetricValue(first.value().metrics, "schedule.rebuild_failures"),
            0.0);
}

// The conflict-aware multichannel placer: rotations never make things
// worse than the unrotated baseline, and at this pinned shape (whose
// partition cycle lengths leave the residue structure room to move) the
// hot records of different partitions end up sharing no slot-time at
// all — the unrotated layout had 12 such collisions.
TEST(ScheduleTest, ConflictPlacementAvoidsHotCollisions) {
  SchemeParams params;
  params.schedule.scheduler = SchedulerKind::kSquareRoot;
  params.schedule.num_disks = 2;
  params.schedule.theta = 0.95;
  MultiChannelParams multichannel;
  multichannel.num_channels = 4;
  multichannel.allocation = ChannelAllocation::kDataPartitioned;

  const auto dataset = MakeDataset(96);
  auto built = MultiChannelProgram::Build(SchemeKind::kFlat, dataset,
                                          BucketGeometry{}, params,
                                          multichannel);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ConflictPlacement& placement = built.value()->conflict_placement();
  EXPECT_GT(placement.hot_pairs, 0);
  EXPECT_LE(placement.collisions, placement.baseline_collisions);
  EXPECT_EQ(placement.collisions, 0);
  ASSERT_EQ(placement.rotations.size(), 4u);
  EXPECT_EQ(placement.rotations[0], 0);  // the first partition anchors

  // Rotation must not cost correctness: every record stays findable.
  Bytes horizon = 0;
  for (int c = 0; c < built.value()->num_channels(); ++c) {
    horizon =
        std::max(horizon, 2 * built.value()->channel_view(c).cycle_bytes());
  }
  for (int r = 0; r < 96; ++r) {
    const AccessResult result =
        built.value()->Access(dataset->record(r).key,
                              static_cast<Bytes>(r) * 977 % horizon);
    EXPECT_TRUE(result.found) << "record " << r;
    EXPECT_EQ(result.anomalies, 0);
  }

  // The scheduler composes only with the partitioned allocation.
  MultiChannelParams replicated = multichannel;
  replicated.allocation = ChannelAllocation::kReplicatedIndex;
  EXPECT_FALSE(MultiChannelProgram::Build(SchemeKind::kFlat, dataset,
                                          BucketGeometry{}, params,
                                          replicated)
                   .ok());
}

// Config gates: the validator rejects every unsupported composition
// instead of producing a silently-wrong run.
TEST(ScheduleTest, ValidatorRejectsUnsupportedCompositions) {
  TestbedConfig config;
  config.num_records = 200;
  config.params.schedule.scheduler = SchedulerKind::kSquareRoot;

  TestbedConfig bad_disks = config;
  bad_disks.params.schedule.num_disks = 65;
  EXPECT_FALSE(ValidateTestbedConfig(bad_disks).ok());

  TestbedConfig online_cache = config;
  online_cache.params.schedule.scheduler = SchedulerKind::kOnline;
  online_cache.client.cache_capacity = 8;
  EXPECT_FALSE(ValidateTestbedConfig(online_cache).ok());

  TestbedConfig online_multi = config;
  online_multi.params.schedule.scheduler = SchedulerKind::kOnline;
  online_multi.multichannel.num_channels = 2;
  online_multi.multichannel.allocation = ChannelAllocation::kDataPartitioned;
  EXPECT_FALSE(ValidateTestbedConfig(online_multi).ok());

  TestbedConfig index_on_one = config;
  index_on_one.multichannel.num_channels = 2;
  index_on_one.multichannel.allocation = ChannelAllocation::kIndexOnOne;
  EXPECT_FALSE(ValidateTestbedConfig(index_on_one).ok());

  // ...and the supported compositions pass.
  EXPECT_TRUE(ValidateTestbedConfig(config).ok());
  TestbedConfig partitioned = config;
  partitioned.multichannel.num_channels = 2;
  partitioned.multichannel.allocation = ChannelAllocation::kDataPartitioned;
  EXPECT_TRUE(ValidateTestbedConfig(partitioned).ok());
}

}  // namespace
}  // namespace airindex
