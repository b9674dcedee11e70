// Tests for the CI regression gate (tools/bench_compare_lib.h): matching
// semantics, CI-bound drift detection, rel-tol fallback, wall-time
// budgets, strict counter comparison, and the --identical check.

#include "tools/bench_compare_lib.h"

#include <cmath>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "core/json_report.h"
#include "core/shard.h"

namespace airindex {
namespace {

BenchReport BaseReport() {
  BenchReport report;
  report.bench = "gate_test_bench";
  BenchPoint point;
  point.labels = {{"records", "2000"}, {"scheme", "flat"}};
  point.metrics = {
      {"access_bytes", BenchMetricValue{500000.0, 5000.0, false}},
      {"found_rate", BenchMetricValue{1.0, 0.0, false}},
      {"build_ns", BenchMetricValue{1000.0, 0.0, true}},
  };
  point.replications = 40;
  point.requests = 20000;
  report.points.push_back(point);
  report.counters.Increment("sim.events_processed", 100);
  report.timing.wall_seconds = 2.0;
  return report;
}

TEST(BenchCompareTest, IdenticalReportsPass) {
  const BenchReport base = BaseReport();
  const CompareResult result =
      CompareBenchReports(base, base, CompareOptions{});
  EXPECT_TRUE(result.passed()) << result.failures.front();
}

TEST(BenchCompareTest, DriftWithinCombinedCiPasses) {
  const BenchReport base = BaseReport();
  BenchReport cand = BaseReport();
  // Shift by less than base CI (5000) + candidate CI (3000).
  cand.points[0].metrics[0].second.mean = 507000.0;
  cand.points[0].metrics[0].second.ci_half_width = 3000.0;
  EXPECT_TRUE(CompareBenchReports(base, cand, CompareOptions{}).passed());
}

TEST(BenchCompareTest, DriftBeyondCombinedCiFails) {
  const BenchReport base = BaseReport();
  BenchReport cand = BaseReport();
  cand.points[0].metrics[0].second.mean = 511000.0;  // Δ=11000 > 5000+5000
  const CompareResult result =
      CompareBenchReports(base, cand, CompareOptions{});
  ASSERT_FALSE(result.passed());
  EXPECT_NE(result.failures[0].find("access_bytes"), std::string::npos);
}

TEST(BenchCompareTest, ZeroCiMetricUsesRelTol) {
  const BenchReport base = BaseReport();
  BenchReport cand = BaseReport();
  cand.points[0].metrics[1].second.mean = 0.995;  // 0.5% off: within 1%
  EXPECT_TRUE(CompareBenchReports(base, cand, CompareOptions{}).passed());

  cand.points[0].metrics[1].second.mean = 0.9;  // 10% off
  EXPECT_FALSE(CompareBenchReports(base, cand, CompareOptions{}).passed());

  CompareOptions loose;
  loose.rel_tol = 0.2;
  EXPECT_TRUE(CompareBenchReports(base, cand, loose).passed());
}

TEST(BenchCompareTest, WalltimeGatedOnlyWithBudget) {
  const BenchReport base = BaseReport();
  BenchReport cand = BaseReport();
  cand.points[0].metrics[2].second.mean = 10000.0;  // 10x slower
  // Default: wall metrics skipped, noted.
  const CompareResult skipped =
      CompareBenchReports(base, cand, CompareOptions{});
  EXPECT_TRUE(skipped.passed());
  EXPECT_FALSE(skipped.notes.empty());

  CompareOptions gated;
  gated.max_wall_regress_percent = 50.0;
  EXPECT_FALSE(CompareBenchReports(base, cand, gated).passed());

  cand.points[0].metrics[2].second.mean = 1400.0;  // +40% < 50% budget
  EXPECT_TRUE(CompareBenchReports(base, cand, gated).passed());
}

TEST(BenchCompareTest, RunWallTimeGatedWithBudget) {
  const BenchReport base = BaseReport();
  BenchReport cand = BaseReport();
  cand.timing.wall_seconds = 5.0;  // 2.0 -> 5.0 is +150%
  EXPECT_TRUE(CompareBenchReports(base, cand, CompareOptions{}).passed());

  CompareOptions gated;
  gated.max_wall_regress_percent = 100.0;
  EXPECT_FALSE(CompareBenchReports(base, cand, gated).passed());
}

TEST(BenchCompareTest, MissingPointFails) {
  const BenchReport base = BaseReport();
  BenchReport cand = BaseReport();
  cand.points.clear();
  const CompareResult result =
      CompareBenchReports(base, cand, CompareOptions{});
  ASSERT_FALSE(result.passed());
  EXPECT_NE(result.failures[0].find("missing"), std::string::npos);
}

TEST(BenchCompareTest, MissingMetricFails) {
  const BenchReport base = BaseReport();
  BenchReport cand = BaseReport();
  cand.points[0].metrics.erase(cand.points[0].metrics.begin());
  EXPECT_FALSE(CompareBenchReports(base, cand, CompareOptions{}).passed());
}

TEST(BenchCompareTest, ExtraCandidatePointIsOnlyANote) {
  const BenchReport base = BaseReport();
  BenchReport cand = BaseReport();
  BenchPoint extra;
  extra.labels = {{"records", "9999"}, {"scheme", "flat"}};
  cand.points.push_back(extra);
  const CompareResult result =
      CompareBenchReports(base, cand, CompareOptions{});
  EXPECT_TRUE(result.passed());
  EXPECT_FALSE(result.notes.empty());
}

TEST(BenchCompareTest, LabelOrderDoesNotMatter) {
  const BenchReport base = BaseReport();
  BenchReport cand = BaseReport();
  cand.points[0].labels = {{"scheme", "flat"}, {"records", "2000"}};
  EXPECT_TRUE(CompareBenchReports(base, cand, CompareOptions{}).passed());
}

TEST(BenchCompareTest, BenchNameMismatchFails) {
  const BenchReport base = BaseReport();
  BenchReport cand = BaseReport();
  cand.bench = "other_bench";
  EXPECT_FALSE(CompareBenchReports(base, cand, CompareOptions{}).passed());
}

TEST(BenchCompareTest, StrictCountersFailOnMissingCounter) {
  const BenchReport base = BaseReport();
  BenchReport cand = BaseReport();
  cand.counters = MetricsRegistry();  // counter section entirely absent

  // Without --strict-counters a missing counter section passes silently
  // (counters are telemetry, not gated metrics)...
  EXPECT_TRUE(CompareBenchReports(base, cand, CompareOptions{}).passed());

  // ...under --strict-counters it is a hard failure naming the counter.
  CompareOptions strict;
  strict.strict_counters = true;
  const CompareResult result = CompareBenchReports(base, cand, strict);
  ASSERT_FALSE(result.passed());
  bool named = false;
  for (const std::string& failure : result.failures) {
    if (failure.find("sim.events_processed") != std::string::npos &&
        failure.find("missing from candidate") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named);

  // The reverse direction — candidate grew a counter the baseline lacks
  // — is equally a hard failure (it would otherwise let new telemetry
  // slip past the baselines unnoticed).
  BenchReport extra = BaseReport();
  extra.counters.Increment("sim.surprise_counter", 1);
  const CompareResult grown = CompareBenchReports(base, extra, strict);
  ASSERT_FALSE(grown.passed());
  bool extra_named = false;
  for (const std::string& failure : grown.failures) {
    if (failure.find("sim.surprise_counter") != std::string::npos &&
        failure.find("extra counter") != std::string::npos) {
      extra_named = true;
    }
  }
  EXPECT_TRUE(extra_named);
}

TEST(BenchCompareTest, StrictCountersSurfaceSchedulerTelemetry) {
  BenchReport base = BaseReport();
  base.timing.replications_run = 44;
  base.timing.replications_merged = 40;
  base.timing.replications_discarded = 4;
  base.timing.reorder_buffer_peak = 3;
  BenchReport cand = base;

  CompareOptions strict;
  strict.strict_counters = true;
  const CompareResult result = CompareBenchReports(base, cand, strict);
  EXPECT_TRUE(result.passed());
  // Scheduler counters appear as an informational note.
  bool noted = false;
  for (const std::string& note : result.notes) {
    if (note.find("replications discarded") != std::string::npos &&
        note.find("reorder buffer peak") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted);

  // Discard accounting that does not add up is a hard failure.
  cand.timing.replications_discarded = 7;  // 44 - 40 != 7
  EXPECT_FALSE(CompareBenchReports(base, cand, strict).passed());
  // ...but only under --strict-counters.
  EXPECT_TRUE(CompareBenchReports(base, cand, CompareOptions{}).passed());
}

TEST(BenchCompareTest, StrictCountersValidateChannelAccounting) {
  CompareOptions strict;
  strict.strict_counters = true;

  // A consistent multichannel report passes and the hop/switch counters
  // are surfaced as a note.
  BenchReport base = BaseReport();
  base.counters.Increment("client.channel_hops", 30);
  base.counters.Increment("client.switch_bytes", 3000);
  base.counters.Increment("client.tuning_bytes_ch0", 1200);
  base.counters.Increment("client.tuning_bytes_ch1", 800);
  const CompareResult ok = CompareBenchReports(base, base, strict);
  EXPECT_TRUE(ok.passed());
  bool noted = false;
  for (const std::string& note : ok.notes) {
    if (note.find("channel accounting") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);
  // Single-channel reports carry no channel counters and get no note.
  const CompareResult single =
      CompareBenchReports(BaseReport(), BaseReport(), strict);
  EXPECT_TRUE(single.passed());
  for (const std::string& note : single.notes) {
    EXPECT_EQ(note.find("channel accounting"), std::string::npos);
  }

  // Dead air without hops is a corrupt report, even when baseline and
  // candidate match exactly.
  BenchReport no_hops = BaseReport();
  no_hops.counters.Increment("client.channel_hops", 0);
  no_hops.counters.Increment("client.switch_bytes", 500);
  EXPECT_FALSE(CompareBenchReports(no_hops, no_hops, strict).passed());
  // ...but only under --strict-counters.
  EXPECT_TRUE(
      CompareBenchReports(no_hops, no_hops, CompareOptions{}).passed());

  // Negative hop, switch-byte or per-channel tuning counters fail.
  BenchReport negative_hops = BaseReport();
  negative_hops.counters.Increment("client.channel_hops", -2);
  EXPECT_FALSE(
      CompareBenchReports(negative_hops, negative_hops, strict).passed());
  BenchReport negative_switch = BaseReport();
  negative_switch.counters.Increment("client.channel_hops", 4);
  negative_switch.counters.Increment("client.switch_bytes", -100);
  EXPECT_FALSE(
      CompareBenchReports(negative_switch, negative_switch, strict).passed());
  BenchReport negative_tuning = base;
  negative_tuning.counters.Increment("client.tuning_bytes_ch1", -900);
  EXPECT_FALSE(
      CompareBenchReports(base, negative_tuning, strict).passed());
}

TEST(BenchCompareTest, SessionAccountingGatedUnderStrict) {
  CompareOptions strict;
  strict.strict_counters = true;

  BenchReport base = BaseReport();
  base.counters.Increment("client.session_queries", 1000);
  base.counters.Increment("client.cache_hits", 400);
  base.counters.Increment("client.cache_misses", 600);
  base.counters.Increment("client.cache_invalidations", 50);
  base.counters.Increment("client.cache_hit_bytes", 0);
  const CompareResult ok = CompareBenchReports(base, base, strict);
  EXPECT_TRUE(ok.passed()) << (ok.failures.empty() ? "" : ok.failures[0]);

  // A query must resolve as exactly one hit or one miss.
  BenchReport unbalanced = base;
  unbalanced.counters.Increment("client.cache_hits", 1);  // 400 -> 401
  EXPECT_FALSE(
      CompareBenchReports(unbalanced, unbalanced, strict).passed());
  // ...gated only under --strict-counters.
  EXPECT_TRUE(
      CompareBenchReports(unbalanced, unbalanced, CompareOptions{}).passed());

  // A fresh hit never moves broadcast bytes.
  BenchReport hit_bytes = base;
  hit_bytes.counters.Increment("client.cache_hit_bytes", 128);
  EXPECT_FALSE(CompareBenchReports(hit_bytes, hit_bytes, strict).passed());

  // An invalidation is a kind of miss.
  BenchReport inverted = base;
  inverted.counters.Increment("client.cache_invalidations", 600);  // > misses
  EXPECT_FALSE(CompareBenchReports(inverted, inverted, strict).passed());

  // Negative counters are corrupt reports.
  BenchReport negative = base;
  negative.counters.Increment("client.cache_evictions", -3);
  EXPECT_FALSE(CompareBenchReports(negative, negative, strict).passed());
}

TEST(BenchCompareTest, FleetAccountingGatedUnderStrict) {
  CompareOptions strict;
  strict.strict_counters = true;

  // A mixed sweep: the cache counters cover only the cache-on cells, so
  // they bound the query total instead of partitioning it.
  BenchReport base = BaseReport();
  base.counters.Increment("fleet.clients", 4000);
  base.counters.Increment("fleet.queries", 32000);
  base.counters.Increment("fleet.found", 32000);
  base.counters.Increment("fleet.cache_hits", 1500);
  base.counters.Increment("fleet.cache_misses", 14500);
  base.counters.Increment("fleet.wake_events", 32000);
  const CompareResult ok = CompareBenchReports(base, base, strict);
  EXPECT_TRUE(ok.passed()) << (ok.failures.empty() ? "" : ok.failures[0]);

  // The cache can never see more queries than the fleet issued.
  BenchReport overcounted = base;
  overcounted.counters.Increment("fleet.cache_misses", 17000);
  EXPECT_FALSE(
      CompareBenchReports(overcounted, overcounted, strict).passed());
  // ...gated only under --strict-counters.
  EXPECT_TRUE(
      CompareBenchReports(overcounted, overcounted, CompareOptions{})
          .passed());

  // Found queries are a subset of all queries.
  BenchReport overfound = base;
  overfound.counters.Increment("fleet.found", 1);
  EXPECT_FALSE(CompareBenchReports(overfound, overfound, strict).passed());

  // Dead air requires hops, as in the single-client channel accounting.
  BenchReport dead_air = base;
  dead_air.counters.Increment("fleet.switch_bytes", 512);
  EXPECT_FALSE(CompareBenchReports(dead_air, dead_air, strict).passed());

  // Negative fleet counters are corrupt reports.
  BenchReport negative = base;
  negative.counters.Increment("fleet.slots_scanned", -1);
  EXPECT_FALSE(CompareBenchReports(negative, negative, strict).passed());
}

TEST(BenchCompareTest, ScheduleAccountingGatedUnderStrict) {
  CompareOptions strict;
  strict.strict_counters = true;

  BenchReport base = BaseReport();
  base.counters.Increment("schedule.num_disks", 8);
  base.counters.Increment("schedule.major_frequency", 12);
  base.counters.Increment("schedule.data_slots", 1184);
  base.counters.Increment("schedule.occurrences", 1184);
  base.counters.Increment("schedule.retier_epochs", 16);
  base.counters.Increment("schedule.retier_moves", 4127);
  base.counters.Increment("schedule.rebuild_failures", 0);
  const CompareResult ok = CompareBenchReports(base, base, strict);
  EXPECT_TRUE(ok.passed()) << (ok.failures.empty() ? "" : ok.failures[0]);

  // Exact per-cycle accounting: every data slot is a record occurrence.
  BenchReport unbalanced = base;
  unbalanced.counters.Increment("schedule.occurrences", 1);
  EXPECT_FALSE(
      CompareBenchReports(unbalanced, unbalanced, strict).passed());
  // ...gated only under --strict-counters.
  EXPECT_TRUE(
      CompareBenchReports(unbalanced, unbalanced, CompareOptions{}).passed());

  // Re-tiering moves can only exist once an epoch has closed.
  BenchReport phantom_moves = BaseReport();
  phantom_moves.counters.Increment("schedule.data_slots", 1184);
  phantom_moves.counters.Increment("schedule.occurrences", 1184);
  phantom_moves.counters.Increment("schedule.retier_epochs", 0);
  phantom_moves.counters.Increment("schedule.retier_moves", 3);
  EXPECT_FALSE(
      CompareBenchReports(phantom_moves, phantom_moves, strict).passed());

  // The rotation search starts from the unrotated layout, so it can
  // never collide more than that baseline.
  BenchReport worse = BaseReport();
  worse.counters.Increment("schedule.conflict_pairs", 36);
  worse.counters.Increment("schedule.conflict_baseline", 12);
  worse.counters.Increment("schedule.conflict_collisions", 14);
  EXPECT_FALSE(CompareBenchReports(worse, worse, strict).passed());

  // Negative schedule counters are corrupt reports.
  BenchReport negative = base;
  negative.counters.Increment("schedule.retier_moves", -9999);
  EXPECT_FALSE(CompareBenchReports(negative, negative, strict).passed());
}

TEST(BenchCompareTest, DynamicAccountingGatedUnderStrict) {
  CompareOptions strict;
  strict.strict_counters = true;

  // A consistent dynamic block with a stateful client riding on top.
  BenchReport base = BaseReport();
  base.counters.Increment("dynamic.cycles", 40);
  base.counters.Increment("dynamic.patched_cycles", 30);
  base.counters.Increment("dynamic.rebuilt_cycles", 10);
  base.counters.Increment("dynamic.mutations", 200);
  base.counters.Increment("dynamic.inserts", 30);
  base.counters.Increment("dynamic.deletes", 40);
  base.counters.Increment("dynamic.updates", 130);
  base.counters.Increment("dynamic.freelist_pushes", 35);
  base.counters.Increment("dynamic.freelist_pops", 25);
  base.counters.Increment("dynamic.delta_appends", 60);
  base.counters.Increment("dynamic.queries", 1000);
  base.counters.Increment("dynamic.dirty_queries", 300);
  base.counters.Increment("dynamic.delta_reads", 120);
  base.counters.Increment("dynamic.delta_read_bytes", 9600);
  base.counters.Increment("dynamic.stale_reads", 50);
  base.counters.Increment("client.session_queries", 1000);
  base.counters.Increment("client.cache_hits", 400);
  base.counters.Increment("client.cache_misses", 600);
  base.counters.Increment("client.cache_invalidations", 50);
  const CompareResult ok = CompareBenchReports(base, base, strict);
  EXPECT_TRUE(ok.passed()) << (ok.failures.empty() ? "" : ok.failures[0]);

  // Every maintenance cycle is either patched in place or rebuilt.
  BenchReport split = base;
  split.counters.Increment("dynamic.patched_cycles", 1);
  EXPECT_FALSE(CompareBenchReports(split, split, strict).passed());
  // ...gated only under --strict-counters.
  EXPECT_TRUE(CompareBenchReports(split, split, CompareOptions{}).passed());

  // Every mutation is exactly one insert, delete or update.
  BenchReport unbalanced = base;
  unbalanced.counters.Increment("dynamic.updates", 1);
  EXPECT_FALSE(CompareBenchReports(unbalanced, unbalanced, strict).passed());

  // The free-list only recycles slots that deletes freed...
  BenchReport over_pushed = base;
  over_pushed.counters.Increment("dynamic.freelist_pushes", 10);  // 45 > 40
  EXPECT_FALSE(
      CompareBenchReports(over_pushed, over_pushed, strict).passed());

  // ...and only inserts consume them.
  BenchReport over_popped = base;
  over_popped.counters.Increment("dynamic.freelist_pops", 20);  // 45 > 35
  EXPECT_FALSE(
      CompareBenchReports(over_popped, over_popped, strict).passed());

  // Only a query that observed divergence pays a delta read.
  BenchReport over_delta = base;
  over_delta.counters.Increment("dynamic.delta_reads", 200);  // 320 > 300
  EXPECT_FALSE(
      CompareBenchReports(over_delta, over_delta, strict).passed());

  // Delta reads move bytes iff they happened.
  BenchReport free_bytes = base;
  free_bytes.counters.Increment("dynamic.delta_read_bytes", -9600);
  EXPECT_FALSE(
      CompareBenchReports(free_bytes, free_bytes, strict).passed());

  // The server-side stale count IS the client-side invalidation count.
  BenchReport stale_drift = base;
  stale_drift.counters.Increment("dynamic.stale_reads", 1);
  EXPECT_FALSE(
      CompareBenchReports(stale_drift, stale_drift, strict).passed());

  // Without a stateful client nobody validates, so nothing reads stale.
  BenchReport no_client = BaseReport();
  no_client.counters.Increment("dynamic.cycles", 4);
  no_client.counters.Increment("dynamic.patched_cycles", 4);
  no_client.counters.Increment("dynamic.stale_reads", 2);
  EXPECT_FALSE(
      CompareBenchReports(no_client, no_client, strict).passed());

  // Negative dynamic counters are corrupt reports.
  BenchReport negative = base;
  negative.counters.Increment("dynamic.delta_appends", -100);
  EXPECT_FALSE(CompareBenchReports(negative, negative, strict).passed());
}

TEST(BenchCompareTest, ShardMetadataIgnoredByGate) {
  // A partial report carries a `shard` root object and the sharding
  // timing keys (shard_index/shard_count/cell_wall_seconds). The gate
  // must parse such a document and compare it clean against a baseline
  // written before sharding existed — shard metadata is bookkeeping for
  // bench_merge, never a gated quantity.
  BenchReport cand = BaseReport();
  cand.timing.shard_index = 2;
  cand.timing.shard_count = 4;
  cand.timing.cell_wall_seconds = {0.5, 0.25};

  ShardSection section;
  section.spec = ShardSpec{2, 4};
  ShardCell cell;
  cell.min_rounds = 10;
  cell.max_rounds = 40;
  cell.confidence_level = 0.99;
  cell.confidence_accuracy = 0.01;
  ReplicationPayload payload;
  payload.id = 7;
  payload.access_count = 20000;
  payload.access_mean = 500000.0;
  payload.metrics.Increment("sim.events_processed", 100);
  cell.replications.push_back(std::move(payload));
  section.cells.push_back(std::move(cell));

  JsonValue root = BenchReportToJson(cand);
  root.Set("shard", ShardSectionToJson(section));
  auto parsed = JsonValue::Parse(root.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(HasShardSection(parsed.value()));
  auto loaded = BenchReportFromJson(parsed.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const BenchReport base = BaseReport();
  EXPECT_TRUE(
      CompareBenchReports(base, loaded.value(), CompareOptions{}).passed());
  CompareOptions strict;
  strict.strict_counters = true;
  EXPECT_TRUE(CompareBenchReports(base, loaded.value(), strict).passed());

  // Point and counter drift still hard-fail on a sharded candidate: the
  // shard object relaxes nothing.
  BenchReport drifted = loaded.value();
  drifted.points[0].metrics[0].second.mean += 50000.0;
  EXPECT_FALSE(
      CompareBenchReports(base, drifted, CompareOptions{}).passed());
  BenchReport counter_drift = loaded.value();
  counter_drift.counters.Increment("sim.events_processed", 1);
  EXPECT_FALSE(CompareBenchReports(base, counter_drift, strict).passed());
}

TEST(BenchCompareTest, StrictCountersDetectDrift) {
  const BenchReport base = BaseReport();
  BenchReport cand = BaseReport();
  cand.counters.Increment("sim.events_processed", 1);  // 100 -> 101
  // Default: counters not gated.
  EXPECT_TRUE(CompareBenchReports(base, cand, CompareOptions{}).passed());

  CompareOptions strict;
  strict.strict_counters = true;
  EXPECT_FALSE(CompareBenchReports(base, cand, strict).passed());

  BenchReport extra_counter = BaseReport();
  extra_counter.counters.Increment("client.new_counter", 5);
  EXPECT_FALSE(
      CompareBenchReports(base, extra_counter, strict).passed());

  EXPECT_TRUE(CompareBenchReports(base, BaseReport(), strict).passed());
}

/// `report` as the identity check reads it: written and parsed back.
JsonValue Reparsed(const BenchReport& report) {
  Result<JsonValue> parsed =
      JsonValue::Parse(BenchReportToJson(report).Serialize(2));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.value();
}

TEST(BenchCompareIdenticalTest, ReportsDifferingOnlyInTimingPass) {
  BenchReport base = BaseReport();
  base.config = {{"quick", "true"}, {"resolved.channels", "1"}};
  BenchReport rerun = base;
  rerun.timing.wall_seconds = 7.5;
  rerun.timing.jobs = 4;
  rerun.timing.cell_wall_seconds = {1.5, 6.0};
  EXPECT_EQ(FirstReportDifference(Reparsed(base), Reparsed(rerun)),
            std::nullopt);

  // Members are matched by key, not by position.
  JsonValue reordered = JsonValue::MakeObject();
  const JsonValue original = Reparsed(base);
  for (auto it = original.members().rbegin(); it != original.members().rend();
       ++it) {
    reordered.Set(it->first, it->second);
  }
  EXPECT_EQ(FirstReportDifference(original, reordered), std::nullopt);
}

TEST(BenchCompareIdenticalTest, LastDigitOfAPointMeanFails) {
  BenchReport base = BaseReport();
  base.points[0].metrics[0].second.mean = 500123.456789;
  BenchReport cand = base;
  cand.points[0].metrics[0].second.mean =
      std::nextafter(base.points[0].metrics[0].second.mean, 1e300);
  // Far inside the statistical gate's bounds...
  EXPECT_TRUE(CompareBenchReports(base, cand, CompareOptions{}).passed());
  // ...but not identical.
  EXPECT_EQ(FirstReportDifference(Reparsed(base), Reparsed(cand)),
            "$.points[0].metrics.access_bytes.mean");
}

TEST(BenchCompareIdenticalTest, ChangedConfigKeyFails) {
  BenchReport base = BaseReport();
  base.config = {{"quick", "true"}, {"resolved.channels", "1"}};
  BenchReport changed_value = base;
  changed_value.config[1].second = "4";
  EXPECT_EQ(FirstReportDifference(Reparsed(base), Reparsed(changed_value)),
            "$.config.resolved.channels");

  BenchReport renamed = base;
  renamed.config[1].first = "resolved.channel";
  EXPECT_EQ(FirstReportDifference(Reparsed(base), Reparsed(renamed)),
            "$.config.resolved.channels");
  // A key only the second report has is named too.
  BenchReport extra = base;
  extra.config.emplace_back("zipf_theta", "0.9");
  EXPECT_EQ(FirstReportDifference(Reparsed(base), Reparsed(extra)),
            "$.config.zipf_theta");
}

}  // namespace
}  // namespace airindex
