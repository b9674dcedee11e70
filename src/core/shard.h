// Layer: 5 (core) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_CORE_SHARD_H_
#define AIRINDEX_CORE_SHARD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/json_report.h"
#include "core/metrics.h"

namespace airindex {

/// Cross-process sweep sharding (docs/BENCHMARKS.md, "Sharded sweeps").
///
/// A sweep of C cells, each capped at max_rounds replications, is a flat
/// sequence of T = sum(max_rounds) replication units. `--shard I/N`
/// assigns shard I the contiguous unit range [floor((I-1)*T/N),
/// floor(I*T/N)) — every unit is owned by exactly one shard, and a shard
/// boundary may fall inside a cell, splitting that cell's replications
/// across two shards.
///
/// Each shard runs its owned replications WITHOUT the adaptive stopping
/// rule (it cannot know where the merged stream stops) and records, per
/// replication, the raw merge state the coordinator normally consumes:
/// the access/tuning accumulators' (count, mean, m2), the round means
/// the Student-t rule observes, and the telemetry registry. bench_merge
/// then replays the exact coordinator loop of core/experiment.cc over
/// the id-ordered union — merge, feed the accuracy controller, stop when
/// the rule fires — so the merged report is byte-identical (points and
/// counters) to the single-process run. The deterministic price: shards
/// together always execute all T units, while an unsharded run stops
/// each cell at convergence.

/// Which shard this process is, 0-based. count == 1 means "not sharded".
struct ShardSpec {
  int index = 0;
  int count = 1;

  bool active() const { return count > 1; }
};

/// Parses the `--shard I/N` flag value (1-based I on the command line,
/// e.g. "2/4" -> {index 1, count 4}). Requires 1 <= I <= N.
Result<ShardSpec> ParseShardSpec(std::string_view text);

/// A shard's slice of one sweep cell: local replication ids [lo, hi).
/// Empty (lo == hi) when the shard owns nothing of the cell.
struct ShardRange {
  int lo = 0;
  int hi = 0;

  bool empty() const { return lo >= hi; }
};

/// Splits a sweep into per-cell ranges for one shard. `cell_caps[c]` is
/// cell c's max_rounds. The N shards' ranges partition every cell:
/// unioning the returned ranges over all indices covers [0, cap) of each
/// cell exactly once, independently of N.
std::vector<ShardRange> PartitionSweep(const std::vector<int>& cell_caps,
                                       const ShardSpec& spec);

/// Raw merge state of one replication — everything the coordinator loop
/// in core/experiment.cc consumes from a ReplicationResult that can
/// reach the JSON report.
struct ReplicationPayload {
  /// Absolute replication id within the cell (seeds and merge order).
  int id = 0;
  /// RunningStats raw state (count, mean, m2) of the per-request byte
  /// accumulators; RunningStats::FromRaw + Merge reproduces the
  /// coordinator's merge bit-for-bit.
  std::int64_t access_count = 0;
  double access_mean = 0.0;
  double access_m2 = 0.0;
  std::int64_t tuning_count = 0;
  double tuning_mean = 0.0;
  double tuning_m2 = 0.0;
  /// Round means — the accuracy controller's observations.
  double round_access_mean = 0.0;
  double round_tuning_mean = 0.0;
  /// Telemetry counters, merged in id order into point counters.
  MetricsRegistry metrics;
};

/// A metric a bench derives from counter ratios (fig_client_cache's
/// hit_ratio). Recorded in the shard section so bench_merge can
/// recompute it from the merged counters with the exact float operations
/// the bench uses.
struct DerivedMetricSpec {
  std::string name;
  std::string numerator;
  std::string denominator;
  /// Normal quantile of the binomial half-width (2.576 for 99%).
  double z = 0.0;
};

/// numerator/denominator as a binomial proportion with a z*sqrt(p(1-p)/n)
/// half-width — the exact expression fig_client_cache uses, shared so
/// the live bench and the merge replay cannot drift.
BenchMetricValue BinomialRatioMetric(const MetricsRegistry& metrics,
                                     const DerivedMetricSpec& spec);

/// One sweep cell's entry in a partial report: the stopping-rule inputs
/// (identical across shards) plus this shard's replication payloads.
struct ShardCell {
  int min_rounds = 0;
  int max_rounds = 0;
  double confidence_level = 0.0;
  double confidence_accuracy = 0.0;
  std::vector<DerivedMetricSpec> derived;
  std::vector<ReplicationPayload> replications;
};

/// The `shard` root object of a partial report: shard identity plus one
/// cell per report point, in point order.
struct ShardSection {
  ShardSpec spec;
  std::vector<ShardCell> cells;
};

/// Builds the `shard` JSON object. Doubles serialize through the
/// shortest-round-trip writer of core/json_report.h, so a payload
/// survives the file unchanged.
JsonValue ShardSectionToJson(const ShardSection& section);

/// True when `report_root` (a parsed bench report document) carries a
/// shard section.
bool HasShardSection(const JsonValue& report_root);

/// Extracts and validates the shard section of a parsed report document.
Result<ShardSection> ShardSectionFromJson(const JsonValue& report_root);

/// A partial report paired with its shard section, as bench_merge loads
/// them from disk.
struct ShardedPartial {
  BenchReport report;
  ShardSection shard;
};

/// Merges N partial reports into the report the unsharded run writes.
///
/// Validates that the partials agree (same bench, config, points, labels
/// and cell parameters; shards 0..N-1 each present exactly once), then
/// replays the coordinator loop per point over the id-ordered payload
/// union: merge accumulators and counters, feed the accuracy controller,
/// stop where AccuracyController::ShouldStop fires for the cell's round
/// bounds. Points and counters of the result are byte-identical to
/// the single-process report; timing is summed across shards (wall,
/// busy, idle, replication counts; jobs and reorder peak take the max,
/// cell wall times add) — merged, never compared.
Result<BenchReport> MergeShardedReports(
    const std::vector<ShardedPartial>& partials);

}  // namespace airindex

#endif  // AIRINDEX_CORE_SHARD_H_
