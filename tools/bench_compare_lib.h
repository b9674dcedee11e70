// Comparison engine behind the bench_compare CLI (tools/bench_compare.cc):
// diffs a candidate bench report against a committed baseline and reports
// the drift failures the CI gate acts on.
#ifndef AIRINDEX_TOOLS_BENCH_COMPARE_LIB_H_
#define AIRINDEX_TOOLS_BENCH_COMPARE_LIB_H_

#include <optional>
#include <string>
#include <vector>

#include "core/json_report.h"

namespace airindex {

/// Gate thresholds. Defaults match the CI smoke-bench job.
struct CompareOptions {
  /// Relative tolerance for metrics whose combined confidence interval is
  /// zero (deterministic or single-shot values).
  double rel_tol = 0.01;
  /// Wall-time regression budget in percent; < 0 disables the wall-time
  /// gate entirely (wall metrics regress with the machine, not the code,
  /// so CI only gates them when explicitly asked).
  double max_wall_regress_percent = -1.0;
  /// Require counter totals to match exactly. Off by default: libm
  /// differences across machines can shift replication counts at a
  /// stopping-rule boundary even when every mean agrees. Also surfaces
  /// the streaming scheduler's timing counters (speculative replications
  /// discarded, reorder-buffer peak, pool idle seconds) as notes and
  /// checks the candidate's discard accounting is internally consistent.
  /// Multichannel runs get the same treatment: the channel-hop and
  /// switch-byte counters of both reports must be internally consistent
  /// (non-negative, no dead air without hops, no negative per-channel
  /// tuning split), and their drift is surfaced as a note. Stateful-client
  /// runs likewise: cache_hits + cache_misses must equal session_queries,
  /// cache_hit_bytes must be zero (a fresh hit moves no broadcast bytes),
  /// and invalidations can never exceed misses. Fleet-population runs
  /// (fleet.* counters, core/fleet_runner.h) get their own identities:
  /// every fleet counter is non-negative, found and cache_hits +
  /// cache_misses can never exceed fleet.queries (a sweep may mix
  /// cache-on and cache-off cells, so the cache counters cover only a
  /// subset of the queries), and switch bytes again require hops.
  bool strict_counters = false;
};

/// Outcome of a comparison: `failures` make the gate fail, `notes` are
/// informational (extra candidate points, skipped wall metrics).
struct CompareResult {
  std::vector<std::string> failures;
  std::vector<std::string> notes;

  bool passed() const { return failures.empty(); }
};

/// Compares `candidate` against `baseline` point by point.
///
/// Points are matched by their full label set (order-insensitive). A
/// baseline point or metric missing from the candidate is a failure; a
/// candidate point absent from the baseline is only a note (new grid
/// points should not break the gate).
///
/// Per metric: simulated means must agree within the sum of the two
/// confidence half-widths (both runs' uncertainty); when that sum is zero
/// the means must agree within rel_tol relative tolerance. Walltime
/// metrics and the timing block are checked only when
/// max_wall_regress_percent >= 0.
CompareResult CompareBenchReports(const BenchReport& baseline,
                                  const BenchReport& candidate,
                                  const CompareOptions& options);

/// Identity check (bench_compare --identical): compares two reports as
/// parsed JSON, skipping the root's `timing` block, the one part a
/// rerun, a warm program cache or a sharded merge may change. Object
/// members are matched by key, array elements by index; numbers must be
/// equal exactly, and an integer never equals a fraction. Returns the
/// path of the first difference (e.g. `$.points[3].metrics.access_bytes
/// .mean`, or the member one report lacks), or nullopt when equal.
std::optional<std::string> FirstReportDifference(const JsonValue& a,
                                                 const JsonValue& b);

}  // namespace airindex

#endif  // AIRINDEX_TOOLS_BENCH_COMPARE_LIB_H_
