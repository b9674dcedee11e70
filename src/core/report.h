#ifndef AIRINDEX_CORE_REPORT_H_
#define AIRINDEX_CORE_REPORT_H_

#include <ostream>
#include <string>
#include <vector>

namespace airindex {

/// Column-aligned text table used by the figure benches to print the
/// paper's series. Also emits CSV for downstream plotting.
class ReportTable {
 public:
  /// `columns` are the header labels.
  explicit ReportTable(std::vector<std::string> columns);

  /// Appends one row; pads or truncates to the column count.
  void AddRow(std::vector<std::string> cells);

  /// Pretty-prints with aligned columns.
  void Print(std::ostream& os) const;

  /// Comma-separated output (header + rows), quoted per RFC 4180: cells
  /// containing commas, quotes or line breaks are wrapped in double
  /// quotes with embedded quotes doubled.
  void PrintCsv(std::ostream& os) const;

  /// Number of data rows.
  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` fractional digits.
std::string FormatDouble(double value, int digits = 1);

/// Wall-clock accounting of a parallel experiment run (or an accumulated
/// series of runs). Produced by ParallelExperiment (core/experiment.h);
/// printed by the bench drivers after their tables.
struct RunTiming {
  /// Worker threads in the pool.
  int jobs = 1;
  /// Replications executed, including speculative ones discarded after
  /// the stopping rule fired.
  int replications_run = 0;
  /// Replications whose statistics were merged into results.
  int replications_merged = 0;
  /// Speculative replications that ran but were discarded because the
  /// stopping rule fired on an earlier replication
  /// (== replications_run - replications_merged).
  int replications_discarded = 0;
  /// High-water mark of the streaming scheduler's reorder buffer —
  /// completed replications parked waiting for an earlier id to finish.
  int reorder_buffer_peak = 0;
  /// Coordinator wall time spent inside Run()/RunSweep().
  double wall_seconds = 0.0;
  /// Summed worker execution time (<= wall_seconds * jobs).
  double busy_seconds = 0.0;
  /// Pool capacity left unused while inside Run()/RunSweep()
  /// (wall_seconds * jobs - busy_seconds, clamped at 0).
  double idle_seconds = 0.0;
  /// Coordinator seconds spent preparing cells — validating the config,
  /// resolving the dataset, building or restoring the program, fetching
  /// the Zipf table — summed over the run. The replication engine counts
  /// it inside wall_seconds, and in a sweep all but the first cell's
  /// set-up runs beside the previous cell's replications. The fleet
  /// engine's is its server build, timed before its wall starts.
  double setup_seconds = 0.0;
  /// Which sweep shard this run was (core/shard.h), 0-based.
  /// shard_count == 1 is the ordinary unsharded run — and what a merged
  /// report presents itself as.
  int shard_index = 0;
  int shard_count = 1;
  /// Wall seconds per sweep cell, in sweep order (one entry per
  /// RunSweep cell; empty for plain Run calls). Diagnostic only — like
  /// the rest of the timing block it is merged across shards, never
  /// compared.
  std::vector<double> cell_wall_seconds;

  /// Executed replications per wall-clock second.
  double replications_per_second() const;
  /// Fraction of the pool's capacity spent executing, in [0, 1].
  double worker_utilization() const;
};

/// Prints the one-line per-run timing summary, e.g.:
///   timing: jobs 8 | replications 412 (404 merged, 8 discarded) |
///   reorder peak 5 | wall 1.92 s | set-up 0.21 s | 214.6 reps/s |
///   worker utilization 93% (idle 1.08 s)
void PrintTimingSummary(std::ostream& os, const RunTiming& timing);

}  // namespace airindex

#endif  // AIRINDEX_CORE_REPORT_H_
