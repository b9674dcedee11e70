// Shared option parsing, structured reporting and the one sweep harness
// of the bench drivers.
//
// Every bench accepts the same base flags, and every driver applies the
// first five. A driver that does not apply one of the others exits 2
// when it is given (CheckUnappliedFlags), rather than record in its
// report a flag that did not shape it; docs/BENCHMARKS.md tables which
// driver applies which.
//   --quick        fewer grid points / rounds (CI-friendly)
//   --csv          emit CSV tables instead of aligned text
//   --jobs N       worker threads for the replication engine (0 = all
//                  cores; 1 = serial). Statistics are bit-identical for
//                  every N; only the timing summary changes.
//   --records N    override the bench's record count (or its
//                  record-count grid) with the single count N
//   --json PATH    additionally write the machine-readable report
//                  (core/json_report.h schema) to PATH
//   --channels N   broadcast over N synchronized channels (default 1 =
//                  the paper's single-channel testbed; applied through
//                  ApplyMultiChannelOptions)
//   --switch-cost B  broadcast bytes a client loses per channel hop
//   --allocation S   multichannel allocation strategy: index-on-one,
//                  data-partitioned (default) or replicated-index
//   --zipf T       request-popularity skew Zipf(T) over record ranks
//                  (unset = each bench's own workload; applied through
//                  ApplyWorkloadOptions)
//   --cache-size C   client cache capacity in records (default 0 = the
//                  paper's stateless client; the session wrapper is
//                  bypassed entirely)
//   --cache-policy P eviction policy: lru (default), lfu or pix
//   --session-length K  queries per client session
//   --repeat-prob P  within-session probability of repeating the
//                  previous query (temporal locality)
//   --update-rate U  server-side mutations per record per broadcast
//                  cycle. 0 (default) freezes the dataset and bypasses
//                  the dynamic layer entirely; > 0 runs the MutationLog
//                  / incremental-maintenance engine (src/dynamic) and
//                  wires real record versions into cache validation
//   --update-zipf T  Zipf skew of mutation targets over record ranks
//                  (0 = uniform; only meaningful with --update-rate)
//   --compact-every K  rebuild the broadcast program from the mutated
//                  dataset every K cycles (0 = patch forever, never
//                  compact; only meaningful with --update-rate)
//   --cache-warmup N warmup queries before measurement (steady state)
//   --fleet-size N   population size for fig_fleet: N clients share one
//                  broadcast cycle via the batched struct-of-arrays
//                  engine (client/fleet.h). 0 = the bench's own size grid
//   --shard I/N    run only shard I of N of the sweep (core/shard.h):
//                  the replication units of the whole grid are split
//                  deterministically across N processes, and the JSON
//                  report becomes a *partial* carrying a `shard` section
//                  for tools/bench_merge to combine. Sweep benches
//                  apply it; fig_fleet does not (the fleet engine has
//                  its own internal sharding)
//   --scheduler S  slot scheduler: flat (default, the paper's layouts),
//                  sqrt (square-root-rule broadcast disks over the
//                  workload skew) or online (sqrt start + per-run
//                  re-tiering from the observed request stream; applied
//                  through ApplyWorkloadOptions)
//   --disks D      broadcast disks (popularity tiers) for sqrt/online
//   --retier-requests N  online re-tiering epoch length, in observed
//                  on-air requests
//
// A driver takes a given flag's value, whatever it is, and its own
// default otherwise (BenchOptions::given).
//
// BenchReporter accumulates the report, then writes the JSON file on
// Finish() when --json was given. Every report's config block also
// embeds the fully-resolved shared-flag set under `resolved.*` keys, so
// sharded partials and committed baselines are self-describing;
// result-neutral knobs (--json, --shard, --program-cache, --jobs) are
// excluded so the CI byte-identity gates keep holding across them.
// Readers tolerate reports without these keys (config is an open
// key/value list).
//
// SweepMain is the sweep harness: a driver hands it its grid of
// testbed cells and a print function, and it runs, reports and times
// the whole grid (see SweepBench).

#ifndef AIRINDEX_BENCH_BENCH_MAIN_H_
#define AIRINDEX_BENCH_BENCH_MAIN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/json_report.h"
#include "core/program_cache.h"
#include "core/report.h"
#include "core/shard.h"
#include "core/simulator.h"

namespace airindex {

/// Options common to every bench driver.
struct BenchOptions {
  bool quick = false;
  bool csv = false;
  int jobs = 0;
  /// 0 means "use the bench's own grid".
  int records = 0;
  /// Empty means "no JSON output".
  std::string json_path;
  /// Multichannel flags. The defaults describe the single-channel
  /// testbed, under which ApplyMultiChannelOptions is a no-op and the
  /// JSON report stays byte-identical with pre-multichannel baselines.
  MultiChannelParams multichannel;
  /// --zipf; < 0 means "not given" (keep the bench's own workload).
  double zipf_theta = -1.0;
  /// Stateful-client flags. The default (cache_capacity 0) keeps the
  /// stateless client, ApplyWorkloadOptions stays a no-op for them, and
  /// reports stay byte-identical with pre-client baselines.
  ClientSessionConfig client;
  /// --fleet-size; 0 means "use the fleet bench's own size grid".
  std::int64_t fleet_size = 0;
  /// --program-cache DIR: on-disk broadcast-program snapshot cache
  /// (core/program_cache.h). Empty disables caching. Never affects
  /// results or the JSON report — only setup wall time.
  std::string program_cache_dir;
  /// --shard I/N, already converted to the 0-based internal form. The
  /// default ({0, 1}) is the ordinary unsharded run.
  ShardSpec shard;
  /// --scheduler / --disks / --retier-requests. The default (kFlat)
  /// keeps every scheme's committed layout, ApplyWorkloadOptions stays a
  /// no-op for it, and reports stay byte-identical with pre-scheduler
  /// baselines.
  ScheduleParams schedule;
  /// Every shared flag on the command line, by name ("--zipf").
  std::set<std::string, std::less<>> given_flags;

  /// True when `flag` was given, whatever its value.
  bool given(std::string_view flag) const {
    return given_flags.contains(flag);
  }
};

/// Parses the shared flags, ignoring anything it does not recognise (so a
/// bench can layer extra flags on top). Prints to stderr and exits with
/// status 2 on a malformed value (e.g. `--jobs` without a number).
BenchOptions ParseBenchOptions(int argc, char** argv);

/// Copies the parsed multichannel flags into a testbed config. Testbed
/// benches call this per grid cell so --channels / --switch-cost /
/// --allocation apply uniformly.
void ApplyMultiChannelOptions(const BenchOptions& options,
                              TestbedConfig* config);

/// Copies the parsed workload flags (--zipf and the --cache-* /
/// --session-* / --update-* / --compact-every / scheduler family) into a
/// testbed config. --zipf is applied only when given, so benches with
/// their own skew keep it by default.
void ApplyWorkloadOptions(const BenchOptions& options, TestbedConfig* config);

/// Under --quick, bounds a sweep cell's run to 10..40 replications; a
/// no-op otherwise.
void ApplyQuickRounds(const BenchOptions& options, TestbedConfig* config);

/// The shared flags a driver applies when it calls
/// ApplyMultiChannelOptions and ApplyWorkloadOptions on every cell of a
/// sweep run under --shard: all but --fleet-size and the five every
/// driver applies.
extern const std::vector<std::string_view> kTestbedFlags;

/// Names on stderr, after `program`, every given shared flag that is
/// neither one of --records, --csv, --jobs, --quick and --json (which
/// every driver applies) nor in `applied`, and returns false if there
/// was one. The driver then exits 2 rather than record in its report a
/// flag that did not shape it.
bool CheckUnappliedFlags(const BenchOptions& options, const char* program,
                         const std::vector<std::string_view>& applied = {});

/// Prints one program-cache telemetry line to stderr (no-op on nullptr —
/// benches call it unconditionally with engine.program_cache()). Kept off
/// stdout and out of the JSON report so warm and cold cache runs stay
/// byte-identical; the counters are documented in docs/METRICS.md. On a
/// sharded run the line is prefixed with "[shard I/N]" so N processes
/// writing to one terminal (or one CI log) stay attributable.
void PrintProgramCacheSummary(const ProgramCache* cache,
                              const ShardSpec& shard = {});

/// `value` as printf's %g writes it (at most six significant digits):
/// the form of the rates and skews in report configs and labels.
std::string FormatG(double value);

/// Prints `table` to stdout, as CSV under --csv and aligned otherwise.
void PrintTable(const ReportTable& table, bool csv);

/// Collects bench results into a BenchReport and writes it when --json
/// was requested.
class BenchReporter {
 public:
  BenchReporter(std::string bench_name, const BenchOptions& options);

  /// Records one config key/value pair (record counts, scheme list, ...).
  void AddConfig(const std::string& key, const std::string& value);

  /// Adds one grid point from a simulation run: access/tuning byte means
  /// with their Student-t confidence half-widths, plus the run's counters
  /// merged into the report totals. Returns the stored point so callers
  /// can attach extra metrics (valid until the next Add*).
  BenchPoint& AddSimulationPoint(
      std::vector<std::pair<std::string, std::string>> labels,
      const SimulationResult& sim);

  /// Adds a fully-specified point (derived scalars, walltime metrics).
  void AddPoint(BenchPoint point);

  /// Folds a run's registry into the report's counter totals — for
  /// benches whose points are not built by AddSimulationPoint (the fleet
  /// engine reports through core/fleet_runner.h, not SimulationResult).
  void MergeCounters(const MetricsRegistry& metrics);

  /// Writes the JSON report when --json was given; no-op otherwise.
  /// A non-null `shard` (one cell per point, in point order) makes the
  /// report a partial with a `shard` root object — bench_merge's input.
  /// Returns the write status so the driver can fail loudly.
  Status Finish(const RunTiming& timing,
                const ShardSection* shard = nullptr);

 private:
  BenchReport report_;
  std::string json_path_;
};

/// One sweep cell: its testbed run and its report point's labels.
struct SweepCell {
  TestbedConfig config;
  std::vector<std::pair<std::string, std::string>> labels;
  /// Counter ratios (core/shard.h) the point carries after its other
  /// metrics. The harness evaluates each with BinomialRatioMetric and
  /// records it in a sharded report, so bench_merge recomputes it with
  /// the same code.
  std::vector<DerivedMetricSpec> ratios = {};
};

/// The runs of a sweep: results[i] is cells[i]'s.
using SweepResults = std::vector<SimulationResult>;

/// A sweep driver, for SweepMain.
struct SweepBench {
  /// The report's `bench` field; also names the driver in flag errors.
  std::string name;
  /// The shared flags the driver applies besides the five every driver
  /// applies.
  std::vector<std::string_view> applied = {};
  /// The driver's config keys, recorded after the shared ones in order.
  std::vector<std::pair<std::string, std::string>> config = {};
  /// The grid, in report-point order.
  std::vector<SweepCell> cells = {};
  /// Attaches metrics beyond access and tuning to a cell's point, before
  /// its ratios; may be empty.
  std::function<void(const SweepCell& cell, const SimulationResult& sim,
                     BenchPoint* point)>
      extras = {};
  /// Prints the title and tables (CSV under --csv); `timing` is the
  /// whole sweep's.
  std::function<void(const std::vector<SweepCell>& cells,
                     const SweepResults& results, const RunTiming& timing,
                     bool csv)>
      print = {};
};

/// Runs a sweep driver and returns its exit status: 2 when a given
/// shared flag is not in bench.applied (nothing runs); else one RunSweep
/// of the grid under --jobs and --shard, 1 on a failed cell; else the
/// points in grid order (with a sharded run's payloads), one stderr
/// warning per cell whose walks saw anomalies, bench.print, the timing
/// and program-cache summaries, and the report (1 if it cannot be
/// written).
int SweepMain(const BenchOptions& options, const SweepBench& bench);

}  // namespace airindex

#endif  // AIRINDEX_BENCH_BENCH_MAIN_H_
