// Layer: 5 (core) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_CORE_EXPERIMENT_H_
#define AIRINDEX_CORE_EXPERIMENT_H_

#include <chrono>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/broadcast_server.h"
#include "core/program_cache.h"
#include "core/report.h"
#include "core/shard.h"
#include "core/simulator.h"
#include "core/testbed_config.h"
#include "core/thread_pool.h"
#include "data/dataset.h"

namespace airindex {

/// One cell's broadcast side: the dataset it serves and the server built
/// over it.
struct TestbedServer {
  std::shared_ptr<const Dataset> dataset;
  BroadcastServer server;
};

/// The cell setup every engine shares (ParallelExperiment, and the fleet
/// runner of core/fleet_runner.h): resolves `config`'s dataset
/// (BuildTestbedDataset) and builds its broadcast server from the
/// resolved scheme params. When config.program_cache_dir is set the
/// program goes through `*program_cache` — the engine's snapshot cache,
/// (re)created here when it is null or names another directory — so
/// identical cells share one flattened program. Does not validate the
/// config; the engines do that first.
Result<TestbedServer> BuildTestbedServer(
    const TestbedConfig& config,
    std::unique_ptr<ProgramCache>* program_cache);

/// Options of the parallel replication engine.
struct ParallelOptions {
  /// Worker threads; <= 0 means std::thread::hardware_concurrency().
  /// jobs = 1 runs every replication serially on one worker — today's
  /// single-threaded behaviour — and, by construction, produces exactly
  /// the same statistics as any other jobs value.
  int jobs = 0;
  /// Cross-process sweep shard (core/shard.h). The default ({0, 1}) is
  /// the ordinary single-process run. When shard.count > 1, RunSweep
  /// executes only this shard's replication slice of each cell — all of
  /// it, with no adaptive stop — and records per-replication payloads
  /// (shard_cells()) for bench_merge to replay. Run() ignores the shard:
  /// sharding is a sweep-level concept.
  ShardSpec shard = {};
};

/// Multi-threaded replication engine.
///
/// The paper's adaptive testbed repeats rounds of `requests_per_round`
/// requests until the Student-t stopping rule converges. Rounds are
/// statistically independent, so this engine runs them as independent
/// *replications*, streamed through a thread pool:
///
///  - Replication `id` draws its RNG stream from
///    ReplicationSeed(config.seed, id) = seed ^ splitmix64(id)
///    (des/random.h), so its outcome depends only on (config, id) — never
///    on worker identity or scheduling.
///  - The coordinator keeps 2 * jobs replications in flight at all times
///    (no wave barrier: a straggler never idles the rest of the pool, and
///    a worker finishing early finds the next replication already
///    queued). The window bounds only the speculative work past
///    min_rounds: a sweep cell's replications below min_rounds go in
///    flight at once while the next cell is prepared. Completed results
///    land in a reorder buffer and are merged strictly in replication-id
///    order; each merged replication feeds the AccuracyController, so the
///    Student-t check runs on the ordered stream exactly as it would
///    serially.
///  - The stopping decision is the streaming cancellation point: once the
///    rule fires on the merged prefix, no further replications are
///    submitted, and in-flight speculative replications finish but are
///    discarded unmerged (at most the in-flight window of waste,
///    reported as `replications_discarded` in the timing summary).
///  - Set-up overlap (RunSweep only): the coordinator prepares cell c+1
///    (validates it, resolves its dataset, builds or restores its
///    program, fetches its Zipf table) while the pool runs cell c's
///    guaranteed replications — the ids the stopping rule cannot end
///    before. Replications and merges are untouched.
///
/// Consequence: `Run` is bit-identical for every jobs value,
/// and the adaptive stopping behaviour (which replication stops the run)
/// is preserved exactly. RunTestbed (core/simulator.h) is the jobs = 1
/// case.
class ParallelExperiment {
 public:
  explicit ParallelExperiment(ParallelOptions options = {});

  ParallelExperiment(const ParallelExperiment&) = delete;
  ParallelExperiment& operator=(const ParallelExperiment&) = delete;

  /// Runs one configuration to convergence (or max_rounds).
  Result<SimulationResult> Run(const TestbedConfig& config);

  /// Runs a grid of configurations, one result per config in input
  /// order — the one sweep entry point. Grid points run sequentially
  /// with their replications parallelised, so each point's statistics
  /// are independent of the grid around it (and of jobs). Only set-up
  /// overlaps: a cell's guaranteed replications (the ids below
  /// min(min_rounds, max_rounds), which the stopping rule cannot end
  /// early, or a shard's whole slice) go in flight at once, and the
  /// coordinator prepares the next cell before it first waits. A cell
  /// with nothing to run (an invalid config, a failed build, a shard's
  /// empty slice) has the next cell prepared at once. Each cell is
  /// prepared exactly once and keeps its result or error at its index.
  /// Each cell's interval, preparation included, is charged to wall and
  /// idle time, so a fresh engine's wall_seconds is the sum of its
  /// cell_wall_seconds.
  ///
  /// Cells that share the same generated-dataset inputs
  /// (num_records, key geometry, attribute shape, seed) reuse one
  /// Dataset instance instead of regenerating it — Figure 4's grid, for
  /// example, builds each record-count's dataset once instead of once
  /// per scheme. Reuse cannot change results: the cached dataset is
  /// bit-identical to the one each cell would generate itself.
  std::vector<Result<SimulationResult>> RunSweep(
      const std::vector<TestbedConfig>& configs);

  /// Timing accumulated over every Run/RunSweep call on this engine.
  const RunTiming& timing() const { return timing_; }

  /// Per-cell replication payloads captured by the most recent sharded
  /// RunSweep, one entry per sweep cell in sweep order (each with the
  /// cell's stopping parameters and this shard's owned replications).
  /// Empty unless options.shard.count > 1. The bench driver copies these
  /// into its partial report's shard section.
  const std::vector<ShardCell>& shard_cells() const { return shard_cells_; }

  /// Worker threads in use.
  int jobs() const { return pool_.size(); }

  /// The broadcast-program cache in use, or nullptr until a Run with a
  /// non-empty config.program_cache_dir created one. Exposed so bench
  /// mains can print its telemetry (docs/METRICS.md, program.* counters)
  /// — the counters never enter simulation metrics or bench reports.
  const ProgramCache* program_cache() const { return program_cache_.get(); }

 private:
  /// A cell ready to run: its config, the server built over its dataset
  /// and its shared Zipf table (null for uniform requests).
  struct PreparedCell {
    TestbedConfig config;
    TestbedServer testbed;
    std::shared_ptr<const ZipfDistribution> zipf;
  };

  /// Validates `config`, builds or restores its server through
  /// program_cache_ and fetches its Zipf table. Coordinator only.
  Result<PreparedCell> Prepare(const TestbedConfig& config);

  /// The one cell loop: streams replications with absolute ids [lo, hi)
  /// through the pool and merges them in id order. With `payloads` null
  /// (an unsharded run, [0, max_rounds)) the stopping rule ends the cell
  /// on the merged prefix. A sharded cell instead runs its whole slice
  /// with no stopping rule and appends each replication's raw merge
  /// state to `payloads`; its result is the shard's local view, and only
  /// bench_merge's replay reconstructs the real point. A non-empty
  /// `prepare_next` is called exactly once, after the cell's guaranteed
  /// replications are in flight and before its first wait.
  Result<SimulationResult> RunCell(const PreparedCell& cell, int lo, int hi,
                                   std::vector<ReplicationPayload>* payloads,
                                   const std::function<void()>& prepare_next);

  /// Charges the interval since `*start` to wall_seconds, and the pool
  /// capacity the workers left unused in it to idle_seconds; moves
  /// `*start` and `*busy_before` to now and returns the interval's wall
  /// seconds.
  double ChargeInterval(std::chrono::steady_clock::time_point* start,
                        double* busy_before);

  /// One shared Zipf sampling table per distinct (ranks, theta):
  /// replications — and same-shape sweep cells, since the cache persists
  /// across Run calls — reuse it instead of recomputing the O(n)
  /// harmonic normalization per replication. Sharing cannot change
  /// results: the cached table is bit-identical to the one each
  /// replication would build itself.
  std::shared_ptr<const ZipfDistribution> ZipfFor(int n, double theta);

  ThreadPool pool_;
  ShardSpec shard_;
  RunTiming timing_;
  std::vector<ShardCell> shard_cells_;
  /// Lives across Run/RunSweep calls so identical cells share one
  /// flattened program; (re)created when a config names a different
  /// snapshot directory.
  std::unique_ptr<ProgramCache> program_cache_;
  std::vector<std::pair<std::pair<int, double>,
                        std::shared_ptr<const ZipfDistribution>>>
      zipf_cache_;
};

}  // namespace airindex

#endif  // AIRINDEX_CORE_EXPERIMENT_H_
