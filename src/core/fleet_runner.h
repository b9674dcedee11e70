// Layer: 5 (core) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_CORE_FLEET_RUNNER_H_
#define AIRINDEX_CORE_FLEET_RUNNER_H_

#include <cstdint>

#include "client/fleet.h"
#include "common/result.h"
#include "core/experiment.h"
#include "core/metrics.h"
#include "core/report.h"
#include "core/testbed_config.h"
#include "core/thread_pool.h"

namespace airindex {

/// Fleet-mode knobs layered on top of a TestbedConfig.
struct FleetOptions {
  /// Clients in the population.
  std::int64_t fleet_size = 100000;
  /// Queries each client issues.
  int queries_per_client = 8;
  /// Client-id-range shards the fleet is split into. Fixed independently
  /// of --jobs (shards are the unit of work the pool schedules), so the
  /// merged result — including the per-shard engine telemetry — is
  /// byte-identical for every jobs value. Client-visible statistics are
  /// additionally identical across shard counts (per-client seeding).
  int shards = 64;
};

/// Merged outcome of one fleet run.
struct FleetRunResult {
  /// Shard results merged in client-id order.
  FleetShardResult totals;
  /// fleet.* counters and percentile gauges (see docs/METRICS.md).
  MetricsRegistry metrics;
  /// Channel shape, mirroring SimulationResult's fields.
  Bytes cycle_bytes = 0;
  std::int64_t num_buckets = 0;
  int num_channels = 1;
};

/// Checks that `config` describes a workload the fleet engine supports:
/// the client cache must fit the 64 residency bits, and server updates,
/// cache warmup and online re-tiering must be off (the reasons and the
/// tests are in docs/ARCHITECTURE.md §6). Deadlines and the unreliable
/// channel run as in the single-client engine.
Status ValidateFleetConfig(const TestbedConfig& config,
                           const FleetOptions& options);

/// Fleet-population engine: shards FleetOptions::fleet_size clients by
/// client-id range across a thread pool, runs each shard's batched
/// bucket-pass loop (client/fleet.h), and merges shard results in
/// client-id order. Results are bit-identical for every jobs value; the
/// client-visible totals are also invariant to the shard count.
class FleetExperiment {
 public:
  explicit FleetExperiment(ParallelOptions options = {});

  FleetExperiment(const FleetExperiment&) = delete;
  FleetExperiment& operator=(const FleetExperiment&) = delete;

  /// Runs one fleet over `config`'s dataset, scheme and workload.
  Result<FleetRunResult> Run(const TestbedConfig& config,
                             const FleetOptions& options);

  /// Timing accumulated over every Run call (replications_run counts
  /// shards).
  const RunTiming& timing() const { return timing_; }

  /// Worker threads in use.
  int jobs() const { return pool_.size(); }

  /// The broadcast-program cache in use, or nullptr until a Run with a
  /// non-empty config.program_cache_dir created one (see
  /// core/program_cache.h; same contract as ParallelExperiment).
  const ProgramCache* program_cache() const { return program_cache_.get(); }

 private:
  ThreadPool pool_;
  RunTiming timing_;
  std::unique_ptr<ProgramCache> program_cache_;
};

}  // namespace airindex

#endif  // AIRINDEX_CORE_FLEET_RUNNER_H_
