#include "core/fleet_runner.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/broadcast_server.h"
#include "core/simulator.h"
#include "des/zipf.h"

namespace airindex {

namespace {

/// Builds the fleet.* registry from the merged totals. Every run touches
/// the same names in the same order (conditional blocks included), so
/// two runs with equal totals produce byte-identical JSON counters.
MetricsRegistry SnapshotFleetMetrics(const FleetShardResult& totals,
                                     const TestbedConfig& config,
                                     int shards,
                                     const BroadcastServer& server) {
  MetricsRegistry metrics;
  metrics.Increment("fleet.clients", totals.clients);
  metrics.Increment("fleet.queries", totals.queries);
  metrics.Increment("fleet.found", totals.found);
  metrics.Increment("fleet.access_bytes", totals.access_bytes);
  metrics.Increment("fleet.tuning_bytes", totals.tuning_bytes);
  metrics.Increment("fleet.index_probes", totals.index_probes);
  metrics.Increment("fleet.bucket_probes", totals.bucket_probes);
  metrics.Increment("fleet.wake_events", totals.wake_events);
  metrics.Increment("fleet.slots_scanned", totals.slots_scanned);
  metrics.Increment("fleet.shards", shards);
  metrics.Set("fleet.wake_batch_peak", totals.wake_batch_peak);
  metrics.Set("fleet.access_p50", totals.access_histogram.p50());
  metrics.Set("fleet.access_p95", totals.access_histogram.p95());
  metrics.Set("fleet.access_p99", totals.access_histogram.p99());
  metrics.Set("fleet.tuning_p50", totals.tuning_histogram.p50());
  metrics.Set("fleet.tuning_p95", totals.tuning_histogram.p95());
  metrics.Set("fleet.tuning_p99", totals.tuning_histogram.p99());
  // The cache block appears only when the cache is engaged, mirroring
  // the session block of single-client reports.
  if (config.client.cache_capacity > 0) {
    metrics.Increment("fleet.cache_hits", totals.cache_hits);
    metrics.Increment("fleet.cache_misses", totals.cache_misses);
    metrics.Set("fleet.client_hits_p50", totals.hits_per_client.p50());
    metrics.Set("fleet.client_hits_p95", totals.hits_per_client.p95());
    metrics.Set("fleet.client_hits_p99", totals.hits_per_client.p99());
  }
  // Likewise the multichannel block (per-channel contention).
  if (const MultiChannelProgram* multi = server.multichannel();
      multi != nullptr) {
    metrics.Increment("fleet.channel_hops", totals.channel_hops);
    metrics.Increment("fleet.switch_bytes", totals.switch_bytes);
    for (int c = 0; c < multi->num_channels(); ++c) {
      const auto idx = static_cast<std::size_t>(c);
      metrics.Increment(
          "fleet.tuning_bytes_ch" + std::to_string(c),
          idx < totals.tuning_bytes_per_channel.size()
              ? totals.tuning_bytes_per_channel[idx]
              : 0);
    }
  }
  return metrics;
}

}  // namespace

Status ValidateFleetConfig(const TestbedConfig& config,
                           const FleetOptions& options) {
  if (Status s = ValidateTestbedConfig(config); !s.ok()) return s;
  if (options.fleet_size < 1) {
    return Status::InvalidArgument("fleet_size must be >= 1");
  }
  if (options.queries_per_client < 1) {
    return Status::InvalidArgument("queries_per_client must be >= 1");
  }
  if (options.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  // Each gate below names what the fleet's client lacks; deadlines and
  // the lossy channel need nothing, since both engines walk through
  // client/air_walk.h.
  //
  // A fleet client's cache is one 64-bit residency mask over the hottest
  // record ranks.
  if (config.client.cache_capacity > kFleetCacheBits) {
    return Status::InvalidArgument(
        "fleet cache capacity is limited to the 64 residency bits");
  }
  // A replication replays its own mutation history; the clients of a
  // fleet share one server, so they need one history advanced in time
  // order across every shard, which the fleet does not run.
  if (config.client.update_rate > 0.0) {
    return Status::InvalidArgument(
        "fleet mode does not support server updates");
  }
  // Warmup fills a SessionClient's cache from the measured stream; the
  // residency mask has no warm path, so fleet clients start cold.
  if (config.client.warmup_queries > 0) {
    return Status::InvalidArgument(
        "fleet mode does not support cache warmup (clients start cold)");
  }
  // Re-tiering rebuilds a replication's program from that client's own
  // requests. A fleet's clients share one immutable program, and a
  // shared re-tierer would observe requests in an order that depends on
  // the shard partition.
  if (config.params.schedule.scheduler == SchedulerKind::kOnline) {
    return Status::InvalidArgument(
        "fleet mode does not support online re-tiering");
  }
  return Status::Ok();
}

FleetExperiment::FleetExperiment(ParallelOptions options)
    : pool_(options.jobs) {
  timing_.jobs = pool_.size();
}

Result<FleetRunResult> FleetExperiment::Run(const TestbedConfig& config,
                                            const FleetOptions& options) {
  if (Status s = ValidateFleetConfig(config, options); !s.ok()) return s;

  const auto setup_start = std::chrono::steady_clock::now();
  Result<TestbedServer> built = BuildTestbedServer(config, &program_cache_);
  timing_.setup_seconds += std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - setup_start)
                               .count();
  if (!built.ok()) return built.status();
  const TestbedServer& cell = built.value();
  const std::shared_ptr<const Dataset>& dataset = cell.dataset;
  const BroadcastServer& server = cell.server;

  std::optional<ZipfDistribution> zipf;
  if (config.zipf_theta > 0.0) {
    zipf.emplace(dataset->size(), config.zipf_theta);
  }

  FleetParams params;
  params.fleet_size = options.fleet_size;
  params.queries_per_client = options.queries_per_client;
  params.cache_capacity = config.client.cache_capacity;
  params.session_length = config.client.session_length;
  params.repeat_probability = config.client.repeat_probability;
  params.data_availability = config.data_availability;
  params.mean_request_interval_bytes = config.mean_request_interval_bytes;
  params.zipf_theta = config.zipf_theta;
  params.seed = config.seed;
  params.deadline = config.deadline;
  params.error_model = config.error_model;

  // Never more shards than clients; ranges differ by at most one client.
  const int shards = static_cast<int>(std::min<std::int64_t>(
      options.shards, options.fleet_size));
  const std::int64_t base = options.fleet_size / shards;
  const std::int64_t extra = options.fleet_size % shards;
  const auto shard_begin = [&](int k) {
    return static_cast<std::int64_t>(k) * base +
           std::min<std::int64_t>(k, extra);
  };

  const auto start = std::chrono::steady_clock::now();
  const double busy_before = pool_.busy_seconds();
  std::vector<FleetShardResult> shard_results(
      static_cast<std::size_t>(shards));
  ParallelFor(pool_, static_cast<std::size_t>(shards),
              [&](std::size_t k) {
                const int shard = static_cast<int>(k);
                shard_results[k] = RunFleetShard(
                    server.scheme(), *dataset, params, shard_begin(shard),
                    shard_begin(shard + 1),
                    zipf ? &*zipf : nullptr);
              });

  FleetRunResult run;
  // Client-id-ordered merge: shard k covers lower ids than shard k+1, so
  // folding 0..shards-1 in order is the replication-id-ordered merge of
  // the single-client engine.
  for (const FleetShardResult& shard : shard_results) {
    run.totals.Merge(shard);
  }
  run.metrics = SnapshotFleetMetrics(run.totals, config, shards, server);
  run.num_channels = server.num_channels();
  for (int c = 0; c < server.num_channels(); ++c) {
    const ArenaChannelView& view = server.channel_view(c);
    run.cycle_bytes = std::max(run.cycle_bytes, view.cycle_bytes());
    run.num_buckets += static_cast<std::int64_t>(view.num_buckets());
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  timing_.wall_seconds += wall;
  timing_.replications_run += shards;
  timing_.replications_merged += shards;
  timing_.busy_seconds += pool_.busy_seconds() - busy_before;
  timing_.idle_seconds = std::max(
      0.0, timing_.wall_seconds * timing_.jobs - timing_.busy_seconds);
  return run;
}

}  // namespace airindex
