#include "core/simulator.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "broadcast/schedule.h"
#include "client/air_walk.h"
#include "client/session_client.h"
#include "core/broadcast_server.h"
#include "core/experiment.h"
#include "core/request_generator.h"
#include "core/result_handler.h"
#include "data/dataset.h"
#include "des/random.h"
#include "dynamic/dynamic_program.h"
#include "schemes/scheduled.h"

namespace airindex {

namespace {

/// Per-run scheduling state. For kFlat configs nothing activates and
/// scheme() forwards the server's scheme, so those paths stay
/// byte-identical with the committed baselines. For kOnline the runtime
/// owns the live re-tiered program: every on-air request feeds the
/// retierer, and a full epoch swaps a rebuilt program in for the *next*
/// request — safe at any phase because the client walks are closed-form
/// over the current channel, never spanning a swap.
struct ScheduleRuntime {
  const BroadcastScheme* base = nullptr;
  const Dataset* dataset = nullptr;
  SchemeKind kind = SchemeKind::kFlat;
  BucketGeometry geometry;
  SchemeParams params;
  /// The square-root-rule plan — telemetry for any active scheduler and
  /// the online loop's starting assignment.
  std::optional<DiskAssignment> planned;
  std::optional<OnlineRetierer> retierer;
  std::unique_ptr<BroadcastScheme> live;
  std::int64_t epochs = 0;
  std::int64_t moves = 0;
  std::int64_t rebuild_failures = 0;

  /// Call once per run, after the server is built from the same resolved
  /// params. A failed plan leaves the runtime passive, which cannot
  /// happen for a validated config (the server build consumed the same
  /// plan).
  void Start(const BroadcastServer& server, const Dataset& dataset_in,
             const TestbedConfig& config) {
    base = &server.scheme();
    params = ResolvedSchemeParams(config);
    if (!params.schedule.active()) return;
    Result<DiskAssignment> plan =
        ScheduleAssignmentFor(params.schedule, dataset_in.size());
    if (!plan.ok()) return;
    planned = std::move(plan).value();
    if (params.schedule.scheduler != SchedulerKind::kOnline) return;
    dataset = &dataset_in;
    kind = config.scheme;
    geometry = config.geometry;
    retierer.emplace(*planned);
  }

  const BroadcastScheme& scheme() const { return live ? *live : *base; }

  bool observing() const { return retierer.has_value(); }

  /// Feeds one on-air request (its drawn record) to the retierer.
  /// Closing an epoch re-tiers and rebuilds the live program; a rebuild
  /// failure keeps the previous program and is counted rather than fatal
  /// (the boundary/frequency template never changes, so failures need a
  /// logic bug to occur).
  void Observe(int record) {
    retierer->Observe(record);
    if (retierer->observed_this_epoch() < params.schedule.retier_requests) {
      return;
    }
    moves += retierer->EndEpoch();
    ++epochs;
    Result<ScheduledBroadcast> rebuilt =
        ScheduledBroadcast::BuildWithAssignment(
            kind,
            std::shared_ptr<const Dataset>(std::shared_ptr<const void>(),
                                           dataset),
            geometry, params, retierer->assignment());
    if (!rebuilt.ok()) {
      ++rebuild_failures;
      return;
    }
    live = std::make_unique<ScheduledBroadcast>(std::move(rebuilt).value());
  }
};

/// Snapshots one run's telemetry into a registry. Every run touches the
/// same names in the same order, which keeps the merged entry order (and
/// therefore the JSON report) deterministic and --jobs independent.
/// `end_time` is the run's last completion, where its clock stops.
MetricsRegistry SnapshotRunMetrics(Bytes end_time,
                                   const BroadcastServer& server,
                                   const ResultHandler& results,
                                   const SessionClient* session,
                                   const ScheduleRuntime& schedule,
                                   const DynamicRuntime& dynamic) {
  MetricsRegistry metrics;
  // Every request is two events, its arrival and its completion.
  metrics.Increment("sim.events_processed", 2 * results.requests());
  metrics.Increment("server.buckets_broadcast",
                    server.BucketsBroadcastBy(end_time));
  metrics.Increment("client.buckets_listened", results.buckets_listened());
  metrics.Increment("client.bytes_listened", results.bytes_listened());
  metrics.Increment("client.bytes_dozed", results.bytes_dozed());
  metrics.Increment("client.index_probes", results.index_probes());
  metrics.Increment("client.overflow_hops", results.overflow_hops());
  metrics.Increment("client.error_retries", results.error_retries());
  // The multichannel block is emitted only when several channels are in
  // play, so single-channel reports stay byte-identical with the
  // pre-multichannel baselines.
  if (const MultiChannelProgram* multi = server.multichannel();
      multi != nullptr) {
    metrics.Increment("client.channel_hops", results.channel_hops());
    metrics.Increment("client.switch_bytes", results.switch_bytes());
    for (int c = 0; c < multi->num_channels(); ++c) {
      metrics.Increment("client.tuning_bytes_ch" + std::to_string(c),
                        results.tuning_bytes_on_channel(c));
    }
    // Conflict-aware placement counters, only for scheduled programs so
    // flat-scheduler multichannel reports stay byte-identical.
    if (schedule.planned.has_value()) {
      const ConflictPlacement& conflict = multi->conflict_placement();
      metrics.Increment("schedule.conflict_pairs", conflict.hot_pairs);
      metrics.Increment("schedule.conflict_baseline",
                        conflict.baseline_collisions);
      metrics.Increment("schedule.conflict_collisions", conflict.collisions);
    }
  }
  // Likewise the session block appears only when the client cache is
  // engaged, keeping stateless-client reports byte-identical.
  if (session != nullptr) {
    metrics.Increment("client.session_queries", session->session_queries());
    metrics.Increment("client.cache_hits", session->hits());
    metrics.Increment("client.cache_misses", session->misses());
    metrics.Increment("client.cache_hit_bytes", session->hit_bytes());
    metrics.Increment("client.cache_validation_bytes",
                      session->validation_bytes());
    metrics.Increment("client.cache_invalidations",
                      session->invalidations());
    metrics.Increment("client.cache_evictions", session->evictions());
    metrics.Increment("client.cache_warm_inserts", session->warm_inserts());
  }
  // The schedule block appears only for single-channel scheduled runs,
  // keeping flat-scheduler reports byte-identical with the committed
  // baselines. occurrences == data_slots is the exact per-cycle
  // accounting identity bench_compare --strict-counters enforces; it
  // holds across re-tiers because the boundary/frequency template is
  // fixed.
  if (schedule.planned.has_value() && server.multichannel() == nullptr) {
    metrics.Increment("schedule.num_disks",
                      static_cast<std::int64_t>(schedule.planned->num_disks()));
    metrics.Increment(
        "schedule.major_frequency",
        static_cast<std::int64_t>(schedule.planned->max_frequency()));
    metrics.Increment("schedule.data_slots",
                      schedule.planned->SlotsPerMajorCycle());
    metrics.Increment("schedule.occurrences",
                      static_cast<std::int64_t>(
                          schedule.scheme().view().num_data_buckets()));
    metrics.Increment("schedule.retier_epochs", schedule.epochs);
    metrics.Increment("schedule.retier_moves", schedule.moves);
    metrics.Increment("schedule.rebuild_failures", schedule.rebuild_failures);
  }
  // The dynamic block appears only when the mutation engine is engaged
  // (update_rate > 0) — a config-level predicate, so every replication
  // of a run emits the same names and --update-rate 0 reports stay
  // byte-identical with the committed baselines. The identities
  // bench_compare --strict-counters pins are documented in
  // docs/METRICS.md.
  if (dynamic.active()) {
    const DynamicCounters& d = dynamic.counters();
    metrics.Increment("dynamic.cycles", d.cycles);
    metrics.Increment("dynamic.patched_cycles", d.patched_cycles);
    metrics.Increment("dynamic.rebuilt_cycles", d.rebuilt_cycles);
    metrics.Increment("dynamic.mutations", d.mutations);
    metrics.Increment("dynamic.inserts", d.inserts);
    metrics.Increment("dynamic.deletes", d.deletes);
    metrics.Increment("dynamic.updates", d.updates);
    metrics.Increment("dynamic.freelist_pushes", d.freelist_pushes);
    metrics.Increment("dynamic.freelist_pops", d.freelist_pops);
    metrics.Increment("dynamic.delta_appends", d.delta_appends);
    metrics.Increment("dynamic.queries", d.queries);
    metrics.Increment("dynamic.dirty_queries", d.dirty_queries);
    metrics.Increment("dynamic.delta_reads", d.delta_reads);
    metrics.Increment("dynamic.delta_read_bytes", d.delta_read_bytes);
    metrics.Increment("dynamic.compaction_failures",
                      dynamic.compaction_failures());
    // Stale reads are the session client's invalidations: a cached copy
    // whose record the MutationLog has since touched. Without a cache
    // nothing can be read stale.
    metrics.Increment("dynamic.stale_reads",
                      session != nullptr ? session->invalidations() : 0);
  }
  return metrics;
}

/// The client's one request path: the stateless client fetches every
/// request here and the session client every cache miss. The mutable
/// overlay serves the walk when the dynamic-dataset layer is active,
/// otherwise the live program does, through the client's over-the-air
/// walk (client/air_walk.h: the lossy or plain walk, then the deadline).
/// The validator pins dynamic runs to a lossless single channel, so the
/// overlay needs only the deadline.
struct ServerFetcher final : RecordFetcher {
  ServerFetcher(const ScheduleRuntime* schedule_in,
                const TestbedConfig* config_in, Rng* error_rng_in,
                DynamicRuntime* dynamic_in)
      : schedule(schedule_in),
        config(config_in),
        error_rng(error_rng_in),
        dynamic(dynamic_in) {}

  const ScheduleRuntime* schedule;
  const TestbedConfig* config;
  Rng* error_rng;
  DynamicRuntime* dynamic;

  AccessResult Fetch(std::string_view key, Bytes tune_in) override {
    if (dynamic->active()) {
      return ApplyDeadline(dynamic->Access(key, tune_in), config->deadline);
    }
    return AirWalk(schedule->scheme(), key, tune_in, config->error_model,
                   config->deadline, error_rng);
  }
};

/// Adapts the dynamic runtime's MutationLog to the session client's
/// version interface, replacing the synthetic update schedule with real
/// server-side mutations.
struct DynamicVersions final : DynamicVersionSource {
  DynamicRuntime* runtime = nullptr;

  std::int64_t Version(int record_index, Bytes now) override {
    return runtime->VersionAt(record_index, now);
  }
};

/// Starts the dynamic-dataset overlay for a replication when the config
/// asks for server-side mutations. The mutation stream is seeded from
/// `replication_seed`: each replication owns an independent slice of
/// mutation history (like its request stream), which is what keeps
/// --jobs bit-identity.
Status StartDynamicRuntime(DynamicRuntime* dynamic,
                           const TestbedConfig& config,
                           std::shared_ptr<const Dataset> universe,
                           const BroadcastServer& server,
                           std::uint64_t replication_seed) {
  if (config.client.update_rate <= 0.0) return Status::Ok();
  DynamicRuntime::Params params;
  params.kind = config.scheme;
  params.universe = std::move(universe);
  params.geometry = config.geometry;
  params.scheme_params = ResolvedSchemeParams(config);
  params.update_rate = config.client.update_rate;
  params.update_zipf = config.client.update_zipf;
  params.compact_every = config.client.compact_every;
  params.seed = Mix64(replication_seed ^ 0xdc2a5ee0ULL);
  params.epoch_bytes = server.channel().cycle_bytes();
  params.base_scheme = &server.scheme();
  return dynamic->Start(std::move(params));
}

/// The longest broadcast cycle in play — the time base of the server
/// update schedule (update_rate is "updates per broadcast cycle").
Bytes ServerCycleBytes(const BroadcastServer& server) {
  Bytes longest = 0;
  for (int c = 0; c < server.num_channels(); ++c) {
    longest = std::max(longest, server.channel_view(c).cycle_bytes());
  }
  return longest;
}

SessionClientParams BuildSessionParams(const TestbedConfig& config,
                                       const BroadcastServer& server) {
  SessionClientParams params;
  params.cache_capacity = config.client.cache_capacity;
  params.cache_policy = config.client.cache_policy;
  if (config.client.update_rate > 0.0) {
    params.update_period = std::max<Bytes>(
        1, static_cast<Bytes>(
               std::llround(static_cast<double>(ServerCycleBytes(server)) /
                            config.client.update_rate)));
    // Config-level, not replication-level: the server mutates data on
    // one global schedule every replication observes identically.
    params.update_seed = Mix64(config.seed ^ 0xc11e47caULL);
    params.validation_bytes = config.geometry.signature_bytes;
  }
  return params;
}

/// PIX needs each record's broadcast frequency; the other policies
/// ignore it, so skip the channel scan for them.
std::vector<double> SessionFrequencies(const BroadcastServer& server,
                                       int num_records, CachePolicy policy) {
  if (policy != CachePolicy::kPix) return {};
  std::vector<const ArenaChannelView*> channels;
  for (int c = 0; c < server.num_channels(); ++c) {
    channels.push_back(&server.channel_view(c));
  }
  return BroadcastFrequencies(channels, num_records);
}

/// Runs the configured warmup queries through the cache's fast path so
/// measurement starts at the steady state the analytical models
/// describe. Draws from the measured generator stream (deterministic);
/// absent keys warm nothing, exactly like a measured miss.
void WarmSessionCache(SessionClient* session, RequestGenerator* generator,
                      int warmup_queries) {
  for (int i = 0; i < warmup_queries; ++i) {
    const Query query = generator->NextQuery();
    if (query.on_air) session->WarmInsert(query.key, 0);
  }
}

}  // namespace

Status ValidateTestbedConfig(const TestbedConfig& config) {
  // Every double field is checked for finiteness first: NaN fails both
  // sides of a range test like `x < lo || x > hi`, so without it a NaN
  // would pass validation silently.
  if (config.dataset == nullptr && config.num_records <= 0) {
    return Status::InvalidArgument("num_records must be positive");
  }
  if (config.dataset != nullptr && config.dataset->size() == 0) {
    return Status::InvalidArgument("external dataset is empty");
  }
  if (!std::isfinite(config.data_availability) ||
      config.data_availability < 0.0 || config.data_availability > 1.0) {
    return Status::InvalidArgument("data_availability must be in [0,1]");
  }
  if (!std::isfinite(config.mean_request_interval_bytes) ||
      config.mean_request_interval_bytes <= 0.0) {
    return Status::InvalidArgument(
        "mean request interval must be positive and finite");
  }
  if (config.deadline.access_deadline_bytes < 0) {
    return Status::InvalidArgument("deadline must be non-negative");
  }
  if (!std::isfinite(config.zipf_theta) || config.zipf_theta < 0.0) {
    return Status::InvalidArgument(
        "zipf_theta must be non-negative and finite");
  }
  if (!std::isfinite(config.error_model.bucket_error_rate) ||
      config.error_model.bucket_error_rate < 0.0 ||
      config.error_model.bucket_error_rate >= 1.0) {
    return Status::InvalidArgument("bucket error rate must be in [0,1)");
  }
  if (config.requests_per_round <= 0) {
    return Status::InvalidArgument("requests_per_round must be positive");
  }
  if (!std::isfinite(config.confidence_level) ||
      config.confidence_level <= 0.0 || config.confidence_level >= 1.0) {
    return Status::InvalidArgument("confidence level must be in (0,1)");
  }
  if (!std::isfinite(config.confidence_accuracy) ||
      config.confidence_accuracy <= 0.0) {
    return Status::InvalidArgument(
        "confidence accuracy must be positive and finite");
  }
  if (config.min_rounds < 1 || config.max_rounds < config.min_rounds) {
    return Status::InvalidArgument("bad round bounds");
  }
  if (config.multichannel.num_channels < 1 ||
      config.multichannel.num_channels > 64) {
    return Status::InvalidArgument("num_channels must be in [1, 64]");
  }
  if (config.multichannel.switch_cost_bytes < 0) {
    return Status::InvalidArgument("switch cost must be non-negative");
  }
  if (config.client.cache_capacity < 0) {
    return Status::InvalidArgument("cache capacity must be non-negative");
  }
  if (config.client.session_length < 1) {
    return Status::InvalidArgument("session length must be positive");
  }
  if (!std::isfinite(config.client.repeat_probability) ||
      config.client.repeat_probability < 0.0 ||
      config.client.repeat_probability > 1.0) {
    return Status::InvalidArgument("repeat probability must be in [0,1]");
  }
  if (!std::isfinite(config.client.update_rate) ||
      config.client.update_rate < 0.0) {
    return Status::InvalidArgument(
        "update rate must be non-negative and finite");
  }
  if (!std::isfinite(config.client.update_zipf) ||
      config.client.update_zipf < 0.0) {
    return Status::InvalidArgument(
        "update zipf must be non-negative and finite");
  }
  if (config.client.compact_every < 0) {
    return Status::InvalidArgument("compact period must be non-negative");
  }
  // The dynamic-dataset layer patches one live single-channel program;
  // the multichannel coordinator, the skew-aware schedulers and the
  // unreliable-channel wrapper all hold assumptions about a frozen
  // layout, so they are gated off rather than silently served stale
  // content. Deadlines compose (the impatience wrapper truncates the
  // dynamic walk like any other).
  if (config.client.update_rate > 0.0) {
    if (config.multichannel.num_channels != 1) {
      return Status::InvalidArgument(
          "dynamic datasets require a single channel");
    }
    if (config.params.schedule.active()) {
      return Status::InvalidArgument(
          "dynamic datasets are incompatible with skew-aware scheduling");
    }
    if (config.error_model.bucket_error_rate > 0.0) {
      return Status::InvalidArgument(
          "dynamic datasets require a lossless channel");
    }
  }
  if (config.client.warmup_queries < 0) {
    return Status::InvalidArgument("warmup queries must be non-negative");
  }
  if (const ScheduleParams& schedule = config.params.schedule;
      schedule.active()) {
    if (schedule.num_disks < 1 || schedule.num_disks > 64) {
      return Status::InvalidArgument("schedule num_disks must be in [1, 64]");
    }
    if (schedule.retier_requests < 1) {
      return Status::InvalidArgument("retier_requests must be positive");
    }
    if (schedule.rotation_slots < 0) {
      return Status::InvalidArgument("rotation_slots must be non-negative");
    }
    if (config.multichannel.num_channels > 1) {
      if (config.multichannel.allocation !=
          ChannelAllocation::kDataPartitioned) {
        return Status::InvalidArgument(
            "skew-aware scheduling supports only the data-partitioned "
            "multichannel allocation");
      }
      if (schedule.rotation_slots != 0) {
        return Status::InvalidArgument(
            "rotation_slots is owned by the conflict-aware placer on "
            "multichannel runs");
      }
    }
    // Online re-tiering swaps the live program under the client's one
    // request path; the multichannel coordinator holds references into
    // the planned program, and the session cache's PIX frequencies are
    // the planned program's, so both are gated off rather than silently
    // served a stale schedule.
    if (schedule.scheduler == SchedulerKind::kOnline) {
      if (config.multichannel.num_channels != 1) {
        return Status::InvalidArgument(
            "online re-tiering requires a single channel");
      }
      if (config.client.cache_capacity > 0) {
        return Status::InvalidArgument(
            "online re-tiering is incompatible with the client cache");
      }
    }
  }
  return Status::Ok();
}

SchemeParams ResolvedSchemeParams(const TestbedConfig& config) {
  SchemeParams params = config.params;
  if (params.schedule.active() && params.schedule.theta < 0.0) {
    params.schedule.theta = config.zipf_theta;
  }
  return params;
}

Result<std::shared_ptr<const Dataset>> BuildTestbedDataset(
    const TestbedConfig& config) {
  if (config.dataset != nullptr) return config.dataset;
  DatasetConfig dataset_config;
  dataset_config.num_records = config.num_records;
  dataset_config.key_width = static_cast<int>(config.geometry.key_bytes);
  dataset_config.num_attributes = config.num_attributes;
  dataset_config.attribute_width = config.attribute_width;
  dataset_config.seed = Mix64(config.seed ^ 0xda7a5e7dULL);
  Result<Dataset> dataset_result = Dataset::Generate(dataset_config);
  if (!dataset_result.ok()) return dataset_result.status();
  return std::make_shared<const Dataset>(
      std::move(dataset_result).value());
}

Result<SimulationResult> RunTestbed(const TestbedConfig& config) {
  return ParallelExperiment({.jobs = 1}).Run(config);
}

ReplicationResult RunReplication(const BroadcastServer& server,
                                 const Dataset& dataset,
                                 const TestbedConfig& config,
                                 std::uint64_t replication_seed,
                                 const ZipfDistribution* shared_zipf) {
  // One round of the testbed's simulation stage (paper Section 3): the
  // replication draws its own request stream from `replication_seed` and
  // runs `requests_per_round` arrivals, each to its completion.
  Rng master(replication_seed);
  RequestGenerator generator(
      &dataset, config.data_availability,
      config.mean_request_interval_bytes, master.Split(), config.zipf_theta,
      shared_zipf,
      SessionWorkload{config.client.session_length,
                      config.client.repeat_probability});
  Rng error_rng = master.Split();
  ResultHandler results;

  // Per-replication scheduling state: each replication drives its own
  // online re-tiering loop from its own request stream, so the result
  // stays a pure function of (server, dataset, config, replication_seed)
  // and --jobs bit-identity holds.
  ScheduleRuntime schedule;
  schedule.Start(server, dataset, config);

  // Per-replication dynamic state: each replication replays its own
  // slice of mutation history seeded from the replication seed, so the
  // result stays a pure function of (server, dataset, config,
  // replication_seed) and --jobs bit-identity holds. Start cannot fail
  // here: the coordinator validated the config before building the
  // server.
  DynamicRuntime dynamic;
  const Status dynamic_status = StartDynamicRuntime(
      &dynamic, config,
      std::shared_ptr<const Dataset>(std::shared_ptr<const void>(),
                                     &dataset),
      server, replication_seed);
  (void)dynamic_status;

  // Per-replication client state: the session cache is rebuilt and
  // re-warmed from this replication's own stream, so the result stays a
  // pure function of (server, dataset, config, replication_seed) and
  // --jobs bit-identity holds.
  ServerFetcher fetcher{&schedule, &config, &error_rng, &dynamic};
  DynamicVersions versions{};
  versions.runtime = &dynamic;
  std::optional<SessionClient> session_storage;
  if (config.client.cache_capacity > 0) {
    SessionClientParams session_params = BuildSessionParams(config, server);
    if (dynamic.active()) session_params.versions = &versions;
    session_storage.emplace(
        &dataset, session_params,
        SessionFrequencies(server, dataset.size(),
                           config.client.cache_policy),
        &fetcher);
    WarmSessionCache(&*session_storage, &generator,
                     config.client.warmup_queries);
  }
  SessionClient* session = session_storage ? &*session_storage : nullptr;

  // Every state change — the generator's draws, the session cache, the
  // dynamic overlay, online re-tiering — happens at arrival, in arrival
  // order, so the round is a loop over arrivals. Only the fold into
  // ResultHandler belongs to the completion events, and its Welford sums
  // depend on order: sorting by (completion time, arrival index) folds in
  // the order a time-ordered queue with FIFO ties would pop them.
  struct Outcome {
    AccessResult access;
    bool on_air;
  };
  const auto requests =
      static_cast<std::size_t>(std::max(config.requests_per_round, 0));
  std::vector<Outcome> outcomes;
  outcomes.reserve(requests);
  std::vector<std::pair<Bytes, std::size_t>> completions;
  completions.reserve(requests);
  Bytes now = 0;
  for (std::size_t arrival = 0; arrival < requests; ++arrival) {
    now += generator.NextInterArrival();
    const Query query = generator.NextQuery();
    const AccessResult access = session != nullptr
                                    ? session->Access(query.key, now)
                                    : fetcher.Fetch(query.key, now);
    if (schedule.observing() && query.on_air) schedule.Observe(query.record);
    // Liveness-adjusted outcome expectation, evaluated at the same
    // tune-in instant the access ran: a record the MutationLog has
    // deleted is legitimately not found.
    const bool on_air =
        dynamic.active()
            ? dynamic.ExpectedOnAir(query.on_air, query.key, now)
            : query.on_air;
    outcomes.push_back({access, on_air});
    completions.emplace_back(now + access.access_time, arrival);
  }
  std::sort(completions.begin(), completions.end());
  for (const auto& [time, arrival] : completions) {
    results.Add(outcomes[arrival].access, outcomes[arrival].on_air);
  }
  const Bytes end_time = completions.empty() ? now : completions.back().first;

  ReplicationResult replication;
  replication.access = results.access();
  replication.tuning = results.tuning();
  replication.probes = results.probes();
  replication.access_histogram = results.access_histogram();
  replication.tuning_histogram = results.tuning_histogram();
  replication.requests = results.requests();
  replication.found = results.found();
  replication.abandoned = results.abandoned();
  replication.false_drops = results.false_drops();
  replication.anomalies = results.anomalies();
  replication.outcome_mismatches = results.outcome_mismatches();
  replication.metrics = SnapshotRunMetrics(end_time, server, results,
                                           session, schedule, dynamic);
  const ResultHandler::RoundStats round = results.CloseRound();
  replication.round_access_mean = round.access_mean;
  replication.round_tuning_mean = round.tuning_mean;
  return replication;
}

}  // namespace airindex
