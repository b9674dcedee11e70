// Layer: 4 (client) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_CLIENT_FLEET_H_
#define AIRINDEX_CLIENT_FLEET_H_

#include <cstdint>
#include <vector>

#include "client/air_walk.h"
#include "common/types.h"
#include "data/dataset.h"
#include "des/zipf.h"
#include "schemes/access.h"
#include "stats/histogram.h"

namespace airindex {

/// Residency bits a fleet client carries: its cache is one mask over the
/// 64 hottest record ranks.
inline constexpr int kFleetCacheBits = 64;

/// Workload of one simulated client population ("fleet").
///
/// A fleet is N independent clients tuned to ONE shared broadcast cycle.
/// Each client is the single-client testbed's client: a RequestStream
/// over one shared RequestModel (client/request_stream.h) and the
/// over-the-air walk (client/air_walk.h), seeded per client with
/// ReplicationSeed(seed, client_id) and split in replication order —
/// the request stream first, then the error stream. So client `i` draws
/// and walks exactly what replication `i` of the single-client engine
/// does, and a fleet of size 1 reproduces RunReplication's request-level
/// results (tests/fleet_test.cc and invariants_test's I10 pin this).
struct FleetParams {
  /// Clients in the whole fleet (across every shard).
  std::int64_t fleet_size = 1;
  /// Queries each client issues before going silent.
  int queries_per_client = 8;
  /// Cache residency bits per client: capacity over the 64 hottest
  /// record ranks (record index == Zipf rank). 0 disables the cache;
  /// values above 64 are clamped. With record popularity Zipf-ranked,
  /// the steady state matches the analytical TopScoreResidency over the
  /// top-64 ranks.
  int cache_capacity = 0;
  /// Session workload (SessionWorkload in client/request_stream.h):
  /// length 1 or repeat probability 0 disables repeats.
  int session_length = 1;
  double repeat_probability = 0.0;
  /// Probability a requested key is on air.
  double data_availability = 1.0;
  /// Mean of the exponential inter-arrival distribution, in bytes.
  double mean_request_interval_bytes = 50000.0;
  /// Request popularity skew over record ranks; 0 = uniform.
  double zipf_theta = 0.0;
  /// Master seed; client i draws from ReplicationSeed(seed, i).
  std::uint64_t seed = 42;
  /// Client impatience; 0 = patient clients.
  DeadlinePolicy deadline;
  /// Unreliable channel; rate 0 = lossless.
  ErrorModel error_model;
};

/// Commutative statistics of one fleet shard.
///
/// Deliberately integer-only (int64 sums plus mergeable integer
/// histograms, never floating-point accumulators): integer addition is
/// associative, so merging shard results in shard order yields the same
/// totals for every shard partition and every --jobs value. Means are
/// derived once, after the final merge.
struct FleetShardResult {
  // --- client-visible totals (partition-invariant) ---------------------
  std::int64_t clients = 0;
  std::int64_t queries = 0;
  std::int64_t found = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t access_bytes = 0;
  std::int64_t tuning_bytes = 0;
  std::int64_t index_probes = 0;
  /// Buckets fully read, summed over queries (AccessResult::probes).
  std::int64_t bucket_probes = 0;
  std::int64_t channel_hops = 0;
  std::int64_t switch_bytes = 0;
  /// Tuning bytes attributed per channel (AddTuningByChannel, the split
  /// ResultHandler uses). Sized by the highest channel touched.
  std::vector<std::int64_t> tuning_bytes_per_channel;
  Histogram access_histogram;
  Histogram tuning_histogram;
  /// Fresh cache hits per client (fleet-wide hit distribution); only
  /// populated when the cache is on.
  Histogram hits_per_client;
  /// Client wake-ups serviced (one per arrival; partition-invariant —
  /// a client's wake schedule depends only on its own stream).
  std::int64_t wake_events = 0;

  // --- engine telemetry (varies with the shard partition) --------------
  /// Calendar slots advanced by this shard's bucket-pass loop.
  std::int64_t slots_scanned = 0;
  /// Most clients woken by one slot pass.
  std::int64_t wake_batch_peak = 0;

  /// Folds `other` into this result (commutative in the client-visible
  /// totals; wake_batch_peak takes the max).
  void Merge(const FleetShardResult& other);
};

/// Advances clients [first_client, last_client) of the fleet through all
/// of `params.queries_per_client` queries against `scheme`'s broadcast
/// cycle, in batched per-slot passes over a calendar wheel (one slot is
/// one average bucket of the cycle): cost scales with slots-touched x
/// waking-clients, not clients x simulator events.
///
/// Per-client state lives in struct-of-arrays vectors (request stream,
/// next wake byte-time, progress, cache residency bits, hit count —
/// ~64 bytes per client — plus an error stream on a lossy channel).
/// `shared_zipf`, when non-null, must match (dataset.size(),
/// params.zipf_theta); otherwise a local table is built when
/// zipf_theta > 0. Sampling from the shared table is identical to a
/// locally built one.
///
/// The result depends only on (scheme, dataset, params, client range) —
/// never on which thread runs the shard or how ranges are partitioned —
/// which is what makes fleet runs bit-identical for any shard count and
/// any --jobs value.
FleetShardResult RunFleetShard(const BroadcastScheme& scheme,
                               const Dataset& dataset,
                               const FleetParams& params,
                               std::int64_t first_client,
                               std::int64_t last_client,
                               const ZipfDistribution* shared_zipf = nullptr);

}  // namespace airindex

#endif  // AIRINDEX_CLIENT_FLEET_H_
