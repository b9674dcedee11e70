// Layer: 4 (client) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_CLIENT_SESSION_CLIENT_H_
#define AIRINDEX_CLIENT_SESSION_CLIENT_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "client/client_cache.h"
#include "common/types.h"
#include "data/dataset.h"
#include "schemes/access.h"

namespace airindex {

/// How the session client resolves a cache miss over the air. The core
/// layer implements this on top of BroadcastServer (including the
/// unreliable-channel and deadline wrappers), which keeps the client
/// layer independent of the testbed machinery above it.
class RecordFetcher {
 public:
  virtual ~RecordFetcher() = default;

  /// Runs the wrapped scheme's access protocol for `key`, tuning in at
  /// absolute byte time `tune_in`.
  virtual AccessResult Fetch(std::string_view key, Bytes tune_in) = 0;
};

/// Source of real server-side record versions (the dynamic-dataset
/// layer's MutationLog, adapted by the core layer). When wired into
/// SessionClientParams it replaces the synthetic version schedule, so
/// invalidations track actual mutations instead of a modeled rate.
class DynamicVersionSource {
 public:
  virtual ~DynamicVersionSource() = default;

  /// Version of record `record_index` at absolute byte time `now`.
  /// Implementations may advance internal mutation state; callers ask
  /// with monotonically nondecreasing `now`.
  virtual std::int64_t Version(int record_index, Bytes now) = 0;
};

/// Resolved knobs of one SessionClient instance (derived by the core
/// layer from ClientSessionConfig and the built channel shape).
struct SessionClientParams {
  int cache_capacity = 0;
  CachePolicy cache_policy = CachePolicy::kLru;
  /// Bytes between consecutive versions of one record, in broadcast
  /// bytes: cycle_bytes / update_rate. 0 freezes the data (no
  /// versioning, no validation reads).
  Bytes update_period = 0;
  /// Per-record phase seed of the deterministic update schedule. Derived
  /// from the config's master seed, not the replication seed: the server
  /// mutates data on one global schedule that every replication observes.
  std::uint64_t update_seed = 0;
  /// Bytes of the index/signature segment a client reads to validate a
  /// cached entry (the signature bucket doubling as a validity filter).
  /// Charged to tuning time only: the client is already listening to
  /// that segment, so no extra broadcast bytes elapse.
  Bytes validation_bytes = 0;
  /// Real version source (dynamic-dataset layer). Non-null overrides
  /// the synthetic schedule above; must outlive the client. Per
  /// replication, like the client itself, so --jobs bit-identity holds.
  DynamicVersionSource* versions = nullptr;
};

/// Stateful client: a record cache in front of a broadcast scheme.
///
/// A query first probes the cache. A fresh hit costs zero access and
/// zero tuning bytes (plus the validation read when server updates are
/// on). A stale hit is invalidated and refetched over the air; a miss
/// delegates to the wrapped scheme via RecordFetcher and inserts the
/// fetched record. All state is per-instance, so one SessionClient per
/// replication preserves --jobs bit-identity.
///
/// Versioning model: record i's version at byte time t is
/// (t + phase_i) / update_period with phase_i = Mix64(seed ^ i) %
/// update_period — a deterministic schedule equivalent to every record
/// being updated once per period at a record-specific phase.
class SessionClient {
 public:
  /// `dataset` and `fetcher` must outlive the client.
  /// `broadcast_frequencies` feeds the kPix score (see
  /// BroadcastFrequencies below); pass {} for non-PIX policies.
  SessionClient(const Dataset* dataset, const SessionClientParams& params,
                std::vector<double> broadcast_frequencies,
                RecordFetcher* fetcher);

  /// Serves one measured query at absolute byte time `tune_in`.
  AccessResult Access(std::string_view key, Bytes tune_in);

  /// Warmup fast path: records the access and caches `key` as of byte
  /// time `now` without running the scheme walk, so replications reach
  /// the cache's steady state before measurement starts. Counted in
  /// warm_inserts(), not in the query counters.
  void WarmInsert(std::string_view key, Bytes now);

  /// Version of record `record_index` the server broadcasts at `now`.
  std::int64_t ServerVersion(int record_index, Bytes now) const;

  /// Measured-query counters. hits() counts fresh cache hits only;
  /// invalidations() counts stale hits (which also count as misses), so
  /// hits() + misses() == session_queries() always holds.
  std::int64_t session_queries() const { return session_queries_; }
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  /// Broadcast bytes charged to fresh cache hits — zero by construction;
  /// exported so the report-level invariant is checkable end to end.
  std::int64_t hit_bytes() const { return hit_bytes_; }
  /// Validation reads charged to tuning time (stale and fresh hits).
  std::int64_t validation_bytes() const { return validation_bytes_; }
  std::int64_t invalidations() const { return invalidations_; }
  std::int64_t evictions() const { return cache_.evictions(); }
  std::int64_t warm_inserts() const { return warm_inserts_; }

  const ClientCache& cache() const { return cache_; }

 private:
  const Dataset* dataset_;
  SessionClientParams params_;
  RecordFetcher* fetcher_;
  ClientCache cache_;

  std::int64_t session_queries_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t hit_bytes_ = 0;
  std::int64_t validation_bytes_ = 0;
  std::int64_t invalidations_ = 0;
  std::int64_t warm_inserts_ = 0;
};

/// Relative broadcast frequency of every record over a channel set: per
/// channel, each kData bucket carrying record i adds 1/cycle_bytes to
/// frequencies[i] (appearances per broadcast byte, so channels of
/// different cycle lengths compare correctly). This is the PIX
/// denominator; for single-frequency schemes it is uniform and kPix
/// degenerates to kLfu.
std::vector<double> BroadcastFrequencies(
    const std::vector<const ArenaChannelView*>& channels, int num_records);

}  // namespace airindex

#endif  // AIRINDEX_CLIENT_SESSION_CLIENT_H_
