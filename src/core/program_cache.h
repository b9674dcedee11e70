// Layer: 5 (core) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_CORE_PROGRAM_CACHE_H_
#define AIRINDEX_CORE_PROGRAM_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "broadcast/arena.h"
#include "core/metrics.h"
#include "data/dataset.h"
#include "schemes/scheme.h"

namespace airindex {

/// Stable fingerprint of a dataset's *content* (keys and attribute
/// values, not just the generator config), so externally supplied
/// datasets key correctly too; equal datasets — however constructed —
/// get equal fingerprints. The record stream (the record count, then per
/// record the key's length and bytes, the attribute count, and each
/// attribute's length and bytes) is folded a word at a time through
/// HashStep (broadcast/arena.h) and finished with Mix64. The length
/// prefixes keep fields from aliasing across their boundaries.
std::uint64_t DatasetFingerprint(const Dataset& dataset);

/// Stable fingerprint of everything besides the dataset that shapes a
/// single-channel program: scheme kind, bucket geometry, scheme params
/// and the arena format version (so a format bump invalidates every
/// cached program at the key level, not just at load time). Folded
/// through the same HashStep as DatasetFingerprint.
std::uint64_t ProgramParamsFingerprint(SchemeKind kind,
                                       const BucketGeometry& geometry,
                                       const SchemeParams& params);

/// Build-once store of flattened broadcast programs.
///
/// A program is a pure function of (scheme kind, dataset content, bucket
/// geometry, scheme params); this cache keys on exactly those
/// fingerprints and hands out schemes restored from one shared read-only
/// ProgramArena instead of re-running channel construction per sweep
/// cell / replication / bench process:
///
///  - in-memory: arenas live in this instance for the process lifetime,
///    so repeated cells of one sweep flatten once;
///  - on disk (when constructed with a directory): arenas are written as
///    versioned, checksummed snapshots (broadcast/snapshot.h) and loaded
///    back byte-identically by later runs — the CI smoke benches warm
///    this directory via actions/cache. The file name carries the format
///    version, and a file of another format (or one that fails its
///    checksum) is a miss that rebuilds and rewrites it.
///
/// The dataset half of the key is DatasetFingerprint, which hashes every
/// attribute even for the kinds whose programs read keys alone
/// (ReadsAttributes); perfbench's airbench names its traced snapshots
/// with the same function, so a key on the builder's own input would
/// change the benchmark along with the cache.
///
/// Restored schemes are observably identical to freshly built ones
/// (schemes/scheme.h, RestoreSchemeFromArena), so caching can never
/// change simulation results — only setup wall time. For the same reason
/// the cache's own telemetry is kept OUT of simulation metrics and bench
/// reports: warm and cold runs must produce byte-identical reports.
class ProgramCache {
 public:
  /// `dir` empty → memory-only (no snapshots written or read). The
  /// directory must already exist; a failed write is counted and
  /// tolerated (the run proceeds with the built program).
  explicit ProgramCache(std::string dir = "");

  ProgramCache(const ProgramCache&) = delete;
  ProgramCache& operator=(const ProgramCache&) = delete;

  /// The cached-or-built scheme for this configuration. Thread-safe; at
  /// most one caller builds any given program. A dataset instance is
  /// fingerprinted once per cache, however many kinds and cells share it.
  /// Multichannel programs are not cacheable (a snapshot holds one
  /// single-channel program, not several channels plus their partitions)
  /// — callers bypass the cache for them (core/broadcast_server.cc).
  Result<std::unique_ptr<BroadcastScheme>> GetOrBuild(
      SchemeKind kind, std::shared_ptr<const Dataset> dataset,
      const BucketGeometry& geometry, const SchemeParams& params);

  /// Snapshot file this configuration maps to (empty when memory-only).
  std::string SnapshotPath(SchemeKind kind, std::uint64_t dataset_fingerprint,
                           std::uint64_t params_fingerprint) const;

  /// Cache telemetry: program.builds, program.build_micros,
  /// program.memory_hits, program.snapshot_hits, program.snapshot_misses,
  /// program.snapshot_writes, program.snapshot_write_failures. Documented
  /// in docs/METRICS.md; never merged into simulation metrics.
  MetricsRegistry MetricsSnapshot() const;

  const std::string& dir() const { return dir_; }

 private:
  struct Key {
    int kind;
    std::uint64_t dataset_fingerprint;
    std::uint64_t params_fingerprint;
    bool operator==(const Key& other) const = default;
  };

  /// DatasetFingerprint of `dataset`, memoized per instance. Requires
  /// mu_.
  std::uint64_t FingerprintOf(const std::shared_ptr<const Dataset>& dataset);

  std::string dir_;
  mutable std::mutex mu_;
  std::vector<std::pair<Key, std::shared_ptr<const ProgramArena>>> memory_;
  /// Fingerprints by dataset owner. A weak_ptr, not an address: it keeps
  /// the control block alive, so a freed dataset's successor can never
  /// match its entry; expired entries are pruned on lookup.
  std::vector<std::pair<std::weak_ptr<const Dataset>, std::uint64_t>>
      fingerprints_;
  MetricsRegistry metrics_;
};

}  // namespace airindex

#endif  // AIRINDEX_CORE_PROGRAM_CACHE_H_
