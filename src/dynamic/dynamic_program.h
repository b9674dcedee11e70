// Layer: 4 (dynamic) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_DYNAMIC_DYNAMIC_PROGRAM_H_
#define AIRINDEX_DYNAMIC_DYNAMIC_PROGRAM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "broadcast/geometry.h"
#include "common/result.h"
#include "data/dataset.h"
#include "dynamic/mutation_log.h"
#include "schemes/access.h"
#include "schemes/scheme.h"

namespace airindex {

/// dynamic.* accounting of one run (docs/METRICS.md). stale_reads is
/// not here: it is the session client's invalidation count, attached at
/// snapshot time by the simulator.
struct DynamicCounters {
  /// Broadcast epochs processed; every epoch is either patched in place
  /// or compacted (full rebuild), so patched + rebuilt == cycles.
  std::int64_t cycles = 0;
  std::int64_t patched_cycles = 0;
  std::int64_t rebuilt_cycles = 0;
  /// Mutation stream totals; inserts + deletes + updates == mutations.
  std::int64_t mutations = 0;
  std::int64_t inserts = 0;
  std::int64_t deletes = 0;
  std::int64_t updates = 0;
  /// B+-family slot recycling: a delete of an in-base record frees its
  /// slot (push), a later re-insert reclaims it (pop). pops <= pushes,
  /// pushes <= deletes, pops <= inserts.
  std::int64_t freelist_pushes = 0;
  std::int64_t freelist_pops = 0;
  /// Mutations that land in the appended delta segment instead of being
  /// patched into a base slot.
  std::int64_t delta_appends = 0;
  /// Query-side accounting: delta_reads <= dirty_queries <= queries,
  /// and delta_read_bytes == 0 iff delta_reads == 0.
  std::int64_t queries = 0;
  std::int64_t dirty_queries = 0;
  std::int64_t delta_reads = 0;
  std::int64_t delta_read_bytes = 0;
};

/// Mutable-dataset overlay over one immutable single-channel broadcast
/// program.
///
/// The runtime never touches the shared base program (replications walk
/// it concurrently). Instead it tracks, per universe record, whether
/// the record occupies a base slot (`in_base`), the version snapshotted
/// into the live program (`base_version`), and — for the B+ family —
/// whether its slot sits on the free list. Mutations arrive from a
/// MutationLog one epoch (one initial broadcast cycle) at a time,
/// lazily, as the simulation clock advances, and are counted one op at
/// a time as the log draws them.
///
/// Maintenance discipline per scheme family:
///  - Patchable (kFlat, kOneM, kDistributed — the B+/key-ordered
///    family): in-base updates are patched into their slot, in-base
///    deletes become in-place tombstones whose slot goes on a free list,
///    re-inserts pop the free list. Only records born after the last
///    compaction live in the appended delta segment.
///  - Delta (hashing / signature / disks family, whose layouts are
///    content-addressed and cannot be patched in place): every mutation
///    appends to the delta segment.
///
/// A query whose answer lives in the delta segment finishes its base
/// walk, waits for the end of the current cycle (the delta segment
/// rides at the cycle boundary), and reads one delta-directory bucket
/// plus — when the record is live — one data bucket. Both extra buckets
/// are charged to tuning as well as access: the client cannot doze
/// through an unindexed segment. The delta segment is modeled as a side
/// band: clean base walks do not dilate. Every `compact_every` epochs
/// the runtime materializes the live dataset its kind reads and
/// rebuilds the program from scratch, resetting the overlay.
class DynamicRuntime {
 public:
  /// Builds a ready-to-query program for the compaction path; defaults
  /// to BuildScheme. Tests inject a ProgramCache-backed builder here to
  /// pin cache correctness under mutation (the dynamic layer itself
  /// must not depend on core).
  using SchemeBuilder =
      std::function<Result<std::unique_ptr<BroadcastScheme>>(
          SchemeKind kind, std::shared_ptr<const Dataset> dataset,
          const BucketGeometry& geometry, const SchemeParams& params)>;

  struct Params {
    SchemeKind kind = SchemeKind::kFlat;
    /// The full record universe (the dataset the base program was built
    /// from); queries and mutations are resolved against its key space.
    std::shared_ptr<const Dataset> universe;
    BucketGeometry geometry;
    SchemeParams scheme_params;
    /// Per-record mutations per epoch (--update-rate); <= 0 keeps the
    /// runtime inactive.
    double update_rate = 0.0;
    /// Zipf skew of mutation targets (--update-zipf); 0 = uniform.
    double update_zipf = 0.0;
    /// Full rebuild every this many epochs (--compact-every); 0 never
    /// compacts.
    int compact_every = 0;
    /// Mutation-stream seed (per replication: derived from the
    /// replication seed, which preserves --jobs bit-identity).
    std::uint64_t seed = 0;
    /// Epoch length in bytes — the *initial* base cycle; fixed for the
    /// run even when compaction changes the live cycle length.
    Bytes epoch_bytes = 0;
    /// The shared immutable base program (not owned; must outlive the
    /// runtime).
    const BroadcastScheme* base_scheme = nullptr;
    /// Compaction build hook; null = BuildScheme.
    SchemeBuilder builder;
  };

  /// The B+/key-ordered family that supports in-place node patching.
  static bool PatchableScheme(SchemeKind kind);

  DynamicRuntime() = default;

  /// Activates the runtime. Requires a universe, a base scheme and a
  /// positive epoch length when update_rate > 0.
  Status Start(Params params);

  bool active() const { return active_; }

  /// Processes every epoch that has fully elapsed by absolute time
  /// `now`. Callers advance time monotonically (a replication visits
  /// its arrivals in time order).
  void AdvanceTo(Bytes now);

  /// The client access protocol against the live (patched) program:
  /// base walk plus the delta-segment read when the answer has diverged
  /// from the base snapshot. Advances the mutation clock to `tune_in`.
  AccessResult Access(std::string_view key, Bytes tune_in);

  /// Whether a query for `key` issued at `now` should find its record:
  /// the generator's on-air draw gated by current liveness.
  bool ExpectedOnAir(bool generated_on_air, std::string_view key, Bytes now);

  /// Current server version of a universe record (DynamicVersionSource
  /// for the session client's invalidation layer). Advances the clock.
  std::int64_t VersionAt(int record_index, Bytes now);

  /// The dataset of currently-live records, in key order, that a
  /// from-scratch build of this runtime's kind reads. For a kind that
  /// ReadsAttributes, each record carries its attributes rewritten per
  /// version; for a key-only kind, its key and id and no attributes,
  /// which builds the same program.
  Result<std::shared_ptr<const Dataset>> MaterializeDataset() const;

  /// Forces a compaction now (test hook; the periodic policy uses the
  /// same path). Returns false when the rebuild failed, in which case
  /// the previous live program stays in place.
  bool ForceCompact();

  const DynamicCounters& counters() const { return counters_; }
  /// Rebuild attempts that failed (the epoch then counts as patched).
  std::int64_t compaction_failures() const { return compaction_failures_; }
  /// The program queries currently walk (base until the first
  /// compaction).
  const BroadcastScheme& live_scheme() const { return *live_scheme_; }
  const MutationLog& log() const { return *log_; }

 private:
  /// Counts one mutation as the log draws it: patched into its base
  /// slot or appended to the delta segment.
  void ApplyOp(const MutationOp& op);

  bool active_ = false;
  bool patchable_ = false;
  SchemeKind kind_ = SchemeKind::kFlat;
  std::shared_ptr<const Dataset> universe_;
  BucketGeometry geometry_;
  SchemeParams scheme_params_;
  int compact_every_ = 0;
  Bytes epoch_bytes_ = 0;
  SchemeBuilder builder_;

  const BroadcastScheme* live_scheme_ = nullptr;
  /// Owned replacements after a compaction; live_scheme_ aliases
  /// owned_scheme_ once set.
  std::unique_ptr<BroadcastScheme> owned_scheme_;
  std::shared_ptr<const Dataset> owned_dataset_;

  std::unique_ptr<MutationLog> log_;
  std::int64_t epochs_done_ = 0;

  /// Per-universe-record overlay state relative to the live program.
  std::vector<std::uint8_t> in_base_;
  std::vector<std::int64_t> base_version_;
  std::vector<std::uint8_t> slot_free_;

  DynamicCounters counters_;
  std::int64_t compaction_failures_ = 0;
};

}  // namespace airindex

#endif  // AIRINDEX_DYNAMIC_DYNAMIC_PROGRAM_H_
