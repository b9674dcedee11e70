// Layer: 4 (schemes) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_SCHEMES_SCHEME_H_
#define AIRINDEX_SCHEMES_SCHEME_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "broadcast/arena.h"
#include "broadcast/geometry.h"
#include "broadcast/schedule.h"
#include "data/dataset.h"
#include "schemes/access.h"
#include "schemes/signature.h"

namespace airindex {

/// The data access methods the testbed can evaluate.
enum class SchemeKind {
  kFlat,
  kOneM,
  kDistributed,
  kHashing,
  kSignature,
  kIntegratedSignature,
  kMultiLevelSignature,
  kBroadcastDisks,
  kHybrid,
};

/// Short display name ("flat broadcast", "(1,m) indexing", ...).
const char* SchemeKindToString(SchemeKind kind);

/// Whether a program of `kind` depends on record attributes: the
/// signature family and hybrid superimpose them into signature words,
/// and flat broadcast's Filter scans them. The other kinds build and
/// walk on keys alone, so over the same keys with any attributes, or
/// none, they build the same program.
bool ReadsAttributes(SchemeKind kind);

/// Layout parameters of a multi-disk broadcast (Acharya, Alonso, Franklin
/// & Zdonik, SIGMOD'95) — a scheduling extension beyond the paper's flat
/// broadcast. kBroadcastDisks runs the scheduled program's scan family
/// (schemes/scheduled.h) over AssignmentFromFractions of these fields.
struct BroadcastDisksParams {
  /// Fraction of the (popularity-ordered) records on each disk, hottest
  /// first. Must sum to ~1. Default: a small hot disk, a warm disk, and
  /// a large cold disk.
  std::vector<double> disk_fractions = {0.10, 0.30, 0.60};
  /// Relative broadcast frequency of each disk (same length as
  /// disk_fractions, non-increasing). Every frequency must divide the
  /// first (hottest) one — the classic algorithm's chunking requirement.
  std::vector<int> disk_frequencies = {4, 2, 1};
};

/// Per-scheme tuning knobs; defaults reproduce the paper's setup
/// ("optimal" parameters where the paper says it used them).
struct SchemeParams {
  /// (1,m): index replication count; 0 = optimal m*.
  int one_m_m = 0;
  /// Distributed: replicated levels; -1 = access-optimal r.
  int distributed_r = -1;
  /// Hashing: Na = round(factor * Nr).
  double hashing_allocation_factor = 1.0;
  /// Signature family: bits set per attribute.
  int signature_bits_per_attribute = 8;
  /// Integrated/multi-level signature: records per signature group.
  int signature_group_size = 16;
  /// Broadcast disks: disk layout and relative frequencies.
  BroadcastDisksParams broadcast_disks;
  /// Hybrid index+signature: tree replication count (0 = sqrt rule).
  int hybrid_m = 0;
  /// Slot scheduler (broadcast/schedule.h). kFlat — the default — keeps
  /// every scheme's committed layout untouched; kSquareRoot/kOnline route
  /// the build through the skew-aware scheduled program
  /// (schemes/scheduled.h) with this scheme kind's index family.
  ScheduleParams schedule;
};

/// Builds a ready-to-query broadcast program for `kind` over `dataset`.
Result<std::unique_ptr<BroadcastScheme>> BuildScheme(
    SchemeKind kind, std::shared_ptr<const Dataset> dataset,
    const BucketGeometry& geometry, const SchemeParams& params = {});

/// The cacheable form of a built or restored single-channel scheme: the
/// arena its view is bound to, re-tagged (ProgramArena::Retag) with
/// `kind`, the two cache fingerprints and the scheme's resolved scalars
/// as its aux section — a copy and a header patch. `scheme` must be the
/// concrete scheme BuildScheme(kind, ...) produced — a kind mismatch is
/// an InvalidArgument, not UB.
Result<ProgramArena> FlattenSchemeProgram(SchemeKind kind,
                                          const BroadcastScheme& scheme,
                                          std::uint64_t dataset_fingerprint,
                                          std::uint64_t params_fingerprint);

/// Rebuilds a ready-to-query scheme from a flattened arena without
/// re-running the channel construction: the arena is bound as the
/// scheme's view (the returned scheme co-owns it) — nothing is rebuilt or
/// rewritten — and cheap deterministic auxiliaries (index trees,
/// signature generators, occurrence maps) are reconstructed from
/// `dataset`, `geometry`, `params` and the arena's aux scalars.
/// Observably identical to the freshly built scheme: every Access() walk
/// returns the same result, so simulation output stays bit-identical.
/// The dataset and the aux count are checked here, once; each scheme's
/// static Restore assumes a non-empty dataset. The arena may come from a
/// file, so the restored program must also pass ValidateProgramStructure,
/// every bucket a walk reads as a record must be a data bucket, and every
/// data bucket must carry a record of `dataset` (hashing's empty home
/// slots excepted): InvalidArgument otherwise.
Result<std::unique_ptr<BroadcastScheme>> RestoreSchemeFromArena(
    std::shared_ptr<const ProgramArena> arena,
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    const SchemeParams& params);

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_SCHEME_H_
