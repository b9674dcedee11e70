#include "schemes/scheme.h"

#include <utility>

#include "schemes/distributed.h"
#include "schemes/flat.h"
#include "schemes/hashing.h"
#include "schemes/hybrid.h"
#include "schemes/integrated_signature.h"
#include "schemes/multilevel_signature.h"
#include "schemes/one_m.h"
#include "schemes/scheduled.h"

namespace airindex {

const char* SchemeKindToString(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kFlat:
      return "flat broadcast";
    case SchemeKind::kOneM:
      return "(1,m) indexing";
    case SchemeKind::kDistributed:
      return "distributed indexing";
    case SchemeKind::kHashing:
      return "simple hashing";
    case SchemeKind::kSignature:
      return "signature indexing";
    case SchemeKind::kIntegratedSignature:
      return "integrated signature";
    case SchemeKind::kMultiLevelSignature:
      return "multi-level signature";
    case SchemeKind::kBroadcastDisks:
      return "broadcast disks";
    case SchemeKind::kHybrid:
      return "hybrid index+signature";
  }
  return "unknown";
}

bool ReadsAttributes(SchemeKind kind) {
  // No default: -Wswitch names a new kind here until it is classified.
  switch (kind) {
    case SchemeKind::kFlat:
    case SchemeKind::kSignature:
    case SchemeKind::kIntegratedSignature:
    case SchemeKind::kMultiLevelSignature:
    case SchemeKind::kHybrid:
      return true;
    case SchemeKind::kOneM:
    case SchemeKind::kDistributed:
    case SchemeKind::kHashing:
    case SchemeKind::kBroadcastDisks:
      return false;
  }
  return true;
}

namespace {

template <typename T>
Result<std::unique_ptr<BroadcastScheme>> Wrap(Result<T> built) {
  if (!built.ok()) return built.status();
  return std::unique_ptr<BroadcastScheme>(
      std::make_unique<T>(std::move(built).value()));
}

// The one rule for which programs lay out as a ScheduledBroadcast, shared
// by build and restore: every kind under an active scheduler, and
// broadcast disks always — their fraction assignment is a fixed schedule
// over the scan family.
bool ScheduledLayout(SchemeKind kind, const SchemeParams& params) {
  return params.schedule.active() || kind == SchemeKind::kBroadcastDisks;
}

// Broadcast disks under the flat scheduler: the scan family over the
// fraction assignment of params.broadcast_disks.
Result<ScheduledBroadcast> BuildBroadcastDisks(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    const SchemeParams& params) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument("broadcast disks need a non-empty dataset");
  }
  Result<DiskAssignment> assignment = AssignmentFromFractions(
      params.broadcast_disks.disk_fractions,
      params.broadcast_disks.disk_frequencies, dataset->size());
  if (!assignment.ok()) return assignment.status();
  return ScheduledBroadcast::BuildWithAssignment(
      SchemeKind::kBroadcastDisks, std::move(dataset), geometry, params,
      std::move(assignment).value());
}

SignatureParams SignatureParamsOf(const SchemeParams& params) {
  SignatureParams signature_params;
  signature_params.bits_per_attribute = params.signature_bits_per_attribute;
  return signature_params;
}

// What every walk trusts of a program read from outside the process: the
// pointer phases land on bucket starts (ValidateProgramStructure), every
// bucket is as large as a builder makes it (so the walks' clocks stay far
// from overflow), and a data bucket's record id indexes the dataset. The
// Restore of each scheme whose walk reads records accepts only layouts in
// which every bucket it reads as a record is a data bucket. Hashing's
// empty home slots are the one data bucket with no record; their hash
// value of -1 never matches a key's, so no walk reads their record.
Status CheckRestoredProgram(SchemeKind kind, const ArenaChannelView& view,
                            int num_records, const BucketGeometry& geometry,
                            const SchemeParams& params,
                            const std::vector<std::int64_t>& aux) {
  if (Status status = ValidateProgramStructure(view); !status.ok()) {
    return status;
  }
  // A scheduled layout's slots are all one data bucket wide. Otherwise a
  // bucket has its kind's geometry size, and a group signature (every
  // signature of integrated signature, the group level of multi-level
  // signature) the width of the group size in aux[0], which their
  // Restores have checked.
  const bool scheduled = ScheduledLayout(kind, params);
  const auto built_bytes = [&](const ArenaChannelView::BucketRef& bucket) {
    if (scheduled) return geometry.data_bucket_bytes();
    switch (bucket.kind()) {
      case BucketKind::kData:
        return geometry.data_bucket_bytes();
      case BucketKind::kIndex:
        return geometry.index_bucket_bytes();
      case BucketKind::kSignature:
        break;
    }
    const bool group =
        kind == SchemeKind::kIntegratedSignature ||
        (kind == SchemeKind::kMultiLevelSignature &&
         bucket.level() == MultiLevelSignatureIndexing::kGroupSignatureLevel);
    return group ? ResolveGroupSignatureBytes(geometry,
                                              SignatureParamsOf(params),
                                              static_cast<int>(aux[0]))
                 : geometry.signature_bucket_bytes();
  };
  for (std::size_t i = 0; i < view.num_buckets(); ++i) {
    const ArenaChannelView::BucketRef bucket = view.bucket(i);
    if (const Bytes built = built_bytes(bucket); bucket.size() != built) {
      return Status::InvalidArgument(
          "restore: " + std::string(BucketKindToString(bucket.kind())) +
          " bucket " + std::to_string(i) + " is " +
          std::to_string(bucket.size()) + " bytes, not the " +
          std::to_string(built) + " its builder writes");
    }
    if (bucket.kind() != BucketKind::kData) continue;
    const std::int64_t record = bucket.record_id();
    const bool empty_hash_slot = kind == SchemeKind::kHashing &&
                                 record == -1 && bucket.hash_value() == -1;
    if ((record < 0 || record >= num_records) && !empty_hash_slot) {
      return Status::InvalidArgument(
          "restore: data bucket " + std::to_string(i) + " carries record " +
          std::to_string(record) + " outside the dataset's " +
          std::to_string(num_records) + " records");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<BroadcastScheme>> BuildScheme(
    SchemeKind kind, std::shared_ptr<const Dataset> dataset,
    const BucketGeometry& geometry, const SchemeParams& params) {
  const SignatureParams signature_params = SignatureParamsOf(params);
  Result<std::unique_ptr<BroadcastScheme>> built =
      Status::InvalidArgument("unknown scheme kind");
  if (ScheduledLayout(kind, params)) {
    // An active scheduler reroutes every kind through the skew-aware
    // scheduled program, which reuses the kind's index family over the
    // square-root-rule slot schedule; otherwise this is broadcast disks.
    return Wrap(params.schedule.active()
                    ? ScheduledBroadcast::Build(kind, std::move(dataset),
                                                geometry, params)
                    : BuildBroadcastDisks(std::move(dataset), geometry,
                                          params));
  }
  switch (kind) {
    case SchemeKind::kFlat:
      built = Wrap(FlatBroadcast::Build(std::move(dataset), geometry));
      break;
    case SchemeKind::kOneM:
      built = Wrap(
          OneMIndexing::Build(std::move(dataset), geometry, params.one_m_m));
      break;
    case SchemeKind::kDistributed:
      built = Wrap(DistributedIndexing::Build(std::move(dataset), geometry,
                                              params.distributed_r));
      break;
    case SchemeKind::kHashing:
      built = Wrap(SimpleHashing::Build(std::move(dataset), geometry,
                                        params.hashing_allocation_factor));
      break;
    case SchemeKind::kSignature:
      built = Wrap(SignatureIndexing::Build(std::move(dataset), geometry,
                                            signature_params));
      break;
    case SchemeKind::kIntegratedSignature:
      built = Wrap(IntegratedSignatureIndexing::Build(
          std::move(dataset), geometry, signature_params,
          params.signature_group_size));
      break;
    case SchemeKind::kMultiLevelSignature:
      built = Wrap(MultiLevelSignatureIndexing::Build(
          std::move(dataset), geometry, signature_params,
          params.signature_group_size));
      break;
    case SchemeKind::kBroadcastDisks:
      break;  // always a scheduled layout, built above
    case SchemeKind::kHybrid:
      built = Wrap(HybridIndexing::Build(std::move(dataset), geometry,
                                         signature_params,
                                         params.signature_group_size,
                                         params.hybrid_m));
      break;
  }
  return built;
}

Result<ProgramArena> FlattenSchemeProgram(SchemeKind kind,
                                          const BroadcastScheme& scheme,
                                          std::uint64_t dataset_fingerprint,
                                          std::uint64_t params_fingerprint) {
  // A scheduled program flattens its resolved assignment instead of the
  // base kind's scalars; kAuxTag keeps the two aux layouts unmistakable.
  if (const auto* scheduled = dynamic_cast<const ScheduledBroadcast*>(&scheme)) {
    const std::vector<int>& order = scheduled->assignment().record_order;
    for (std::size_t p = 0; p < order.size(); ++p) {
      if (order[p] != static_cast<int>(p)) {
        return Status::InvalidArgument(
            "flatten: online-evolved scheduled programs are not cacheable");
      }
    }
    return scheme.view().arena().Retag(static_cast<int>(kind),
                                       dataset_fingerprint, params_fingerprint,
                                       scheduled->FlattenAux());
  }
  // Aux layout per kind (see RestoreSchemeFromArena, which consumes it):
  // the scheme's *resolved* scalars — values Build may have derived from
  // "auto" params (m* rules, optimal r, rounded slot counts) that the
  // restore path must not re-derive differently.
  std::vector<std::int64_t> aux;
  switch (kind) {
    case SchemeKind::kFlat:
    case SchemeKind::kSignature:
      break;  // fully reconstructible from dataset + params + program
    case SchemeKind::kBroadcastDisks:
      break;  // a scheduled program, flattened above
    case SchemeKind::kOneM: {
      const auto* one_m = dynamic_cast<const OneMIndexing*>(&scheme);
      if (one_m == nullptr) break;
      aux = {one_m->m()};
      break;
    }
    case SchemeKind::kDistributed: {
      const auto* distributed =
          dynamic_cast<const DistributedIndexing*>(&scheme);
      if (distributed == nullptr) break;
      aux = {distributed->replicated_levels(), distributed->num_segments()};
      break;
    }
    case SchemeKind::kHashing: {
      const auto* hashing = dynamic_cast<const SimpleHashing*>(&scheme);
      if (hashing == nullptr) break;
      aux = {hashing->allocated()};
      break;
    }
    case SchemeKind::kIntegratedSignature: {
      const auto* integrated =
          dynamic_cast<const IntegratedSignatureIndexing*>(&scheme);
      if (integrated == nullptr) break;
      aux = {integrated->group_size()};
      break;
    }
    case SchemeKind::kMultiLevelSignature: {
      const auto* multilevel =
          dynamic_cast<const MultiLevelSignatureIndexing*>(&scheme);
      if (multilevel == nullptr) break;
      aux = {multilevel->group_size()};
      break;
    }
    case SchemeKind::kHybrid: {
      const auto* hybrid = dynamic_cast<const HybridIndexing*>(&scheme);
      if (hybrid == nullptr) break;
      aux = {hybrid->group_size(), hybrid->m()};
      break;
    }
  }
  // Kinds with scalars must have matched their concrete type above.
  const bool needs_aux =
      kind != SchemeKind::kFlat && kind != SchemeKind::kSignature;
  if (needs_aux && aux.empty()) {
    return Status::InvalidArgument(
        std::string("flatten: scheme is not a ") + SchemeKindToString(kind));
  }
  return scheme.view().arena().Retag(static_cast<int>(kind),
                                     dataset_fingerprint, params_fingerprint,
                                     aux);
}

Result<std::unique_ptr<BroadcastScheme>> RestoreSchemeFromArena(
    std::shared_ptr<const ProgramArena> arena,
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    const SchemeParams& params) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument("restore needs a non-empty dataset");
  }
  // The arena was validated when it was adopted (FromBytes) or written
  // (ArenaWriter): binding it is the whole restore of the program.
  Result<ArenaChannelView> bound = ArenaChannelView::Bind(arena);
  if (!bound.ok()) return bound.status();
  ArenaChannelView view = std::move(bound).value();
  const int kind_int = arena->scheme_kind();
  if (kind_int < static_cast<int>(SchemeKind::kFlat) ||
      kind_int > static_cast<int>(SchemeKind::kHybrid)) {
    return Status::InvalidArgument("restore: arena has no valid scheme tag");
  }
  const SchemeKind kind = static_cast<SchemeKind>(kind_int);
  const std::vector<std::int64_t> aux = arena->aux();
  // The scalars FlattenSchemeProgram writes per base kind, in SchemeKind
  // order (broadcast disks always restore as a scheduled layout).
  constexpr std::size_t kAuxCount[] = {0, 1, 2, 1, 0, 1, 1, 0, 2};
  if (!ScheduledLayout(kind, params) && aux.size() != kAuxCount[kind_int]) {
    return Status::InvalidArgument(
        std::string("restore: ") + SchemeKindToString(kind) + " expects " +
        std::to_string(kAuxCount[kind_int]) + " aux scalars, arena carries " +
        std::to_string(aux.size()));
  }
  const auto aux_int = [&aux](std::size_t i) {
    return static_cast<int>(aux[i]);
  };
  Result<std::unique_ptr<BroadcastScheme>> restored =
      Status::InvalidArgument("unknown scheme kind");
  if (ScheduledLayout(kind, params)) {
    restored = Wrap(ScheduledBroadcast::Restore(kind, dataset, geometry,
                                                params, std::move(view), aux));
  } else {
    switch (kind) {
      case SchemeKind::kFlat:
        restored = Wrap(FlatBroadcast::Restore(dataset, std::move(view)));
        break;
      case SchemeKind::kOneM:
        restored = Wrap(OneMIndexing::Restore(dataset, geometry,
                                              std::move(view), aux_int(0)));
        break;
      case SchemeKind::kDistributed:
        restored = Wrap(DistributedIndexing::Restore(
            dataset, geometry, std::move(view), aux_int(0), aux_int(1)));
        break;
      case SchemeKind::kHashing:
        restored = Wrap(
            SimpleHashing::Restore(dataset, std::move(view), aux_int(0)));
        break;
      case SchemeKind::kSignature:
        restored = Wrap(SignatureIndexing::Restore(
            dataset, geometry, SignatureParamsOf(params), std::move(view)));
        break;
      case SchemeKind::kIntegratedSignature:
        restored = Wrap(IntegratedSignatureIndexing::Restore(
            dataset, geometry, SignatureParamsOf(params), std::move(view),
            aux_int(0)));
        break;
      case SchemeKind::kMultiLevelSignature:
        restored = Wrap(MultiLevelSignatureIndexing::Restore(
            dataset, geometry, SignatureParamsOf(params), std::move(view),
            aux_int(0)));
        break;
      case SchemeKind::kBroadcastDisks:
        break;  // always a scheduled layout, restored above
      case SchemeKind::kHybrid:
        restored = Wrap(HybridIndexing::Restore(
            dataset, geometry, SignatureParamsOf(params), std::move(view),
            aux_int(0), aux_int(1)));
        break;
    }
  }
  if (!restored.ok()) return restored;
  // What the walks trust — pointer phases, bucket sizes and record ids —
  // is checked once the scheme's own layout checks have passed.
  if (Status status =
          CheckRestoredProgram(kind, restored.value()->view(), dataset->size(),
                               geometry, params, aux);
      !status.ok()) {
    return status;
  }
  return restored;
}

}  // namespace airindex
