#ifndef AIRINDEX_SCHEMES_INTEGRATED_SIGNATURE_H_
#define AIRINDEX_SCHEMES_INTEGRATED_SIGNATURE_H_

#include <memory>
#include <string_view>

#include "common/result.h"
#include "broadcast/geometry.h"
#include "data/dataset.h"
#include "schemes/access.h"
#include "schemes/channel_view.h"
#include "schemes/signature.h"

namespace airindex {

/// Integrated signature indexing (Lee & Lee, DPDB'96) — an extension
/// beyond the paper's comparison, which covers only the simple scheme
/// ("the latter two schemes originate from the simple signature
/// indexing", Section 2.3).
///
/// One signature bucket abstracts a *group* of G consecutive data
/// buckets: the integrated signature superimposes the signatures of all
/// records in the group. A client sifts group signatures; on a group
/// match it scans the group's data buckets until the record is found or
/// the group is exhausted (a group-level false drop). Fewer signature
/// buckets shorten the cycle; denser signatures raise the false-drop
/// cost — the tradeoff the ablation bench quantifies.
class IntegratedSignatureIndexing : public BroadcastScheme {
 public:
  static Result<IntegratedSignatureIndexing> Build(
      std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
      SignatureParams params = SignatureParams(), int group_size = 16);

  /// Adopts `view`, bound to a restored program arena; the generator is
  /// reconstructed from geometry + params (pure configuration). The cycle
  /// must open with a signature bucket and hold only signature buckets of
  /// the generator's width and data buckets, or the restore fails with
  /// InvalidArgument.
  static Result<IntegratedSignatureIndexing> Restore(
      std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
      SignatureParams params, ArenaChannelView view, int group_size);

  const ArenaChannelView& view() const override { return view_; }

  AccessResult Access(std::string_view key, Bytes tune_in) const override;

  /// Records per signature group.
  int group_size() const { return group_size_; }

 private:
  IntegratedSignatureIndexing(std::shared_ptr<const Dataset> dataset,
                              SignatureGenerator generator,
                              ArenaChannelView view, int group_size)
      : dataset_(std::move(dataset)),
        generator_(generator),
        view_(std::move(view)),
        group_size_(group_size) {}

  std::shared_ptr<const Dataset> dataset_;
  SignatureGenerator generator_;
  ArenaChannelView view_;
  int group_size_;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_INTEGRATED_SIGNATURE_H_
