#ifndef AIRINDEX_SCHEMES_FLAT_H_
#define AIRINDEX_SCHEMES_FLAT_H_

#include <memory>
#include <string_view>

#include "common/result.h"
#include "broadcast/geometry.h"
#include "data/dataset.h"
#include "schemes/access.h"
#include "schemes/channel_view.h"
#include "schemes/filter.h"

namespace airindex {

/// Flat (plain) broadcast — the paper's baseline with no access method.
///
/// The channel is simply every data record in key order. The client has
/// nothing to selectively tune with, so it listens to every bucket until
/// the requested record arrives: best possible access time (no index
/// overhead in the cycle) but tuning time equal to access time — "the
/// worst tuning time" (Section 4.2).
class FlatBroadcast : public BroadcastScheme {
 public:
  /// Builds the flat channel over `dataset`.
  static Result<FlatBroadcast> Build(std::shared_ptr<const Dataset> dataset,
                                     const BucketGeometry& geometry);

  /// Adopts `view`, bound to a restored program arena (the scheme holds
  /// no derived state beyond it). Validates that the cycle covers the
  /// dataset.
  static Result<FlatBroadcast> Restore(std::shared_ptr<const Dataset> dataset,
                                       ArenaChannelView view);

  const ArenaChannelView& view() const override { return view_; }

  /// Closed-form protocol walk (O(log Nr): one dataset lookup).
  AccessResult Access(std::string_view key, Bytes tune_in) const override;

  /// Attribute filtering baseline: with no signatures to sift, the
  /// client must listen to every data bucket of one full cycle.
  FilterResult Filter(std::string_view value, Bytes tune_in) const;

 private:
  FlatBroadcast(std::shared_ptr<const Dataset> dataset, ArenaChannelView view)
      : dataset_(std::move(dataset)), view_(std::move(view)) {}

  std::shared_ptr<const Dataset> dataset_;
  ArenaChannelView view_;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_FLAT_H_
