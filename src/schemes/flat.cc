#include "schemes/flat.h"

#include <string>
#include <utility>
#include <vector>

namespace airindex {

Result<FlatBroadcast> FlatBroadcast::Build(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument("flat broadcast needs a non-empty dataset");
  }
  ArenaWriter writer(*dataset);
  writer.Reserve({.buckets = static_cast<std::uint64_t>(dataset->size())});
  for (int r = 0; r < dataset->size(); ++r) {
    writer.Append(BucketKind::kData, geometry.data_bucket_bytes()).record_id =
        r;
  }
  Result<ArenaChannelView> view = ArenaChannelView::Bind(std::move(writer));
  if (!view.ok()) return view.status();
  return FlatBroadcast(std::move(dataset), std::move(view).value());
}

namespace {

// Closed-form flat walk over the bound arena (schemes/channel_view.h).
AccessResult FlatWalk(const ArenaChannelView& view, std::string_view key,
                      Bytes tune_in, const Dataset& dataset) {
  const Bytes dt = view.bucket(0).size();
  const auto num = static_cast<Bytes>(view.num_buckets());

  AccessResult result;
  const Bytes boundary = view.NextBoundaryTime(tune_in);
  const Bytes wait = boundary - tune_in;
  const auto first =
      static_cast<Bytes>(view.BucketAtPhase(boundary % view.cycle_bytes()));

  const int target = dataset.FindIndex(key);
  Bytes buckets_read;
  if (target >= 0) {
    buckets_read = (static_cast<Bytes>(target) - first % num + num) % num + 1;
    result.found = true;
  } else {
    // Nothing to find: the client knows it has seen everything only after
    // one full cycle of buckets.
    buckets_read = num;
  }
  result.access_time = wait + buckets_read * dt;
  result.tuning_time = result.access_time;
  result.probes = static_cast<int>(buckets_read);
  return result;
}

}  // namespace

AccessResult FlatBroadcast::Access(std::string_view key, Bytes tune_in) const {
  return FlatWalk(view_, key, tune_in, *dataset_);
}

FilterResult FlatBroadcast::Filter(std::string_view value,
                                   Bytes tune_in) const {
  const Bytes dt = view_.bucket(0).size();
  const auto num = static_cast<Bytes>(view_.num_buckets());

  FilterResult result;
  const Bytes boundary = view_.NextBoundaryTime(tune_in);
  result.matches = dataset_->FindByAttribute(value);
  result.probes = static_cast<int>(num);
  result.access_time = (boundary - tune_in) + num * dt;
  result.tuning_time = result.access_time;
  return result;
}

Result<FlatBroadcast> FlatBroadcast::Restore(
    std::shared_ptr<const Dataset> dataset, ArenaChannelView view) {
  if (view.num_buckets() != static_cast<std::size_t>(dataset->size())) {
    return Status::InvalidArgument(
        "flat restore: channel has " + std::to_string(view.num_buckets()) +
        " buckets for " + std::to_string(dataset->size()) + " records");
  }
  return FlatBroadcast(std::move(dataset), std::move(view));
}

}  // namespace airindex
