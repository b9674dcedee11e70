#include "schemes/broadcast_disks.h"

#include <algorithm>
#include <utility>

#include "broadcast/schedule.h"

namespace airindex {

BroadcastDisks::BroadcastDisks(std::shared_ptr<const Dataset> dataset,
                               BroadcastDisksParams params,
                               ArenaChannelView view, Channel channel,
                               std::vector<std::vector<Bytes>> occurrences,
                               std::vector<int> disk_of)
    : dataset_(std::move(dataset)),
      params_(std::move(params)),
      view_(std::move(view)),
      channel_(std::move(channel)),
      occurrences_(std::move(occurrences)),
      disk_of_(std::move(disk_of)) {}

Result<BroadcastDisks> BroadcastDisks::Build(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    BroadcastDisksParams params) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument("broadcast disks need a non-empty dataset");
  }
  const int num_records = dataset->size();
  // The fraction-specified assignment and the chunked slot order live in
  // broadcast/schedule.h now (the generalized scheduler reuses them);
  // both reproduce this scheme's pre-scheduler layout byte for byte.
  Result<DiskAssignment> assignment = AssignmentFromFractions(
      params.disk_fractions, params.disk_frequencies, num_records);
  if (!assignment.ok()) return assignment.status();
  const DiskLayout layout = BuildDiskLayout(assignment.value());

  const Bytes bucket_bytes = geometry.data_bucket_bytes();
  std::vector<Bucket> buckets;
  buckets.reserve(layout.slot_record.size());
  std::vector<std::vector<Bytes>> occurrences(
      static_cast<std::size_t>(num_records));
  for (const int record : layout.slot_record) {
    occurrences[static_cast<std::size_t>(record)].push_back(
        static_cast<Bytes>(buckets.size()) * bucket_bytes);
    Bucket bucket;
    bucket.kind = BucketKind::kData;
    bucket.size = bucket_bytes;
    bucket.record_id = record;
    buckets.push_back(std::move(bucket));
  }

  Result<Channel> channel = Channel::Create(std::move(buckets));
  if (!channel.ok()) return channel.status();
  ArenaChannelView view = ArenaChannelView::Flatten(channel.value());
  return BroadcastDisks(std::move(dataset), std::move(params), std::move(view),
                        std::move(channel).value(), std::move(occurrences),
                        assignment.value().DiskOfRecord());
}

int BroadcastDisks::OccurrencesOf(int record) const {
  return static_cast<int>(occurrences_[static_cast<std::size_t>(record)].size());
}

int BroadcastDisks::DiskOf(int record) const {
  return disk_of_[static_cast<std::size_t>(record)];
}

namespace {

// Closed-form multi-disk scan over the bound arena
// (schemes/channel_view.h), using the build-time per-record occurrence
// table.
AccessResult BroadcastDisksWalk(
    const ArenaChannelView& view, std::string_view key, Bytes tune_in,
    const Dataset& dataset,
    const std::vector<std::vector<Bytes>>& occurrences) {
  const Bytes dt = view.bucket(0).size();
  const Bytes cycle = view.cycle_bytes();
  const auto num = static_cast<Bytes>(view.num_buckets());

  AccessResult result;
  const Bytes boundary = view.NextBoundaryTime(tune_in);
  const Bytes wait = boundary - tune_in;
  const Bytes phase = boundary % cycle;

  const int target = dataset.FindIndex(key);
  Bytes buckets_read;
  if (target >= 0) {
    const std::vector<Bytes>& occ =
        occurrences[static_cast<std::size_t>(target)];
    const auto it = std::lower_bound(occ.begin(), occ.end(), phase);
    const Bytes next = it != occ.end() ? *it : occ.front() + cycle;
    buckets_read = (next - phase) / dt + 1;
    result.found = true;
  } else {
    // Absence is certain only after a full major cycle.
    buckets_read = num;
  }
  result.access_time = wait + buckets_read * dt;
  result.tuning_time = result.access_time;
  result.probes = static_cast<int>(buckets_read);
  return result;
}

}  // namespace

AccessResult BroadcastDisks::Access(std::string_view key,
                                    Bytes tune_in) const {
  return BroadcastDisksWalk(view_, key, tune_in, *dataset_, occurrences_);
}

AccessResult BroadcastDisks::AccessReference(std::string_view key,
                                             Bytes tune_in) const {
  AccessResult result;
  Bytes t = channel_.NextBoundaryTime(tune_in);
  result.tuning_time = t - tune_in;
  const auto num = channel_.num_buckets();
  std::size_t i = channel_.BucketAtPhase(t % channel_.cycle_bytes());
  for (std::size_t scanned = 0; scanned < num; ++scanned) {
    const Bucket& bucket = channel_.bucket(i);
    t += bucket.size;
    result.tuning_time += bucket.size;
    ++result.probes;
    const Record& record =
        dataset_->record(static_cast<int>(bucket.record_id));
    if (record.key == key) {
      result.found = true;
      break;
    }
    i = (i + 1) % num;
  }
  result.access_time = t - tune_in;
  return result;
}

Result<BroadcastDisks> BroadcastDisks::Restore(
    std::shared_ptr<const Dataset> dataset, BroadcastDisksParams params,
    ArenaChannelView view, Channel channel) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument(
        "broadcast disks restore needs a non-empty dataset");
  }
  const int num_records = dataset->size();
  Result<DiskAssignment> assignment = AssignmentFromFractions(
      params.disk_fractions, params.disk_frequencies, num_records);
  if (!assignment.ok()) return assignment.status();

  // Build emits buckets (and occurrence phases) in phase order, so one
  // forward scan reproduces the per-record occurrence table exactly.
  std::vector<std::vector<Bytes>> occurrences(
      static_cast<std::size_t>(num_records));
  for (std::size_t i = 0; i < channel.num_buckets(); ++i) {
    const Bucket& bucket = channel.bucket(i);
    if (bucket.record_id < 0 || bucket.record_id >= num_records) {
      return Status::InvalidArgument(
          "broadcast disks restore: bucket with out-of-range record id");
    }
    occurrences[static_cast<std::size_t>(bucket.record_id)].push_back(
        channel.start_phase(i));
  }
  for (const std::vector<Bytes>& phases : occurrences) {
    if (phases.empty()) {
      return Status::InvalidArgument(
          "broadcast disks restore: record missing from the major cycle");
    }
  }
  return BroadcastDisks(std::move(dataset), std::move(params), std::move(view),
                        std::move(channel), std::move(occurrences),
                        assignment.value().DiskOfRecord());
}

}  // namespace airindex
