#include "schemes/multichannel.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "des/random.h"
#include "schemes/btree.h"
#include "schemes/scheduled.h"

namespace airindex {

namespace {

/// Salt for the start-channel hash so it is uncorrelated with the
/// simple-hashing scheme's use of Mix64 on tune-in-adjacent values.
constexpr std::uint64_t kStartChannelSalt = 0x5eed0c4a17b0ca57ULL;

/// Record range [begin, end) of partition p when Nr records are split
/// into P balanced chunks.
std::pair<int, int> PartitionRange(int num_records, int partitions, int p) {
  const auto lo = static_cast<int>(static_cast<std::int64_t>(p) * num_records /
                                   partitions);
  const auto hi = static_cast<int>(
      (static_cast<std::int64_t>(p) + 1) * num_records / partitions);
  return {lo, hi};
}

// --- conflict-aware placement ------------------------------------------
//
// Channels tick the same byte clock, so bucket index x of a channel with
// M_a buckets and bucket index y of one with M_b buckets share a
// slot-time at some instant iff x ≡ y (mod gcd(M_a, M_b)) — the CRT
// residue test. The placer rotates each partition's whole bucket
// sequence (ScheduleParams::rotation_slots) so the hottest records of
// different channels never collide when a collision-free rotation
// exists.

/// Hot-record occurrence slots of one already-placed channel.
struct PlacedHotSlots {
  int num_buckets = 0;
  std::vector<int> slots;
};

/// Cross-channel hot-pair collisions of candidate rotation `rotation`
/// for a channel of `num_buckets` buckets whose canonical (unrotated)
/// hot occurrences are `hot`.
std::int64_t RotationCollisions(const std::vector<int>& hot, int num_buckets,
                                int rotation,
                                const std::vector<PlacedHotSlots>& placed) {
  std::int64_t collisions = 0;
  for (const PlacedHotSlots& other : placed) {
    const int g = std::gcd(num_buckets, other.num_buckets);
    for (const int x : hot) {
      const int residue = ((x - rotation) % g + g) % g;
      for (const int y : other.slots) {
        if (residue == y % g) ++collisions;
      }
    }
  }
  return collisions;
}

/// Smallest rotation minimizing hot-pair collisions. Only rotation
/// residues modulo lcm over placed channels of gcd(M, M_other) are
/// distinguishable, so the scan stops there (capped for safety; the cap
/// is never reached for balanced partitions, where all cycles are within
/// one bucket of each other).
int BestRotation(const std::vector<int>& hot, int num_buckets,
                 const std::vector<PlacedHotSlots>& placed) {
  std::int64_t distinct = 1;
  for (const PlacedHotSlots& other : placed) {
    const std::int64_t g = std::gcd(num_buckets, other.num_buckets);
    distinct = std::min<std::int64_t>(distinct / std::gcd(distinct, g) * g,
                                      num_buckets);
  }
  distinct = std::min<std::int64_t>(distinct, 4096);
  int best_rotation = 0;
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (int rotation = 0; rotation < distinct; ++rotation) {
    const std::int64_t collisions =
        RotationCollisions(hot, num_buckets, rotation, placed);
    if (collisions < best) {
      best = collisions;
      best_rotation = rotation;
      if (best == 0) break;
    }
  }
  return best_rotation;
}

}  // namespace

const char* ChannelAllocationToString(ChannelAllocation allocation) {
  switch (allocation) {
    case ChannelAllocation::kIndexOnOne:
      return "index-on-one";
    case ChannelAllocation::kDataPartitioned:
      return "data-partitioned";
    case ChannelAllocation::kReplicatedIndex:
      return "replicated-index";
  }
  return "unknown";
}

bool ParseChannelAllocation(std::string_view text, ChannelAllocation* out) {
  for (const ChannelAllocation allocation :
       {ChannelAllocation::kIndexOnOne, ChannelAllocation::kDataPartitioned,
        ChannelAllocation::kReplicatedIndex}) {
    if (text == ChannelAllocationToString(allocation)) {
      *out = allocation;
      return true;
    }
  }
  return false;
}

Result<std::unique_ptr<MultiChannelProgram>> MultiChannelProgram::Build(
    SchemeKind kind, std::shared_ptr<const Dataset> dataset,
    const BucketGeometry& geometry, const SchemeParams& params,
    const MultiChannelParams& multichannel) {
  const int num_channels = multichannel.num_channels;
  if (num_channels < 2) {
    return Status::InvalidArgument(
        "multichannel program needs >= 2 channels (a single channel runs "
        "the base scheme directly)");
  }
  if (num_channels > 64) {
    return Status::InvalidArgument("more than 64 channels is unsupported");
  }
  if (multichannel.switch_cost_bytes < 0) {
    return Status::InvalidArgument("channel switch cost must be >= 0");
  }
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument("multichannel program needs a dataset");
  }
  const int num_records = dataset->size();
  if (params.schedule.active()) {
    // The index-centric allocations lay out one global air index whose
    // leaf pointers assume the flat per-partition slot order; a skewed
    // slot schedule under them is a different design, so they are gated
    // rather than silently served dangling pointers.
    if (multichannel.allocation != ChannelAllocation::kDataPartitioned) {
      return Status::InvalidArgument(
          "skew-aware scheduling supports only the data-partitioned "
          "multichannel allocation");
    }
    if (params.schedule.scheduler == SchedulerKind::kOnline) {
      return Status::InvalidArgument(
          "online re-tiering requires a single channel");
    }
  }
  const int partitions =
      multichannel.allocation == ChannelAllocation::kIndexOnOne
          ? num_channels - 1
          : num_channels;
  if (num_records < partitions) {
    return Status::InvalidArgument(
        "fewer records than data partitions; reduce --channels");
  }

  auto program = std::unique_ptr<MultiChannelProgram>(new MultiChannelProgram);
  program->allocation_ = multichannel.allocation;
  program->switch_cost_bytes_ = multichannel.switch_cost_bytes;
  program->first_data_channel_ =
      multichannel.allocation == ChannelAllocation::kIndexOnOne ? 1 : 0;
  program->partition_first_keys_.reserve(static_cast<std::size_t>(partitions));
  for (int p = 0; p < partitions; ++p) {
    const auto [lo, hi] = PartitionRange(num_records, partitions, p);
    (void)hi;
    program->partition_first_keys_.push_back(dataset->record(lo).key);
  }

  const Bytes bucket_bytes = geometry.data_bucket_bytes();
  program->views_.reserve(static_cast<std::size_t>(num_channels));

  if (multichannel.allocation == ChannelAllocation::kDataPartitioned) {
    std::vector<PlacedHotSlots> placed;
    for (int p = 0; p < partitions; ++p) {
      const auto [lo, hi] = PartitionRange(num_records, partitions, p);
      std::vector<Record> chunk(dataset->records().begin() + lo,
                                dataset->records().begin() + hi);
      Result<Dataset> sub = Dataset::FromRecords(std::move(chunk));
      if (!sub.ok()) return sub.status();
      auto sub_dataset = std::make_shared<const Dataset>(std::move(sub).value());
      // A scheduled partition plans its slice under the *conditional*
      // global popularity (rank_offset/total_ranks), not a fresh local
      // Zipf — record lo really is the lo-th hottest of the whole
      // population.
      SchemeParams partition_params = params;
      if (params.schedule.active()) {
        partition_params.schedule.rank_offset = lo;
        partition_params.schedule.total_ranks = num_records;
        partition_params.schedule.rotation_slots = 0;
      }
      Result<std::unique_ptr<BroadcastScheme>> scheme =
          BuildScheme(kind, sub_dataset, geometry, partition_params);
      if (!scheme.ok()) return scheme.status();
      if (params.schedule.active()) {
        const auto* scheduled =
            dynamic_cast<const ScheduledBroadcast*>(scheme.value().get());
        if (scheduled == nullptr) {
          return Status::InvalidArgument(
              "scheduled partition did not produce a scheduled program");
        }
        // Conflict-aware placement over this partition's hottest records
        // (its first locals — the slice is in rank order): pick the
        // rotation whose hot occurrences collide least with every
        // already-placed channel, then rebuild on it. The search and the
        // rebuild are deterministic, so --jobs bit-identity holds.
        const int hot_records = std::min(2, hi - lo);
        std::vector<int> hot;
        for (int r = 0; r < hot_records; ++r) {
          const std::vector<int>& buckets = scheduled->record_buckets()[
              static_cast<std::size_t>(r)];
          hot.insert(hot.end(), buckets.begin(), buckets.end());
        }
        const int channel_buckets =
            static_cast<int>(scheduled->view().num_buckets());
        for (const PlacedHotSlots& other : placed) {
          program->conflict_.hot_pairs +=
              static_cast<std::int64_t>(hot.size()) *
              static_cast<std::int64_t>(other.slots.size());
        }
        program->conflict_.baseline_collisions +=
            RotationCollisions(hot, channel_buckets, 0, placed);
        const int rotation = BestRotation(hot, channel_buckets, placed);
        program->conflict_.collisions +=
            RotationCollisions(hot, channel_buckets, rotation, placed);
        program->conflict_.rotations.push_back(rotation);
        if (rotation != 0) {
          partition_params.schedule.rotation_slots = rotation;
          scheme = BuildScheme(kind, sub_dataset, geometry, partition_params);
          if (!scheme.ok()) return scheme.status();
        }
        PlacedHotSlots mine;
        mine.num_buckets = channel_buckets;
        mine.slots.reserve(hot.size());
        for (const int x : hot) {
          mine.slots.push_back(((x - rotation) % channel_buckets +
                                channel_buckets) % channel_buckets);
        }
        placed.push_back(std::move(mine));
      }
      // The partition's view is its channel.
      program->views_.push_back(scheme.value()->view());
      program->partitions_.push_back(std::move(scheme).value());
    }
  } else {
    // Both index-centric allocations lay out the global B+-tree air
    // index themselves, whatever the base kind.
    Result<BTree> tree_result =
        BTree::Build(num_records, geometry.index_fanout());
    if (!tree_result.ok()) return tree_result.status();
    const BTree& tree = tree_result.value();
    program->tree_height_ = tree.height();
    const std::vector<int> preorder = tree.PreorderSubtree(tree.root());
    const Bytes index_bytes =
        static_cast<Bytes>(preorder.size()) * bucket_bytes;

    // Phase of every index node within the (identical) index layout, and
    // the home channel + phase of every record's data bucket.
    std::vector<Bytes> node_phase(tree.nodes().size(), kInvalidPhase);
    for (std::size_t i = 0; i < preorder.size(); ++i) {
      node_phase[static_cast<std::size_t>(preorder[i])] =
          static_cast<Bytes>(i) * bucket_bytes;
    }
    std::vector<int> record_channel(static_cast<std::size_t>(num_records), 0);
    std::vector<Bytes> record_phase(static_cast<std::size_t>(num_records), 0);
    const Bytes data_base =
        multichannel.allocation == ChannelAllocation::kIndexOnOne
            ? 0
            : index_bytes;
    for (int p = 0; p < partitions; ++p) {
      const auto [lo, hi] = PartitionRange(num_records, partitions, p);
      for (int r = lo; r < hi; ++r) {
        record_channel[static_cast<std::size_t>(r)] =
            program->first_data_channel_ + p;
        record_phase[static_cast<std::size_t>(r)] =
            data_base + static_cast<Bytes>(r - lo) * bucket_bytes;
      }
    }

    // The index bucket sequence is identical on every channel that
    // carries it (leaf pointers are absolute channel+phase pairs).
    std::uint64_t children = 0;
    for (const BTreeNode& node : tree.nodes()) {
      children += node.children.size();
    }
    const auto write_index = [&](ArenaWriter* writer) {
      for (const int node_id : preorder) {
        const BTreeNode& node = tree.node(node_id);
        ArenaBucket& bucket = writer->Append(BucketKind::kIndex, bucket_bytes);
        bucket.next_index_segment_phase = 0;
        bucket.level = node.level;
        bucket.range_lo = writer->Key(node.first_record);
        bucket.range_hi = writer->Key(node.last_record);
        for (const int child : node.children) {
          if (node.level == 0) {
            writer->AddLocal(child, child,
                             record_phase[static_cast<std::size_t>(child)],
                             record_channel[static_cast<std::size_t>(child)]);
          } else {
            const BTreeNode& child_node = tree.node(child);
            writer->AddLocal(child_node.first_record, child_node.last_record,
                             node_phase[static_cast<std::size_t>(child)]);
          }
        }
      }
    };

    const bool index_on_one =
        multichannel.allocation == ChannelAllocation::kIndexOnOne;
    if (index_on_one) {
      ArenaWriter writer(*dataset);
      writer.Reserve({.buckets = preorder.size(),
                      .entries = children,
                      .string_bytes = writer.AllKeyBytes()});
      write_index(&writer);
      Result<ArenaChannelView> index_channel =
          ArenaChannelView::Bind(std::move(writer));
      if (!index_channel.ok()) return index_channel.status();
      program->views_.push_back(std::move(index_channel).value());
    }
    for (int p = 0; p < partitions; ++p) {
      const auto [lo, hi] = PartitionRange(num_records, partitions, p);
      // A replicated-index channel opens with a full copy of the index.
      ArenaWriter writer(*dataset);
      if (index_on_one) {
        writer.Reserve({.buckets = static_cast<std::uint64_t>(hi - lo)});
      } else {
        writer.Reserve(
            {.buckets = preorder.size() + static_cast<std::uint64_t>(hi - lo),
             .entries = children,
             .string_bytes = writer.AllKeyBytes()});
        write_index(&writer);
      }
      for (int r = lo; r < hi; ++r) {
        ArenaBucket& bucket = writer.Append(BucketKind::kData, bucket_bytes);
        bucket.record_id = r;
        if (!index_on_one) bucket.next_index_segment_phase = 0;
      }
      Result<ArenaChannelView> channel =
          ArenaChannelView::Bind(std::move(writer));
      if (!channel.ok()) return channel.status();
      program->views_.push_back(std::move(channel).value());
    }
  }
  return program;
}

int MultiChannelProgram::HomeChannel(std::string_view key) const {
  const auto it = std::upper_bound(
      partition_first_keys_.begin(), partition_first_keys_.end(), key,
      [](std::string_view k, const std::string& first) { return k < first; });
  const auto p =
      std::max<std::ptrdiff_t>(0, it - partition_first_keys_.begin() - 1);
  return first_data_channel_ + static_cast<int>(p);
}

int MultiChannelProgram::StartChannel(Bytes tune_in) const {
  if (allocation_ == ChannelAllocation::kIndexOnOne) return 0;
  const std::uint64_t h =
      Mix64(static_cast<std::uint64_t>(tune_in) ^ kStartChannelSalt);
  return static_cast<int>(h % static_cast<std::uint64_t>(num_channels()));
}

AccessResult MultiChannelProgram::Access(std::string_view key,
                                         Bytes tune_in) const {
  return allocation_ == ChannelAllocation::kDataPartitioned
             ? AccessPartitioned(key, tune_in)
             : AccessIndexed(key, tune_in);
}

AccessResult MultiChannelProgram::AccessPartitioned(std::string_view key,
                                                    Bytes tune_in) const {
  AccessResult result;
  const int s = StartChannel(tune_in);
  result.start_channel = static_cast<std::int16_t>(s);
  result.final_channel = result.start_channel;
  const ArenaChannelView& start = channel_view(s);

  // Initial wait plus one directory read: every bucket carries the
  // key-range -> channel table (a P-entry map, negligible next to Dt), so
  // one full bucket tells the client its key's home channel.
  Bytes t = start.NextBoundaryTime(tune_in);
  result.tuning_time = t - tune_in;
  const auto directory =
      start.bucket(start.BucketAtPhase(t % start.cycle_bytes()));
  t += directory.size();
  result.tuning_time += directory.size();
  ++result.probes;
  if (directory.kind() != BucketKind::kData) ++result.index_probes;

  const int home = HomeChannel(key);
  if (home != s) {
    result.channel_hops = 1;
    result.switch_bytes = switch_cost_bytes_;
    t += switch_cost_bytes_;
    result.final_channel = static_cast<std::int16_t>(home);
  }

  const AccessResult sub = partitions_[static_cast<std::size_t>(home)]->Access(
      key, t);
  result.found = sub.found;
  result.access_time = (t - tune_in) + sub.access_time;
  result.tuning_time += sub.tuning_time;
  result.probes += sub.probes;
  result.false_drops += sub.false_drops;
  result.index_probes += sub.index_probes;
  result.overflow_hops += sub.overflow_hops;
  result.anomalies += sub.anomalies;
  if (home != s) result.final_channel_tuning = sub.tuning_time;
  return result;
}

AccessResult MultiChannelProgram::AccessIndexed(std::string_view key,
                                                Bytes tune_in) const {
  AccessResult result;
  const int s = StartChannel(tune_in);
  result.start_channel = static_cast<std::int16_t>(s);
  result.final_channel = result.start_channel;
  const ArenaChannelView& index_channel = channel_view(s);

  // Initial wait; read the first complete bucket to find the index
  // segment (every bucket of an index-carrying channel points at it).
  Bytes t = index_channel.NextBoundaryTime(tune_in);
  result.tuning_time = t - tune_in;
  {
    const auto first = index_channel.bucket(
        index_channel.BucketAtPhase(t % index_channel.cycle_bytes()));
    t += first.size();
    result.tuning_time += first.size();
    ++result.probes;
    if (first.kind() == BucketKind::kIndex) ++result.index_probes;
    t = index_channel.NextArrivalOfPhase(first.next_index_segment_phase(), t);
  }

  // Descend the global tree on the index channel; the leaf pointer names
  // the data bucket's (channel, phase).
  const int max_probes = 4 * tree_height_ + 8;
  while (result.probes < max_probes) {
    const auto bucket = index_channel.bucket(
        index_channel.BucketAtPhase(t % index_channel.cycle_bytes()));
    t += bucket.size();
    result.tuning_time += bucket.size();
    ++result.probes;
    if (bucket.kind() != BucketKind::kIndex) {
      ++result.anomalies;
      break;
    }
    ++result.index_probes;
    if (key < bucket.range_lo() || key > bucket.range_hi()) {
      break;  // not on air
    }
    const EntryView entry = bucket.FindLocal(key);
    if (!entry.found) break;  // key falls in a gap: not on air
    if (bucket.level() > 0) {
      t = index_channel.NextArrivalOfPhase(entry.target_phase, t);
      continue;
    }
    // Leaf hit: hop to the data channel (if different) and download.
    const int target =
        entry.target_channel == kSameChannel ? s : entry.target_channel;
    if (target != s) {
      result.channel_hops = 1;
      result.switch_bytes = switch_cost_bytes_;
      t += switch_cost_bytes_;
      result.final_channel = static_cast<std::int16_t>(target);
    }
    const ArenaChannelView& data_channel = channel_view(target);
    t = data_channel.NextArrivalOfPhase(entry.target_phase, t);
    const auto data = data_channel.bucket(
        data_channel.BucketAtPhase(t % data_channel.cycle_bytes()));
    t += data.size();
    result.tuning_time += data.size();
    ++result.probes;
    if (target != s) result.final_channel_tuning = data.size();
    result.found = true;
    break;
  }
  if (result.probes >= max_probes && !result.found) ++result.anomalies;
  result.access_time = t - tune_in;
  return result;
}

}  // namespace airindex
