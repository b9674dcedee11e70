#include "schemes/distributed.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analytical/models.h"

namespace airindex {

int DistributedIndexing::OptimalR(int num_records,
                                  const BucketGeometry& geometry) {
  return DistributedOptimalRExact(num_records, geometry);
}

Result<DistributedIndexing> DistributedIndexing::Build(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    int r) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument(
        "distributed indexing needs a non-empty dataset");
  }
  const int num_records = dataset->size();
  Result<BTree> tree_result =
      BTree::Build(num_records, geometry.index_fanout());
  if (!tree_result.ok()) return tree_result.status();
  BTree tree = std::move(tree_result).value();

  if (r == -1) {
    r = std::min(OptimalR(num_records, geometry), tree.height() - 1);
  }
  if (r < 0 || r >= tree.height()) {
    return Status::InvalidArgument(
        "replicated level count must be in [0, tree height)");
  }

  // ---- Pass 1: bucket order. --------------------------------------------
  // Each data segment is one depth-r subtree; its index segment holds the
  // replicated ancestors that are seeing the first occurrence of one of
  // their children, then the preorder of the non-replicated subtree.
  const std::vector<int> segment_roots = tree.NodesAtDepth(r);
  const int num_segments = static_cast<int>(segment_roots.size());
  const Bytes bucket_bytes = geometry.data_bucket_bytes();

  struct Slot {
    bool is_index;
    int node_id;
    int record_id;
    int segment;
    int last_record_before;  // dataset index of the last data record
                             // broadcast before this bucket; -1 if none.
  };
  std::vector<Slot> layout;
  std::vector<std::vector<int>> occurrences(tree.nodes().size());
  std::vector<int> segment_start(static_cast<std::size_t>(num_segments), 0);
  std::vector<Bytes> record_phase(static_cast<std::size_t>(num_records), 0);

  int last_record = -1;
  for (int j = 0; j < num_segments; ++j) {
    const int seg_root = segment_roots[static_cast<std::size_t>(j)];
    segment_start[static_cast<std::size_t>(j)] =
        static_cast<int>(layout.size());

    // Replicated ancestors, top-down. Ancestor a (via path child c) is
    // emitted exactly before the first segment of c's subtree.
    std::vector<int> path = tree.Ancestors(seg_root);  // nearest first
    std::reverse(path.begin(), path.end());            // root first
    path.push_back(seg_root);
    for (std::size_t d = 0; d + 1 < path.size(); ++d) {
      const int ancestor = path[d];
      const int path_child = path[d + 1];
      if (tree.node(path_child).first_record ==
          tree.node(seg_root).first_record) {
        occurrences[static_cast<std::size_t>(ancestor)].push_back(
            static_cast<int>(layout.size()));
        layout.push_back(Slot{true, ancestor, -1, j, last_record});
      }
    }

    // Non-replicated part: the depth-r subtree in preorder.
    for (const int node_id : tree.PreorderSubtree(seg_root)) {
      occurrences[static_cast<std::size_t>(node_id)].push_back(
          static_cast<int>(layout.size()));
      layout.push_back(Slot{true, node_id, -1, j, last_record});
    }

    // The data segment itself.
    const BTreeNode& root_node = tree.node(seg_root);
    for (int rec = root_node.first_record; rec <= root_node.last_record;
         ++rec) {
      record_phase[static_cast<std::size_t>(rec)] =
          static_cast<Bytes>(layout.size()) * bucket_bytes;
      layout.push_back(Slot{false, -1, rec, j, last_record});
      last_record = rec;
    }
  }

  // Next occurrence of `node` strictly after layout position `pos`,
  // wrapping to the node's first occurrence next cycle.
  const auto next_occurrence_phase = [&](int node, int pos) -> Bytes {
    const std::vector<int>& occ = occurrences[static_cast<std::size_t>(node)];
    const auto it = std::upper_bound(occ.begin(), occ.end(), pos);
    const int target = it != occ.end() ? *it : occ.front();
    return static_cast<Bytes>(target) * bucket_bytes;
  };

  // ---- Pass 2: write the buckets. ------------------------------------------
  // An index bucket holds one local entry per child and one control
  // entry per ancestor (its depth).
  std::uint64_t entries = 0;
  for (const Slot& slot : layout) {
    if (!slot.is_index) continue;
    const BTreeNode& node = tree.node(slot.node_id);
    entries += node.children.size() + static_cast<std::size_t>(node.depth);
  }
  ArenaWriter writer(*dataset);
  writer.Reserve({.buckets = layout.size(),
                  .entries = entries,
                  .string_bytes = writer.AllKeyBytes()});
  for (std::size_t pos = 0; pos < layout.size(); ++pos) {
    const Slot& slot = layout[pos];
    const Bytes next_segment =
        static_cast<Bytes>(
            segment_start[static_cast<std::size_t>((slot.segment + 1) %
                                                   num_segments)]) *
        bucket_bytes;
    if (!slot.is_index) {
      ArenaBucket& bucket = writer.Append(BucketKind::kData, bucket_bytes);
      bucket.next_index_segment_phase = next_segment;
      bucket.record_id = slot.record_id;
      continue;
    }

    const BTreeNode& node = tree.node(slot.node_id);
    ArenaBucket& bucket = writer.Append(BucketKind::kIndex, bucket_bytes);
    bucket.next_index_segment_phase = next_segment;
    bucket.level = node.level;
    bucket.range_lo = writer.Key(node.first_record);
    bucket.range_hi = writer.Key(node.last_record);
    if (slot.last_record_before >= 0) {
      bucket.last_broadcast_key = writer.Key(slot.last_record_before);
    }

    for (const int child : node.children) {
      if (node.level == 0) {
        writer.AddLocal(child, child,
                        record_phase[static_cast<std::size_t>(child)]);
      } else {
        const BTreeNode& child_node = tree.node(child);
        writer.AddLocal(child_node.first_record, child_node.last_record,
                        next_occurrence_phase(child, static_cast<int>(pos)));
      }
    }

    // Control index: each ancestor's next occurrence, nearest first.
    for (int ancestor = node.parent; ancestor != -1;
         ancestor = tree.node(ancestor).parent) {
      const BTreeNode& anc = tree.node(ancestor);
      writer.AddControl(anc.first_record, anc.last_record,
                        next_occurrence_phase(ancestor, static_cast<int>(pos)));
    }
  }

  Result<ArenaChannelView> view = ArenaChannelView::Bind(std::move(writer));
  if (!view.ok()) return view.status();
  return DistributedIndexing(std::move(dataset), std::move(tree),
                             std::move(view).value(), r, num_segments);
}

namespace {

// The distributed access protocol over the bound arena
// (schemes/channel_view.h). `kTraced` selects the probe sink at compile
// time: the traced instantiation appends one ProbeEvent per step to
// `*trace`, the untraced one compiles every report away and builds no
// strings.
template <bool kTraced>
AccessResult DistributedWalk(const ArenaChannelView& view,
                             std::string_view key, Bytes tune_in,
                             int tree_height, AccessTrace* trace) {
  constexpr auto kNoBucket = static_cast<std::size_t>(-1);
  const auto emit = [&](Bytes at, Bytes duration, ProbeAction action,
                        std::size_t bucket, const char* note) {
    if constexpr (kTraced) {
      trace->push_back(ProbeEvent{at, duration, action, bucket, note});
    }
  };
  const auto doze_to = [&](Bytes phase, Bytes now, ProbeAction action,
                           const char* note) {
    const Bytes arrival = view.NextArrivalOfPhase(phase, now);
    emit(now, arrival - now, action, kNoBucket, note);
    return arrival;
  };

  AccessResult result;
  Bytes t = view.NextBoundaryTime(tune_in);
  result.tuning_time = t - tune_in;
  emit(tune_in, t - tune_in, ProbeAction::kInitialWait, kNoBucket,
       "listen to the partial bucket");

  // First complete bucket: learn the offset to the next index segment.
  {
    const std::size_t i = view.BucketAtPhase(t % view.cycle_bytes());
    const auto first = view.bucket(i);
    emit(t, first.size(), ProbeAction::kRead, i,
         "first complete bucket: take next-index-segment offset");
    t += first.size();
    result.tuning_time += first.size();
    ++result.probes;
    if (first.kind() == BucketKind::kIndex) ++result.index_probes;
    t = doze_to(first.next_index_segment_phase(), t, ProbeAction::kDoze,
                "to the next index segment");
  }

  const int max_probes = 6 * tree_height + 16;
  bool restarted = false;
  while (result.probes < max_probes) {
    const std::size_t i = view.BucketAtPhase(t % view.cycle_bytes());
    const auto bucket = view.bucket(i);
    if constexpr (kTraced) {
      trace->push_back(ProbeEvent{
          t, bucket.size(), ProbeAction::kRead, i,
          "index probe, range [" + std::string(bucket.range_lo()) + ".." +
              std::string(bucket.range_hi()) + "]"});
    }
    t += bucket.size();
    result.tuning_time += bucket.size();
    ++result.probes;
    if (bucket.kind() != BucketKind::kIndex) {
      ++result.anomalies;
      break;
    }
    ++result.index_probes;
    // "If K < the key most recently broadcast, go to the next broadcast":
    // the record (if on air at all) already passed this cycle.
    if (!bucket.last_broadcast_key().empty() &&
        key <= bucket.last_broadcast_key()) {
      if (restarted) {  // cannot happen on a well-formed channel
        ++result.anomalies;
        break;
      }
      restarted = true;
      t = doze_to(0, t, ProbeAction::kRestart,
                  "key already passed: wait for the next broadcast");
      continue;
    }
    if (key < bucket.range_lo()) {
      emit(t, 0, ProbeAction::kConclude, kNoBucket,
           "key below everything still to come: not on air");
      break;
    }
    if (key > bucket.range_hi()) {
      // Climb via the control index to the lowest ancestor covering K.
      const EntryView up = bucket.FindControlUp(key);
      if (!up.found) {
        emit(t, 0, ProbeAction::kConclude, kNoBucket,
             "key beyond the maximum key: not on air");
        break;
      }
      t = doze_to(up.target_phase, t, ProbeAction::kClimb,
                  "control index: to the next occurrence of an ancestor");
      continue;
    }
    // K within this subtree: descend.
    const EntryView entry = bucket.FindLocal(key);
    if (!entry.found) {
      emit(t, 0, ProbeAction::kConclude, kNoBucket,
           "key falls in a gap between children: not on air");
      break;
    }
    t = doze_to(entry.target_phase, t, ProbeAction::kDoze,
                bucket.level() == 0 ? "to the data bucket"
                                    : "descend to the child index bucket");
    if (bucket.level() == 0) {
      const std::size_t d = view.BucketAtPhase(t % view.cycle_bytes());
      const auto data = view.bucket(d);
      emit(t, data.size(), ProbeAction::kDownload, d, "requested record");
      t += data.size();
      result.tuning_time += data.size();
      ++result.probes;
      result.found = true;
      emit(t, 0, ProbeAction::kConclude, kNoBucket, "found");
      break;
    }
  }
  if (result.probes >= max_probes && !result.found) ++result.anomalies;
  result.access_time = t - tune_in;
  return result;
}

}  // namespace

AccessResult DistributedIndexing::Access(std::string_view key,
                                         Bytes tune_in) const {
  return DistributedWalk<false>(view_, key, tune_in, tree_.height(), nullptr);
}

AccessResult DistributedIndexing::AccessTraced(std::string_view key,
                                               Bytes tune_in,
                                               AccessTrace* trace) const {
  if (trace == nullptr) return Access(key, tune_in);
  return DistributedWalk<true>(view_, key, tune_in, tree_.height(), trace);
}

Result<DistributedIndexing> DistributedIndexing::Restore(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    ArenaChannelView view, int r, int num_segments) {
  if (r < 0 || num_segments < 1) {
    return Status::InvalidArgument(
        "distributed restore: resolved r/num_segments out of range");
  }
  Result<BTree> tree = BTree::Build(dataset->size(), geometry.index_fanout());
  if (!tree.ok()) return tree.status();
  if (r > tree.value().height() - 1) {
    return Status::InvalidArgument(
        "distributed restore: r exceeds tree height");
  }
  return DistributedIndexing(std::move(dataset), std::move(tree).value(),
                             std::move(view), r, num_segments);
}

}  // namespace airindex
