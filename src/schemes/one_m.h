#ifndef AIRINDEX_SCHEMES_ONE_M_H_
#define AIRINDEX_SCHEMES_ONE_M_H_

#include <memory>
#include <string_view>

#include "common/result.h"
#include "broadcast/geometry.h"
#include "data/dataset.h"
#include "schemes/access.h"
#include "schemes/btree.h"
#include "schemes/channel_view.h"

namespace airindex {

/// (1,m) indexing (Imielinski et al., SIGMOD'94; paper Section 2.1).
///
/// The complete B+ index tree is broadcast m times per cycle, once before
/// each of m equal data segments. Every bucket carries the offset to the
/// next index segment; a client reads one bucket, jumps to the next index
/// segment, descends the tree (dozing between probes), then dozes until
/// the record's data bucket arrives — possibly in the next cycle if the
/// record already passed.
class OneMIndexing : public BroadcastScheme {
 public:
  /// Builds the channel. `m` is the replication count; pass 0 to use the
  /// access-optimal m* = sqrt(Nr / I) where I is the index-tree size in
  /// buckets.
  static Result<OneMIndexing> Build(std::shared_ptr<const Dataset> dataset,
                                    const BucketGeometry& geometry, int m = 0);

  /// The m* the paper's analysis prescribes for this dataset/geometry.
  static int OptimalM(int num_records, const BucketGeometry& geometry);

  /// Adopts `view`, bound to a restored program arena. `m` is the
  /// *resolved* replication count recorded at flatten time (never 0); the
  /// index tree is rebuilt — BTree::Build is deterministic and
  /// integer-only, so the restored scheme is observably identical.
  static Result<OneMIndexing> Restore(std::shared_ptr<const Dataset> dataset,
                                      const BucketGeometry& geometry,
                                      ArenaChannelView view, int m);

  const ArenaChannelView& view() const override { return view_; }

  AccessResult Access(std::string_view key, Bytes tune_in) const override;

  /// The replication count actually used.
  int m() const { return m_; }

  /// The underlying index tree (exposed for tests and benches).
  const BTree& tree() const { return tree_; }

 private:
  OneMIndexing(std::shared_ptr<const Dataset> dataset, BTree tree,
               ArenaChannelView view, int m)
      : dataset_(std::move(dataset)),
        tree_(std::move(tree)),
        view_(std::move(view)),
        m_(m) {}

  std::shared_ptr<const Dataset> dataset_;
  BTree tree_;
  ArenaChannelView view_;
  int m_;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_ONE_M_H_
