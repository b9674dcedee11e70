#ifndef AIRINDEX_CORE_BROADCAST_SERVER_H_
#define AIRINDEX_CORE_BROADCAST_SERVER_H_

#include <memory>
#include <string_view>

#include "common/result.h"
#include "core/program_cache.h"
#include "schemes/access.h"
#include "schemes/multichannel.h"
#include "schemes/scheme.h"

namespace airindex {

/// The testbed's BroadcastServer (paper Section 3): "constructs the
/// broadcast channel at the initialization stage according to the input
/// parameters and then starts the broadcast procedure".
///
/// The broadcast is periodic and deterministic, so "broadcasting" is the
/// channel itself plus the byte clock; requests listen by running their
/// scheme's access protocol against it at their arrival time.
///
/// When `multichannel.num_channels > 1` the scheme is wrapped in a
/// MultiChannelProgram spreading index and data over that many channels;
/// a single channel runs the base scheme directly so single-channel
/// results stay byte-identical with pre-multichannel builds.
class BroadcastServer {
 public:
  /// Builds the channel(s) for `kind` over `dataset`. When
  /// `program_cache` is non-null and the program is single-channel, the
  /// scheme comes from the cache (restored from a flattened arena on a
  /// hit, built-and-flattened on a miss) — results are identical either
  /// way; only setup time changes. Multichannel programs always build
  /// directly: the snapshot holds one tagged single-channel program, not
  /// a program of several channels plus its partitions and placement.
  static Result<BroadcastServer> Create(
      SchemeKind kind, std::shared_ptr<const Dataset> dataset,
      const BucketGeometry& geometry, const SchemeParams& params,
      const MultiChannelParams& multichannel = {},
      ProgramCache* program_cache = nullptr);

  BroadcastServer(BroadcastServer&&) = default;
  BroadcastServer& operator=(BroadcastServer&&) = default;

  /// The scheme's broadcast cycle as its bound arena view (channel 0
  /// when multichannel).
  const ArenaChannelView& channel() const { return scheme_->view(); }

  /// The access method in use.
  const BroadcastScheme& scheme() const { return *scheme_; }

  /// The multichannel program, or nullptr when running a single channel.
  const MultiChannelProgram* multichannel() const { return multi_; }

  /// Number of channels on air: the program's when multichannel, else 1.
  int num_channels() const {
    return multi_ != nullptr ? multi_->num_channels() : 1;
  }

  /// Channel `c` on air as its arena view (0 <= c < num_channels()).
  const ArenaChannelView& channel_view(int c) const {
    return multi_ != nullptr ? multi_->channel_view(c) : scheme_->view();
  }

  /// A client tuning in at `tune_in` and requesting `key`.
  AccessResult Listen(std::string_view key, Bytes tune_in) const {
    return scheme_->Access(key, tune_in);
  }

  /// Buckets the server has fully broadcast by absolute time `now`
  /// (telemetry; the broadcast is periodic, so this is pure arithmetic).
  /// The channels of a multichannel program transmit in parallel and all
  /// count.
  std::int64_t BucketsBroadcastBy(Bytes now) const {
    std::int64_t total = 0;
    for (int c = 0; c < num_channels(); ++c) {
      total += channel_view(c).BucketsBroadcastBy(now);
    }
    return total;
  }

 private:
  explicit BroadcastServer(std::unique_ptr<BroadcastScheme> scheme,
                           const MultiChannelProgram* multi)
      : scheme_(std::move(scheme)), multi_(multi) {}

  std::unique_ptr<BroadcastScheme> scheme_;
  /// Non-owning alias of scheme_ when it is a MultiChannelProgram.
  const MultiChannelProgram* multi_ = nullptr;
};

}  // namespace airindex

#endif  // AIRINDEX_CORE_BROADCAST_SERVER_H_
