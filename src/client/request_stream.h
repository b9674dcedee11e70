// Layer: 4 (client) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_CLIENT_REQUEST_STREAM_H_
#define AIRINDEX_CLIENT_REQUEST_STREAM_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

#include "common/types.h"
#include "data/dataset.h"
#include "des/random.h"
#include "des/zipf.h"

namespace airindex {

/// One generated user request.
struct Query {
  /// The key the mobile client asks for — a view into the Dataset's
  /// interned key storage (its key pool or the precomputed absent-key
  /// table), valid as long as the dataset outlives the query. Carrying a
  /// view keeps query generation allocation-free on the hot path.
  std::string_view key;
  /// Whether the key is actually on the broadcast (by construction).
  bool on_air = false;
  /// The drawn record's index in the dataset (== its Zipf rank) when
  /// on_air; -1 for an absent key.
  int record = -1;
};

/// Session workload of the stateful-client extension: queries arrive in
/// sessions of `length`, and every non-initial query of a session
/// repeats the previous query's key with probability
/// `repeat_probability` (temporal locality). The defaults — and any
/// combination where no repeat is possible — consume no extra RNG
/// draws, so the paper's stateless request stream stays byte-identical.
struct SessionWorkload {
  int length = 1;
  double repeat_probability = 0.0;

  /// True when a repeat draw can ever happen.
  bool active() const { return length > 1 && repeat_probability > 0.0; }
};

/// The immutable half of the client's request process (paper Section 3:
/// requests are produced "periodically based on certain distribution
/// ... the request generation process follows exponential
/// distribution"): the dataset, the availability, the mean gap, the
/// popularity table and the session workload. One model is shared
/// read-only by every RequestStream drawing from it.
///
/// Keys are drawn from the broadcast records with probability
/// `data_availability`, otherwise uniformly from the dataset's
/// guaranteed-absent keys (which interleave the present ones, so misses
/// walk the same index paths as hits). Present keys are uniform by
/// default; with zipf_theta > 0 they follow Zipf(theta) by record rank.
class RequestModel {
 public:
  /// `shared_zipf`, when non-null, is used instead of constructing a
  /// Zipf table locally; it must match (dataset->size(), zipf_theta) and
  /// outlive the model. Sampling from it is identical to a locally built
  /// table. `dataset` must outlive the model.
  RequestModel(const Dataset* dataset, double data_availability,
               double mean_interval_bytes, double zipf_theta = 0.0,
               const ZipfDistribution* shared_zipf = nullptr,
               SessionWorkload session = {})
      : dataset_(dataset),
        data_availability_(data_availability),
        mean_interval_bytes_(mean_interval_bytes),
        zipf_(shared_zipf),
        session_(session) {
    if (zipf_ == nullptr && zipf_theta > 0.0) {
      zipf_ = &owned_zipf_.emplace(dataset->size(), zipf_theta);
    }
  }

  /// Not copyable: zipf_ may point into owned_zipf_.
  RequestModel(const RequestModel&) = delete;
  RequestModel& operator=(const RequestModel&) = delete;

 private:
  friend class RequestStream;

  const Dataset* dataset_;
  double data_availability_;
  double mean_interval_bytes_;
  std::optional<ZipfDistribution> owned_zipf_;
  /// Points at owned_zipf_ or the shared table; nullptr = uniform.
  const ZipfDistribution* zipf_ = nullptr;
  SessionWorkload session_;
};

/// The per-client half: one client's RNG, its position in the current
/// session and its last query. Draws are a pure function of the stream's
/// seed and the model, so a client seeded like replication i draws
/// replication i's requests.
class RequestStream {
 public:
  explicit RequestStream(Rng rng) : rng_(rng) {}

  /// Bytes until the next request arrives (exponential draw, >= 1).
  Bytes NextInterArrival(const RequestModel& model) {
    const double draw = rng_.NextExponential(model.mean_interval_bytes_);
    return std::max<Bytes>(1, static_cast<Bytes>(std::llround(draw)));
  }

  /// Draws the next query.
  Query NextQuery(const RequestModel& model) {
    const Dataset& dataset = *model.dataset_;
    // Session repeat draw first: only when a repeat is possible at all
    // (active workload, non-initial query, previous query known), so the
    // stateless default consumes exactly the draws it always did.
    if (model.session_.active()) {
      if (session_remaining_ <= 0) session_remaining_ = model.session_.length;
      const bool initial = session_remaining_ == model.session_.length;
      --session_remaining_;
      if (!initial && last_code_ != kNoLast &&
          rng_.NextBernoulli(model.session_.repeat_probability)) {
        return QueryOf(dataset, last_code_);
      }
    }
    if (rng_.NextBernoulli(model.data_availability_)) {
      last_code_ = static_cast<std::int32_t>(
          model.zipf_ != nullptr
              ? model.zipf_->Sample(&rng_)
              : static_cast<int>(rng_.NextBounded(
                    static_cast<std::uint64_t>(dataset.size()))));
    } else {
      last_code_ = -1 - static_cast<std::int32_t>(rng_.NextBounded(
                            static_cast<std::uint64_t>(dataset.size() + 1)));
    }
    return QueryOf(dataset, last_code_);
  }

 private:
  /// Record code of "no query yet".
  static constexpr std::int32_t kNoLast =
      std::numeric_limits<std::int32_t>::min();

  /// Code >= 0 is on-air record `code`; code < 0 is absent key -1 - code.
  static Query QueryOf(const Dataset& dataset, std::int32_t code) {
    if (code >= 0) return Query{dataset.record(code).key, true, code};
    return Query{dataset.absent_key(-1 - code), false, -1};
  }

  Rng rng_;
  /// Queries remaining in the current session (counting the one about
  /// to be drawn); the session boundary resets the repeat chain.
  std::int32_t session_remaining_ = 0;
  /// The last query as a record code (see QueryOf), or kNoLast.
  std::int32_t last_code_ = kNoLast;
};

}  // namespace airindex

#endif  // AIRINDEX_CLIENT_REQUEST_STREAM_H_
