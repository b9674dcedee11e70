#include "client/session_client.h"

#include <utility>

#include "des/random.h"

namespace airindex {

SessionClient::SessionClient(const Dataset* dataset,
                             const SessionClientParams& params,
                             std::vector<double> broadcast_frequencies,
                             RecordFetcher* fetcher)
    : dataset_(dataset),
      params_(params),
      fetcher_(fetcher),
      cache_(params.cache_capacity, params.cache_policy,
             static_cast<int>(dataset->size()),
             std::move(broadcast_frequencies)) {}

std::int64_t SessionClient::ServerVersion(int record_index, Bytes now) const {
  // Real versions from the dynamic-dataset layer take precedence; the
  // synthetic schedule below is the static-dataset approximation.
  if (params_.versions != nullptr) {
    return params_.versions->Version(record_index, now);
  }
  if (params_.update_period <= 0) return 0;
  const Bytes phase = static_cast<Bytes>(
      Mix64(params_.update_seed ^ static_cast<std::uint64_t>(record_index)) %
      static_cast<std::uint64_t>(params_.update_period));
  return (now + phase) / params_.update_period;
}

AccessResult SessionClient::Access(std::string_view key, Bytes tune_in) {
  ++session_queries_;
  if (ClientCache::Entry* entry = cache_.Find(key); entry != nullptr) {
    const int record_index = entry->record_index;
    cache_.RecordAccess(record_index);
    if (params_.update_period > 0) {
      // Validate against the signature/index segment on air. The read is
      // tuning-only: the filter rides a segment the client would listen
      // to anyway, so no broadcast bytes elapse.
      validation_bytes_ += params_.validation_bytes;
      // Stale when the version on air has advanced past the one the
      // cached copy was validated at. Refetched copies are stamped at
      // *this* tune-in — the version the validation segment describes;
      // a record updated mid-walk is caught by the next validation.
      if (ServerVersion(record_index, tune_in) > entry->version) {
        ++invalidations_;
        ++misses_;
        cache_.Erase(key);
        AccessResult result = fetcher_->Fetch(key, tune_in);
        result.tuning_time += params_.validation_bytes;
        if (result.found && !result.abandoned) {
          cache_.Insert(key, record_index,
                        ServerVersion(record_index, tune_in));
        }
        return result;
      }
      ++hits_;
      AccessResult hit;
      hit.found = true;
      hit.tuning_time = params_.validation_bytes;
      hit_bytes_ += hit.access_time;
      return hit;
    }
    ++hits_;
    AccessResult hit;
    hit.found = true;
    hit_bytes_ += hit.access_time;
    return hit;
  }
  ++misses_;
  AccessResult result = fetcher_->Fetch(key, tune_in);
  if (result.found && !result.abandoned) {
    const int record_index = dataset_->FindIndex(key);
    if (record_index >= 0) {
      cache_.RecordAccess(record_index);
      cache_.Insert(key, record_index, ServerVersion(record_index, tune_in));
    }
  }
  return result;
}

void SessionClient::WarmInsert(std::string_view key, Bytes now) {
  const int record_index = dataset_->FindIndex(key);
  if (record_index < 0) return;
  ++warm_inserts_;
  cache_.RecordAccess(record_index);
  if (ClientCache::Entry* entry = cache_.Find(key); entry != nullptr) {
    entry->version = ServerVersion(record_index, now);
    return;
  }
  cache_.Insert(key, record_index, ServerVersion(record_index, now));
}

std::vector<double> BroadcastFrequencies(
    const std::vector<const ArenaChannelView*>& channels, int num_records) {
  std::vector<double> frequencies(
      static_cast<std::size_t>(std::max(num_records, 0)), 0.0);
  for (const ArenaChannelView* channel : channels) {
    if (channel == nullptr || channel->cycle_bytes() <= 0) continue;
    const double per_cycle =
        1.0 / static_cast<double>(channel->cycle_bytes());
    for (std::size_t i = 0; i < channel->num_buckets(); ++i) {
      const auto bucket = channel->bucket(i);
      if (bucket.kind() != BucketKind::kData || bucket.record_id() < 0) {
        continue;
      }
      if (bucket.record_id() >= num_records) continue;
      frequencies[static_cast<std::size_t>(bucket.record_id())] += per_cycle;
    }
  }
  return frequencies;
}

}  // namespace airindex
