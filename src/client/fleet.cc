#include "client/fleet.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "client/request_stream.h"
#include "des/random.h"

namespace airindex {

namespace {

/// Calendar-wheel width (slots). Arrivals further than a lap away stay
/// parked in their slot and are re-examined one lap later; the width
/// only trades re-examinations against memory, never results.
constexpr std::int64_t kWheelSlots = 1024;
constexpr std::int64_t kWheelMask = kWheelSlots - 1;

}  // namespace

void FleetShardResult::Merge(const FleetShardResult& other) {
  clients += other.clients;
  queries += other.queries;
  found += other.found;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  access_bytes += other.access_bytes;
  tuning_bytes += other.tuning_bytes;
  index_probes += other.index_probes;
  bucket_probes += other.bucket_probes;
  channel_hops += other.channel_hops;
  switch_bytes += other.switch_bytes;
  if (tuning_bytes_per_channel.size() < other.tuning_bytes_per_channel.size()) {
    tuning_bytes_per_channel.resize(other.tuning_bytes_per_channel.size(), 0);
  }
  for (std::size_t c = 0; c < other.tuning_bytes_per_channel.size(); ++c) {
    tuning_bytes_per_channel[c] += other.tuning_bytes_per_channel[c];
  }
  access_histogram.Merge(other.access_histogram);
  tuning_histogram.Merge(other.tuning_histogram);
  hits_per_client.Merge(other.hits_per_client);
  wake_events += other.wake_events;
  slots_scanned += other.slots_scanned;
  wake_batch_peak = std::max(wake_batch_peak, other.wake_batch_peak);
}

FleetShardResult RunFleetShard(const BroadcastScheme& scheme,
                               const Dataset& dataset,
                               const FleetParams& params,
                               std::int64_t first_client,
                               std::int64_t last_client,
                               const ZipfDistribution* shared_zipf) {
  FleetShardResult result;
  if (last_client <= first_client || params.queries_per_client <= 0) {
    return result;
  }
  const auto count = static_cast<std::size_t>(last_client - first_client);
  const int capacity = std::min(params.cache_capacity, kFleetCacheBits);
  const bool cache_on = capacity > 0;
  const bool lossy = params.error_model.bucket_error_rate > 0.0;
  const RequestModel model(
      &dataset, params.data_availability, params.mean_request_interval_bytes,
      params.zipf_theta, shared_zipf,
      SessionWorkload{params.session_length, params.repeat_probability});

  // One calendar slot is one average bucket of the cycle.
  const ArenaChannelView& view = scheme.view();
  const Bytes slot_bytes = std::max<Bytes>(
      1, view.cycle_bytes() / static_cast<Bytes>(std::max<std::size_t>(
                                  1, view.num_buckets())));

  // Struct-of-arrays client state (~64 bytes per client).
  std::vector<RequestStream> stream(count, RequestStream(Rng(0)));
  std::vector<Rng> error_rng(lossy ? count : 0, Rng(0));
  std::vector<Bytes> wake(count, 0);
  std::vector<std::int32_t> queries_done(count, 0);
  std::vector<std::uint64_t> cache_bits(count, 0);
  std::vector<std::int32_t> client_hits(count, 0);

  std::vector<std::vector<std::uint32_t>> wheel(
      static_cast<std::size_t>(kWheelSlots));
  for (std::size_t i = 0; i < count; ++i) {
    // Client id -> streams: exactly RunReplication's seeding and split
    // order, so client i draws and walks as single-client replication i.
    Rng master(
        ReplicationSeed(params.seed, static_cast<std::uint64_t>(
                                         first_client +
                                         static_cast<std::int64_t>(i))));
    stream[i] = RequestStream(master.Split());
    if (lossy) error_rng[i] = master.Split();
    wake[i] = stream[i].NextInterArrival(model);
    wheel[static_cast<std::size_t>((wake[i] / slot_bytes) & kWheelMask)]
        .push_back(static_cast<std::uint32_t>(i));
  }
  result.clients = static_cast<std::int64_t>(count);

  // Serves the query arriving at byte time t for local client ci: the
  // client's next query, then the SessionClient hit/miss split over the
  // residency bits, with every miss walked over the air.
  const auto serve_query = [&](std::uint32_t ci, Bytes t) {
    const Query query = stream[ci].NextQuery(model);
    const bool resident_rank =
        cache_on && query.on_air && query.record < kFleetCacheBits;

    ++result.queries;
    // Fresh hit: zero access, zero tuning — exactly SessionClient's hit
    // AccessResult (the histograms record the zeros).
    if (resident_rank && (cache_bits[ci] >> query.record) & 1u) {
      ++result.cache_hits;
      ++client_hits[ci];
      ++result.found;
      result.access_histogram.Add(0);
      result.tuning_histogram.Add(0);
      return;
    }
    if (cache_on) ++result.cache_misses;

    const AccessResult access =
        AirWalk(scheme, query.key, t, params.error_model, params.deadline,
                lossy ? &error_rng[ci] : nullptr);
    if (access.found) ++result.found;
    result.access_bytes += access.access_time;
    result.tuning_bytes += access.tuning_time;
    result.index_probes += access.index_probes;
    result.bucket_probes += access.probes;
    result.channel_hops += access.channel_hops;
    result.switch_bytes += access.switch_bytes;
    AddTuningByChannel(access, &result.tuning_bytes_per_channel);
    result.access_histogram.Add(access.access_time);
    result.tuning_histogram.Add(access.tuning_time);

    if (resident_rank && access.found && !access.abandoned) {
      cache_bits[ci] |= std::uint64_t{1} << query.record;
      // Top-score steady state: keep the `capacity` hottest ranks among
      // residents plus the newcomer (rank == record index under the
      // Zipf-ranked workload), so the victim is the highest resident
      // index — possibly the newcomer itself.
      if (std::popcount(cache_bits[ci]) > capacity) {
        const int victim = 63 - std::countl_zero(cache_bits[ci]);
        cache_bits[ci] &= ~(std::uint64_t{1} << victim);
      }
    }
  };

  // Batched bucket-pass loop: advance the calendar one slot at a time,
  // service every client due in that slot, park the rest for a later
  // lap. Cross-client order inside a slot cannot affect results — every
  // statistic is a commutative integer sum and every client draws from
  // its own stream.
  std::int64_t active = static_cast<std::int64_t>(count);
  std::vector<std::uint32_t> due;
  std::int64_t s = 0;
  const auto total_queries =
      static_cast<std::int32_t>(params.queries_per_client);
  while (active > 0) {
    auto& cell = wheel[static_cast<std::size_t>(s & kWheelMask)];
    due.clear();
    std::size_t keep = 0;
    for (const std::uint32_t ci : cell) {
      if (wake[ci] / slot_bytes == s) {
        due.push_back(ci);
      } else {
        cell[keep++] = ci;  // a later lap of the wheel
      }
    }
    cell.resize(keep);
    ++result.slots_scanned;
    result.wake_batch_peak = std::max(
        result.wake_batch_peak, static_cast<std::int64_t>(due.size()));
    for (const std::uint32_t ci : due) {
      ++result.wake_events;
      Bytes t = wake[ci];
      for (;;) {
        serve_query(ci, t);
        if (++queries_done[ci] >= total_queries) {
          --active;
          break;
        }
        t += stream[ci].NextInterArrival(model);
        if (t / slot_bytes == s) continue;  // next arrival still due now
        wake[ci] = t;
        wheel[static_cast<std::size_t>((t / slot_bytes) & kWheelMask)]
            .push_back(ci);
        break;
      }
    }
    ++s;
  }

  if (cache_on) {
    for (std::size_t i = 0; i < count; ++i) {
      result.hits_per_client.Add(client_hits[i]);
    }
  }
  return result;
}

}  // namespace airindex
