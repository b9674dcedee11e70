#include "client/fleet.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>

#include "des/random.h"

namespace airindex {

namespace {

/// Calendar-wheel width (slots). Arrivals further than a lap away stay
/// parked in their slot and are re-examined one lap later; the width
/// only trades re-examinations against memory, never results.
constexpr std::int64_t kWheelSlots = 1024;
constexpr std::int64_t kWheelMask = kWheelSlots - 1;

/// Residency bits cover the 64 hottest record ranks.
constexpr int kResidencyBits = 64;

/// last-query encoding: >= 0 is an on-air record index, < kNoLast+1 ...
/// -1-a is absent-key index a, kNoLast is "no previous query".
constexpr std::int32_t kNoLast = INT32_MIN;

/// Mirrors RequestGenerator::NextInterArrival exactly (same draw, same
/// rounding, same floor of one byte).
Bytes NextInterArrival(Rng* rng, double mean) {
  const double draw = rng->NextExponential(mean);
  return std::max<Bytes>(1, static_cast<Bytes>(std::llround(draw)));
}

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
  const int num_records = dataset.size();
  const int capacity = std::min(params.cache_capacity, kResidencyBits);
  const bool cache_on = capacity > 0;
  const bool session_active =
      params.session_length > 1 && params.repeat_probability > 0.0;

  std::optional<ZipfDistribution> owned_zipf;
  const ZipfDistribution* zipf = shared_zipf;
  if (zipf == nullptr && params.zipf_theta > 0.0) {
    owned_zipf.emplace(num_records, params.zipf_theta);
    zipf = &*owned_zipf;
  }

  const ArenaChannelView& view = scheme.view();
  Bytes slot_bytes = params.slot_bytes;
  if (slot_bytes <= 0) {
    const auto buckets =
        static_cast<std::int64_t>(std::max<std::size_t>(
            1, view.num_buckets()));
    slot_bytes = std::max<Bytes>(1, view.cycle_bytes() / buckets);
  }

  // Struct-of-arrays client state (~64 bytes per client).
  std::vector<Rng> rng(count, Rng(0));
  std::vector<Bytes> wake(count, 0);
  std::vector<std::int32_t> last_code(count, kNoLast);
  std::vector<std::int32_t> session_remaining(count, 0);
  std::vector<std::int32_t> queries_done(count, 0);
  std::vector<std::uint64_t> cache_bits(count, 0);
  std::vector<std::int32_t> client_hits(count, 0);

  std::vector<std::vector<std::uint32_t>> wheel(
      static_cast<std::size_t>(kWheelSlots));
  for (std::size_t i = 0; i < count; ++i) {
    // Client id -> stream: exactly RunReplication's seeding, so client i
    // draws the request stream of single-client replication i.
    Rng master(
        ReplicationSeed(params.seed, static_cast<std::uint64_t>(
                                         first_client +
                                         static_cast<std::int64_t>(i))));
    rng[i] = master.Split();
    wake[i] = NextInterArrival(&rng[i], params.mean_request_interval_bytes);
    wheel[static_cast<std::size_t>((wake[i] / slot_bytes) & kWheelMask)]
        .push_back(static_cast<std::uint32_t>(i));
  }
  result.clients = static_cast<std::int64_t>(count);

  // Serves the query arriving at byte time t for local client ci;
  // mirrors RequestGenerator::NextQuery's draw order exactly, then the
  // SessionClient hit/miss split over the residency bits.
  const auto serve_query = [&](std::uint32_t ci, Bytes t) {
    Rng& r = rng[ci];
    std::int32_t code = kNoLast;
    bool repeated = false;
    if (session_active) {
      if (session_remaining[ci] <= 0) {
        session_remaining[ci] =
            static_cast<std::int32_t>(params.session_length);
      }
      const bool initial =
          session_remaining[ci] ==
          static_cast<std::int32_t>(params.session_length);
      --session_remaining[ci];
      if (!initial && last_code[ci] != kNoLast &&
          r.NextBernoulli(params.repeat_probability)) {
        code = last_code[ci];
        repeated = true;
      }
    }
    if (!repeated) {
      const bool on_air = r.NextBernoulli(params.data_availability);
      if (on_air) {
        const int index =
            zipf != nullptr
                ? zipf->Sample(&r)
                : static_cast<int>(r.NextBounded(
                      static_cast<std::uint64_t>(num_records)));
        code = static_cast<std::int32_t>(index);
      } else {
        const auto index = static_cast<int>(r.NextBounded(
            static_cast<std::uint64_t>(num_records + 1)));
        code = static_cast<std::int32_t>(-index - 1);
      }
      last_code[ci] = code;
    }
    const bool on_air = code >= 0;
    const int index = on_air ? static_cast<int>(code)
                             : static_cast<int>(-code - 1);

    ++result.queries;
    // Fresh hit: zero access, zero tuning — exactly SessionClient's hit
    // AccessResult (the histograms record the zeros).
    if (cache_on && on_air && index < kResidencyBits &&
        (cache_bits[ci] >> index) & 1u) {
      ++result.cache_hits;
      ++client_hits[ci];
      ++result.found;
      result.access_histogram.Add(0);
      result.tuning_histogram.Add(0);
      return;
    }
    if (cache_on) ++result.cache_misses;

    const std::string_view key =
        on_air ? std::string_view(dataset.record(index).key)
               : dataset.absent_key(index);
    const AccessResult access = scheme.Access(key, t);
    if (access.found) ++result.found;
    result.access_bytes += access.access_time;
    result.tuning_bytes += access.tuning_time;
    result.index_probes += access.index_probes;
    result.bucket_probes += access.probes;
    result.channel_hops += access.channel_hops;
    result.switch_bytes += access.switch_bytes;
    const auto top = static_cast<std::size_t>(
        std::max<int>(access.start_channel, access.final_channel));
    if (top >= result.tuning_bytes_per_channel.size()) {
      result.tuning_bytes_per_channel.resize(top + 1, 0);
    }
    if (access.start_channel == access.final_channel) {
      result.tuning_bytes_per_channel[static_cast<std::size_t>(
          access.final_channel)] += access.tuning_time;
    } else {
      result.tuning_bytes_per_channel[static_cast<std::size_t>(
          access.final_channel)] += access.final_channel_tuning;
      result.tuning_bytes_per_channel[static_cast<std::size_t>(
          access.start_channel)] +=
          access.tuning_time - access.final_channel_tuning;
    }
    result.access_histogram.Add(access.access_time);
    result.tuning_histogram.Add(access.tuning_time);

    if (cache_on && on_air && index < kResidencyBits && access.found &&
        !access.abandoned) {
      cache_bits[ci] |= std::uint64_t{1} << index;
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
        t += NextInterArrival(&rng[ci],
                              params.mean_request_interval_bytes);
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
