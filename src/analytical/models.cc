#include "analytical/models.h"

#include <algorithm>
#include <cmath>

namespace airindex {

namespace {

double Pow(double base, int exponent) {
  return std::pow(base, static_cast<double>(exponent));
}

}  // namespace

AnalyticalEstimate FlatModel(int num_records, const BucketGeometry& geometry) {
  const auto dt = static_cast<double>(geometry.data_bucket_bytes());
  const auto n = static_cast<double>(num_records);
  AnalyticalEstimate estimate;
  // Initial wait of half a bucket, then on average (N+1)/2 buckets until
  // the requested record has been read.
  estimate.access_time = (0.5 + (n + 1.0) / 2.0) * dt;
  estimate.tuning_time = estimate.access_time;
  return estimate;
}

BTreeModelShape BTreeShape(int num_records, const BucketGeometry& geometry) {
  const int fanout = geometry.index_fanout();
  BTreeModelShape shape;
  // k = ceil(log_n(Nr)): number of index levels of the complete tree.
  double capacity = 1.0;
  while (capacity < static_cast<double>(num_records)) {
    capacity *= fanout;
    ++shape.levels;
  }
  shape.levels = std::max(shape.levels, 1);
  // I = 1 + n + ... + n^(k-1) = (n^k - 1)/(n - 1).
  shape.index_buckets = (Pow(fanout, shape.levels) - 1.0) /
                        (static_cast<double>(fanout) - 1.0);
  return shape;
}

AnalyticalEstimate DistributedModel(int num_records,
                                    const BucketGeometry& geometry, int r) {
  const auto dt = static_cast<double>(geometry.data_bucket_bytes());
  const auto n = static_cast<double>(geometry.index_fanout());
  const BTreeModelShape shape = BTreeShape(num_records, geometry);
  const int k = shape.levels;
  const auto nr = static_cast<double>(num_records);
  r = std::clamp(r, 0, k - 1);

  // Total index buckets: (n^(r+1) + n^k - n^r - n)/(n - 1); the cycle
  // also carries the Nr data buckets.
  const double index_buckets =
      (Pow(n, r + 1) + Pow(n, k) - Pow(n, r) - n) / (n - 1.0);
  const double total_buckets = index_buckets + nr;

  // Average index-segment length: non-replicated part (n^(k-r)-1)/(n-1)
  // plus replicated part (n^(r+1)-n)/(n^(r+1)-n^r); average data-segment
  // length Nr/n^r.
  const double avg_index_segment =
      (Pow(n, k - r) - 1.0) / (n - 1.0) +
      (r == 0 ? 0.0
              : (Pow(n, r + 1) - n) / (Pow(n, r + 1) - Pow(n, r)));
  const double avg_data_segment = nr / Pow(n, r);

  AnalyticalEstimate estimate;
  estimate.access_time =
      0.5 *
      (avg_index_segment + avg_data_segment + total_buckets + 1.0) * dt;
  estimate.tuning_time = (static_cast<double>(k) + 1.5) * dt;
  return estimate;
}

BTreeLevelCounts ComputeBTreeLevels(int num_records, int fanout) {
  BTreeLevelCounts levels;
  // Bottom-up, mirroring BTree::Build: leaves first, then parents.
  std::vector<long long> bottom_up;
  long long count =
      (static_cast<long long>(num_records) + fanout - 1) / fanout;
  bottom_up.push_back(count);
  while (count > 1) {
    count = (count + fanout - 1) / fanout;
    bottom_up.push_back(count);
  }
  levels.height = static_cast<int>(bottom_up.size());
  levels.count_at_depth.assign(bottom_up.rbegin(), bottom_up.rend());
  return levels;
}

AnalyticalEstimate OneMModelExact(int num_records,
                                  const BucketGeometry& geometry, int m) {
  const auto dt = static_cast<double>(geometry.data_bucket_bytes());
  const BTreeLevelCounts levels =
      ComputeBTreeLevels(num_records, geometry.index_fanout());
  double index_buckets = 0;
  for (const long long c : levels.count_at_depth) {
    index_buckets += static_cast<double>(c);
  }
  const auto nr = static_cast<double>(num_records);
  const double cycle = static_cast<double>(m) * index_buckets + nr;

  AnalyticalEstimate estimate;
  estimate.access_time =
      0.5 * (1.0 + (index_buckets + nr / static_cast<double>(m)) + cycle) * dt;
  estimate.tuning_time = (static_cast<double>(levels.height) + 2.5) * dt;
  return estimate;
}

double OneMFleetAccessQuantile(int num_records,
                               const BucketGeometry& geometry, int m,
                               double q) {
  q = std::clamp(q, 0.0, 1.0);
  const auto dt = static_cast<double>(geometry.data_bucket_bytes());
  const BTreeLevelCounts levels =
      ComputeBTreeLevels(num_records, geometry.index_fanout());
  double index_buckets = 0;
  for (const long long c : levels.count_at_depth) {
    index_buckets += static_cast<double>(c);
  }
  const auto nr = static_cast<double>(num_records);
  // Segment wait a = U(0, S), data wait b = U(0, C); a <= b since a
  // segment never exceeds the cycle (m >= 1).
  const double a =
      (index_buckets + nr / static_cast<double>(m)) * dt;
  const double b = (static_cast<double>(m) * index_buckets + nr) * dt;
  // Shift so the trapezoid's mean (a + b) / 2 lands on the exact model
  // mean: the residue is the phase-independent part of the walk.
  const double shift =
      OneMModelExact(num_records, geometry, m).access_time -
      0.5 * (a + b);
  double z;
  if (a <= 0.0) {
    z = q * b;  // degenerate: single uniform
  } else if (q <= 0.5 * a / b) {
    z = std::sqrt(2.0 * a * b * q);  // rising edge
  } else if (q <= 1.0 - 0.5 * a / b) {
    z = q * b + 0.5 * a;  // flat top
  } else {
    z = a + b - std::sqrt(2.0 * a * b * (1.0 - q));  // falling edge
  }
  return shift + z;
}

int OneMOptimalMExact(int num_records, const BucketGeometry& geometry) {
  const BTreeLevelCounts levels =
      ComputeBTreeLevels(num_records, geometry.index_fanout());
  double index_buckets = 0;
  for (const long long c : levels.count_at_depth) {
    index_buckets += static_cast<double>(c);
  }
  const int m = static_cast<int>(std::lround(
      std::sqrt(static_cast<double>(num_records) / index_buckets)));
  return std::clamp(m, 1, num_records);
}

AnalyticalEstimate DistributedModelExact(int num_records,
                                         const BucketGeometry& geometry,
                                         int r) {
  const auto dt = static_cast<double>(geometry.data_bucket_bytes());
  const BTreeLevelCounts levels =
      ComputeBTreeLevels(num_records, geometry.index_fanout());
  const int k = levels.height;
  r = std::clamp(r, 0, k - 1);
  const auto nr = static_cast<double>(num_records);

  // A replicated node at depth d < r is broadcast once per child, i.e.
  // count(d+1) occurrences in total; non-replicated nodes once each.
  double replicated_broadcasts = 0;
  for (int d = 0; d < r; ++d) {
    replicated_broadcasts +=
        static_cast<double>(levels.count_at_depth[static_cast<std::size_t>(
            d + 1)]);
  }
  double non_replicated = 0;
  for (int d = r; d < k; ++d) {
    non_replicated += static_cast<double>(
        levels.count_at_depth[static_cast<std::size_t>(d)]);
  }
  const double segments =
      static_cast<double>(levels.count_at_depth[static_cast<std::size_t>(r)]);
  const double total_index = replicated_broadcasts + non_replicated;
  const double total_buckets = total_index + nr;
  const double avg_index_segment = total_index / segments;
  const double avg_data_segment = nr / segments;

  AnalyticalEstimate estimate;
  estimate.access_time =
      0.5 * (avg_index_segment + avg_data_segment + total_buckets + 1.0) * dt;
  estimate.tuning_time = (static_cast<double>(k) + 1.5) * dt;
  return estimate;
}

int DistributedOptimalRExact(int num_records, const BucketGeometry& geometry) {
  const BTreeLevelCounts levels =
      ComputeBTreeLevels(num_records, geometry.index_fanout());
  int best_r = 0;
  double best_access =
      DistributedModelExact(num_records, geometry, 0).access_time;
  for (int r = 1; r < levels.height; ++r) {
    const double access =
        DistributedModelExact(num_records, geometry, r).access_time;
    if (access < best_access) {
      best_access = access;
      best_r = r;
    }
  }
  return best_r;
}

double ExpectedHashCollisions(int num_records, int allocated) {
  const auto nr = static_cast<double>(num_records);
  const auto na = static_cast<double>(allocated);
  // A slot is non-empty with probability 1-(1-1/Na)^Nr; every record
  // beyond the first in a slot is displaced.
  const double nonempty = na * (1.0 - std::pow(1.0 - 1.0 / na, nr));
  return nr - nonempty;
}

AnalyticalEstimate HashingModel(int num_records, int allocated, int colliding,
                                const BucketGeometry& geometry) {
  const auto dt = static_cast<double>(geometry.data_bucket_bytes());
  const auto nr = static_cast<double>(num_records);
  const auto na = static_cast<double>(allocated);
  const auto nc = static_cast<double>(colliding);
  const double n_total = na + nc;

  // The paper's three tune-in scenarios for reaching the hashing
  // position (Section 2.2).
  const double ht1 = (nc / n_total) * 0.5 * (nc + na);
  const double ht2 = 0.5 * (na / n_total) * (na / 3.0);
  const double ht3 = 0.5 * (na / n_total) * (na / 3.0 + nc + na / 3.0);
  const double ht = ht1 + ht2 + ht3;
  const double st = nc / 2.0;
  const double ct = nc / nr;

  AnalyticalEstimate estimate;
  estimate.access_time = (0.5 + ht + st + ct + 1.0) * dt;
  // Initial wait + first probe + hashing-position probe + overflow chain
  // + download, plus one extra probe when the record already passed.
  const double extra = (nc + 0.5 * nr) / (nc + nr);
  estimate.tuning_time = (0.5 + extra + ct + 3.0) * dt;
  return estimate;
}

double TheoreticalFalseDropRate(const BucketGeometry& geometry,
                                int bits_per_attribute, int num_attributes) {
  const double bits = static_cast<double>(geometry.signature_bytes) * 8.0;
  const auto s = static_cast<double>(bits_per_attribute);
  const double fields = static_cast<double>(num_attributes) + 1.0;
  const double set_fraction = 1.0 - std::pow(1.0 - 1.0 / bits, s * fields);
  return std::pow(set_fraction, s);
}

AnalyticalEstimate SignatureModel(int num_records,
                                  const BucketGeometry& geometry,
                                  double false_drop_rate) {
  const auto dt = static_cast<double>(geometry.data_bucket_bytes());
  const auto it = static_cast<double>(geometry.signature_bucket_bytes());
  const auto nr = static_cast<double>(num_records);

  AnalyticalEstimate estimate;
  estimate.access_time = 0.5 * (dt + it) * (nr + 1.0);
  const double false_drops = false_drop_rate * nr / 2.0;
  estimate.tuning_time = 0.5 * (nr + 1.0) * it + (false_drops + 0.5) * dt;
  return estimate;
}

namespace {

/// Re-alignment wait after a hop of cost C on a uniform-bucket channel:
/// the client comes back mid-bucket unless C is a bucket multiple.
double HopResidualWait(double bucket_bytes, double switch_cost) {
  const double rem =
      switch_cost - bucket_bytes * std::floor(switch_cost / bucket_bytes);
  return rem == 0.0 ? 0.0 : bucket_bytes - rem;
}

}  // namespace

AnalyticalEstimate DataPartitionedModel(const AnalyticalEstimate& per_partition,
                                        int num_channels,
                                        const BucketGeometry& geometry,
                                        Bytes switch_cost_bytes) {
  const auto dt = static_cast<double>(geometry.data_bucket_bytes());
  const auto n = static_cast<double>(num_channels);
  const auto c = static_cast<double>(switch_cost_bytes);
  const double p_hop = (n - 1.0) / n;
  const double res = HopResidualWait(dt, c);

  // One directory bucket on top of the partition walk; the partition
  // model's own expected initial wait (Dt/2) stands in for the
  // post-directory / post-hop re-alignment, corrected by the hop
  // residual.
  AnalyticalEstimate estimate;
  estimate.access_time = dt + per_partition.access_time + p_hop * (c + res);
  estimate.tuning_time = dt + per_partition.tuning_time + p_hop * res;
  return estimate;
}

AnalyticalEstimate IndexOnOneModel(int num_records,
                                   const BucketGeometry& geometry,
                                   int num_channels,
                                   Bytes switch_cost_bytes) {
  const auto dt = static_cast<double>(geometry.data_bucket_bytes());
  const auto c = static_cast<double>(switch_cost_bytes);
  const BTreeLevelCounts levels =
      ComputeBTreeLevels(num_records, geometry.index_fanout());
  double index_buckets = 0.0;
  for (const long long count : levels.count_at_depth) {
    index_buckets += static_cast<double>(count);
  }
  const double k = static_cast<double>(levels.height);
  const double partition_records = static_cast<double>(num_records) /
                                   static_cast<double>(num_channels - 1);

  // Initial wait + first bucket, wait for the preorder root (half the
  // index cycle), descent to the leaf (half the preorder on average),
  // one hop to the data channel, half the data cycle, download.
  AnalyticalEstimate estimate;
  estimate.access_time = 1.5 * dt + 0.5 * index_buckets * dt +
                         (0.5 * index_buckets * dt + dt) + c +
                         HopResidualWait(dt, c) +
                         0.5 * partition_records * dt + dt;
  // Listening: initial wait + first bucket + k index levels + download.
  estimate.tuning_time = 1.5 * dt + k * dt + dt;
  return estimate;
}

AnalyticalEstimate ReplicatedIndexModel(int num_records,
                                        const BucketGeometry& geometry,
                                        int num_channels,
                                        Bytes switch_cost_bytes) {
  const auto dt = static_cast<double>(geometry.data_bucket_bytes());
  const auto n = static_cast<double>(num_channels);
  const auto c = static_cast<double>(switch_cost_bytes);
  const BTreeLevelCounts levels =
      ComputeBTreeLevels(num_records, geometry.index_fanout());
  double index_buckets = 0.0;
  for (const long long count : levels.count_at_depth) {
    index_buckets += static_cast<double>(count);
  }
  const double k = static_cast<double>(levels.height);
  const double cycle =
      (index_buckets + static_cast<double>(num_records) / n) * dt;
  const double p_hop = (n - 1.0) / n;

  // Initial wait + first bucket, wait for the index start (half the
  // channel cycle), descent (half the preorder), the probabilistic hop,
  // the data wait (half a cycle; the data region is a cycle fraction on
  // the target channel), download.
  AnalyticalEstimate estimate;
  estimate.access_time = 1.5 * dt + 0.5 * cycle +
                         (0.5 * index_buckets * dt + dt) +
                         p_hop * (c + HopResidualWait(dt, c)) + 0.5 * cycle +
                         dt;
  estimate.tuning_time = 1.5 * dt + k * dt + dt;
  return estimate;
}


double SquareRootRuleBound(const std::vector<double>& popularity,
                           Bytes bucket_bytes) {
  const auto dt = static_cast<double>(bucket_bytes);
  double sqrt_sum = 0.0;
  for (const double p : popularity) sqrt_sum += std::sqrt(std::max(p, 0.0));
  return 0.5 * dt * sqrt_sum * sqrt_sum + dt;
}

double ScheduledScanAccessModel(
    const std::vector<std::vector<int>>& record_slots, std::int64_t num_slots,
    Bytes bucket_bytes, const std::vector<double>& popularity) {
  const auto dt = static_cast<double>(bucket_bytes);
  const auto slots = static_cast<double>(num_slots);
  double expected = 0.0;
  for (std::size_t i = 0;
       i < record_slots.size() && i < popularity.size(); ++i) {
    const std::vector<int>& occ = record_slots[i];
    if (occ.empty()) continue;
    // Cyclic gap lengths between consecutive occurrences; a client whose
    // boundary phase lands in a gap of L slots reads 1..L buckets with
    // equal probability.
    double gap_sum = 0.0;
    for (std::size_t j = 0; j < occ.size(); ++j) {
      const std::int64_t next =
          j + 1 < occ.size() ? occ[j + 1]
                             : occ.front() + num_slots;
      const double gap = static_cast<double>(next - occ[j]);
      gap_sum += gap * (gap - 1.0) / 2.0;
    }
    expected += popularity[i] * (0.5 * dt + dt * gap_sum / slots + dt);
  }
  return expected;
}

}  // namespace airindex
