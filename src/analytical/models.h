// Layer: 4 (analytical) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_ANALYTICAL_MODELS_H_
#define AIRINDEX_ANALYTICAL_MODELS_H_

#include <cstdint>
#include <vector>

#include "broadcast/geometry.h"

namespace airindex {

/// Expected access and tuning time of a scheme, in bytes — the paper's
/// Section 2 closed forms. These are the "(A)" series of Figure 4; the
/// testbed produces the "(S)" series.
struct AnalyticalEstimate {
  double access_time = 0.0;
  double tuning_time = 0.0;
};

/// Flat broadcast: both metrics are about half the broadcast cycle
/// (Section 4.2), plus the initial wait and the final download.
AnalyticalEstimate FlatModel(int num_records, const BucketGeometry& geometry);

/// Full-tree properties used by the B+-tree models. The paper's formulas
/// assume a complete n-ary tree; k = ceil(log_n(Nr)).
struct BTreeModelShape {
  int levels = 0;          // k
  double index_buckets = 0;  // I: total nodes of the (complete) tree
};

/// Shape of the complete index tree the analytical formulas assume.
BTreeModelShape BTreeShape(int num_records, const BucketGeometry& geometry);

/// Distributed indexing with r replicated levels (paper Section 2.1):
///   At = 1/2 ((n^(k-r)-1)/(n-1) + (n^(r+1)-n)/(n^(r+1)-n^r)
///             + Nr/n^r + N + 1) * Dt
///   Tt = (k + 3/2) * Dt
/// where N counts all buckets of the cycle.
AnalyticalEstimate DistributedModel(int num_records,
                                    const BucketGeometry& geometry, int r);

/// Node counts of the *actual* (possibly incomplete) bottom-up B+ tree:
/// count_at_depth[0] == 1 is the root, count_at_depth[height-1] the leaf
/// level.
struct BTreeLevelCounts {
  std::vector<long long> count_at_depth;
  int height = 0;
};

/// Level counts of the tree BTree::Build produces, without building it.
BTreeLevelCounts ComputeBTreeLevels(int num_records, int fanout);

/// (1,m) indexing with the whole tree broadcast m times per cycle, over
/// the actual tree's index bucket count I. Derived exactly as the paper
/// derives distributed indexing:
/// At = initial wait + avg probe to next index segment + half cycle;
/// Tt = initial wait + first bucket + k tree levels + download.
/// This is the series to compare against simulation (the paper's
/// Figure 4 shows simulation matching analysis, which requires
/// consistent tree shapes).
AnalyticalEstimate OneMModelExact(int num_records,
                                  const BucketGeometry& geometry, int m);

/// Access-time-optimal m* = sqrt(Nr / I) (clamped to [1, Nr]) over the
/// actual tree size.
int OneMOptimalMExact(int num_records, const BucketGeometry& geometry);

/// Same formula structure as DistributedModel but with actual level
/// counts: replicated occurrences are sum of child counts, segments are
/// the real depth-r node count.
AnalyticalEstimate DistributedModelExact(int num_records,
                                         const BucketGeometry& geometry,
                                         int r);

/// r minimizing DistributedModelExact's access time.
int DistributedOptimalRExact(int num_records, const BucketGeometry& geometry);

/// Simple hashing (paper Section 2.2), assembled from the components the
/// paper derives: Ft + Ht(three tune-in scenarios) + St + Ct + Dt for
/// access; the four-probe expectation for tuning.
/// `allocated` is Na, `colliding` Nc; the cycle has N = Na + Nc buckets.
AnalyticalEstimate HashingModel(int num_records, int allocated, int colliding,
                                const BucketGeometry& geometry);

/// Expected number of colliding (displaced) records when hashing Nr
/// records uniformly into Na slots: Nr - Na * (1 - (1 - 1/Na)^Nr).
double ExpectedHashCollisions(int num_records, int allocated);

/// Theoretical false-drop probability of superimposed coding: a record
/// signature sets `bits_per_attribute` bits for the key and for each of
/// `num_attributes` attributes (with replacement) in a
/// (signature_bytes*8)-bit string; a key query of `bits_per_attribute`
/// bits false-drops on an unrelated record with probability ~f^s where
/// f = 1 - (1 - 1/B)^(s*(A+1)) is the expected fraction of set bits.
double TheoreticalFalseDropRate(const BucketGeometry& geometry,
                                int bits_per_attribute, int num_attributes);

/// Simple signature indexing (paper Section 2.3):
///   At = 1/2 (Dt + It)(Nr + 1)
///   Tt = 1/2 (Nr + 1) It + (Fd + 1/2) Dt
/// `false_drop_rate` is the per-signature false-drop probability; the
/// expected number of false drops on a scan of half the cycle is
/// Fd = false_drop_rate * Nr / 2.
AnalyticalEstimate SignatureModel(int num_records,
                                  const BucketGeometry& geometry,
                                  double false_drop_rate);

/// Closed-form access-time quantile of a fleet of (1,m) clients
/// (client/fleet.h), `q` in [0,1].
///
/// A client tuning in at a uniformly random phase waits U(0, S) to the
/// next index segment (S = segment bytes = (I + Nr/m) * Dt) and then
/// U(0, C) for its data bucket (C = cycle bytes; the offset of any
/// requested record from the segment start is uniform under a uniform
/// tune-in phase, for ANY record popularity). The access time is the sum
/// of the two independent uniforms — a trapezoidal density on [0, S+C] —
/// shifted by a constant so the distribution's mean equals
/// OneMModelExact's closed-form mean (the shift absorbs the initial
/// partial bucket and the index descent). Quantiles invert the
/// three-piece trapezoid CDF in closed form.
double OneMFleetAccessQuantile(int num_records,
                               const BucketGeometry& geometry, int m,
                               double q);

// --- multichannel models (schemes/multichannel.h strategies) ------------
//
// All three assume N synchronized channels on one byte clock and a
// client that starts on a uniformly random channel (index-on-one: always
// the index channel), pays `switch_cost_bytes` of dead air per hop, and
// hops at most once per request. The residual-wait term
// res = (Dt - C mod Dt) mod Dt is the re-alignment to the next bucket
// boundary after a hop of cost C.

/// Data-partitioned-by-key: each channel runs `per_partition` — the
/// single-channel estimate of the base scheme over Nr/N records. One
/// directory bucket tells the client its home channel; a hop happens with
/// probability (N-1)/N.
AnalyticalEstimate DataPartitionedModel(const AnalyticalEstimate& per_partition,
                                        int num_channels,
                                        const BucketGeometry& geometry,
                                        Bytes switch_cost_bytes);

/// Index-on-one: channel 0 cycles the global B+ tree (I buckets), the
/// other N-1 channels cycle flat data partitions of Nr/(N-1) records.
/// Every hit pays exactly one hop.
AnalyticalEstimate IndexOnOneModel(int num_records,
                                   const BucketGeometry& geometry,
                                   int num_channels, Bytes switch_cost_bytes);

/// Replicated-index: every channel cycles [global tree | its data
/// partition of Nr/N records]; only the final data jump hops, with
/// probability (N-1)/N.
AnalyticalEstimate ReplicatedIndexModel(int num_records,
                                        const BucketGeometry& geometry,
                                        int num_channels,
                                        Bytes switch_cost_bytes);

// --- skew-aware scheduling (broadcast/schedule.h) ------------------------

/// Square-root-rule lower bound on the expected access time of ANY
/// single-channel schedule of uniform `bucket_bytes` data slots serving
/// requests with the given popularity profile (Ammar & Wong): with
/// per-record spacing ∝ 1/√p the expected wait is (Dt/2)(Σ√p_i)², plus
/// the final download. The bound is fractional (ignores integer slot
/// rounding and the boundary half-bucket), which is exactly why it is a
/// lower bound for the simulated walk.
double SquareRootRuleBound(const std::vector<double>& popularity,
                           Bytes bucket_bytes);

/// Exact expected access time of the scheduled scan walk over a concrete
/// slot schedule: `record_slots[i]` lists record i's sorted slot indices
/// in a cycle of `num_slots` uniform slots. A client tuning in uniformly
/// waits half a bucket to the boundary, lands in gap j (length L_j
/// slots, cyclic) with probability L_j/num_slots, reads to the record's
/// next occurrence inclusive:
///   E[access | i] = Dt/2 + (Dt/M) Σ_j L_j(L_j-1)/2 + Dt.
/// Weighted by `popularity`. For the equally-spaced fractional optimum
/// this reduces to SquareRootRuleBound exactly.
double ScheduledScanAccessModel(
    const std::vector<std::vector<int>>& record_slots, std::int64_t num_slots,
    Bytes bucket_bytes, const std::vector<double>& popularity);

}  // namespace airindex

#endif  // AIRINDEX_ANALYTICAL_MODELS_H_
