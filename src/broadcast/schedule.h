// Layer: 3 (broadcast) — see docs/ARCHITECTURE.md for the layer map.
//
// Skew-aware broadcast scheduling: generalized broadcast disks whose
// per-disk repetition frequencies follow the square-root rule over a
// popularity profile (Ammar & Wong; the RBO scheduling notes), plus the
// online re-tiering loop that re-assigns records to disks between cycles
// from the observed request stream.
//
// This layer owns only the *slot arithmetic*: which record occupies which
// data slot of the major cycle, with exact per-cycle accounting (a record
// on disk d appears exactly f_d times per major cycle — the chunking
// identity the classic broadcast-disks algorithm guarantees). How slots
// are interleaved with index segments is the scheme layer's business
// (schemes/scheduled.h), which lays out broadcast disks' fixed fraction
// assignment and the square-root plans alike.
#ifndef AIRINDEX_BROADCAST_SCHEDULE_H_
#define AIRINDEX_BROADCAST_SCHEDULE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace airindex {

/// Which slot scheduler a scheme program runs.
enum class SchedulerKind {
  /// One slot per record per cycle — the paper's layouts, unchanged.
  kFlat,
  /// Square-root-rule broadcast disks derived from the Zipf profile.
  kSquareRoot,
  /// kSquareRoot start, then per-replication online re-tiering from the
  /// observed request stream (core/simulator.cc drives the epochs).
  kOnline,
};

/// Short parseable name ("flat", "sqrt", "online").
const char* SchedulerKindToString(SchedulerKind kind);

/// Parses a display name back to the enum; false if unknown.
bool ParseSchedulerKind(std::string_view text, SchedulerKind* out);

/// Scheduling knobs carried inside SchemeParams. The default (kFlat)
/// leaves every scheme's committed layout untouched.
struct ScheduleParams {
  SchedulerKind scheduler = SchedulerKind::kFlat;
  /// Number of broadcast disks (popularity tiers).
  int num_disks = 3;
  /// Zipf skew the square-root rule plans for; < 0 means "inherit the
  /// workload skew" (core resolves it to TestbedConfig::zipf_theta
  /// before programs are built).
  double theta = -1.0;
  /// Online re-tiering epoch length, in observed on-air requests.
  int retier_requests = 256;
  /// Conflict-aware placement (schemes/multichannel.cc): rotate the
  /// final bucket sequence left by this many slots. 0 for single-channel
  /// programs.
  int rotation_slots = 0;
  /// Global Zipf rank of this program's record 0 — a key-partitioned
  /// channel schedules its slice under the *conditional* popularity of
  /// its records, not a fresh local Zipf.
  int rank_offset = 0;
  /// Total ranks of the global popularity profile; 0 means "this
  /// program's records are the whole population".
  int total_ranks = 0;

  bool active() const { return scheduler != SchedulerKind::kFlat; }
};

/// Zipf(theta) popularity of `num_ranks` records at global ranks
/// [rank_offset, rank_offset + num_ranks), normalized over a population
/// of `total_ranks` ranks (0 = just these). P(rank k) ∝ 1/(k+1)^theta,
/// matching client/request_stream.h's rank = record index convention.
std::vector<double> ZipfRankPopularity(int num_ranks, double theta,
                                   int rank_offset = 0, int total_ranks = 0);

/// A record→disk assignment: records listed in popularity order plus the
/// disk boundaries and per-disk repetition frequencies over that order.
struct DiskAssignment {
  /// Position ranges per disk over the popularity order: disk d covers
  /// positions [disk_begin[d], disk_begin[d+1]). Size num_disks + 1.
  std::vector<int> disk_begin;
  /// Per-disk broadcast frequency, non-increasing, every entry dividing
  /// the hottest disk's (the classic chunking requirement).
  std::vector<int> frequencies;
  /// Popularity order: position p holds record record_order[p]. The
  /// square-root planner emits the identity (rank order); the online
  /// re-tiering loop permutes it.
  std::vector<int> record_order;

  int num_disks() const { return static_cast<int>(frequencies.size()); }
  int num_records() const { return static_cast<int>(record_order.size()); }
  int max_frequency() const { return frequencies.front(); }

  /// Disk whose position range covers `position`.
  int DiskOfPosition(int position) const;

  /// record id → disk index map.
  std::vector<int> DiskOfRecord() const;

  /// Data slots of one major cycle: sum over disks of size_d * f_d (the
  /// exact accounting identity).
  std::int64_t SlotsPerMajorCycle() const;
};

/// The fraction-specified assignment broadcast disks (kBroadcastDisks)
/// plan with: validates the fractions/frequencies and cuts the identity
/// record order at the cumulative-fraction boundaries, at least one
/// record per disk.
Result<DiskAssignment> AssignmentFromFractions(
    const std::vector<double>& fractions, const std::vector<int>& frequencies,
    int num_records);

/// Square-root-rule assignment: disk boundaries equalize the sqrt-
/// popularity mass (optimal inter-occurrence spacing ∝ 1/√p, so each
/// disk carries an equal share of Σ√p), and disk d repeats at the
/// integer frequency nearest its mean √p ratio to the coldest disk,
/// rounded onto the divisors of the hottest frequency so the chunked
/// layout keeps exact per-cycle accounting. `popularity` must be
/// non-increasing (rank order) and positive; `num_disks` in [1, 64].
Result<DiskAssignment> SquareRootAssignment(
    const std::vector<double>& popularity, int num_disks);

/// The planned assignment of `params` over `num_records` records —
/// ZipfRankPopularity(theta, rank_offset, total_ranks) through
/// SquareRootAssignment. The one rule core telemetry, the analytical
/// sweep, and the scheme builder all share.
Result<DiskAssignment> ScheduleAssignmentFor(const ScheduleParams& params,
                                             int num_records);

/// One major cycle's data-slot order.
struct DiskLayout {
  /// Record id broadcast in each data slot, cycle order.
  std::vector<int> slot_record;
  /// Slot index where each minor cycle starts; size max_frequency + 1
  /// (last entry == slot_record.size()).
  std::vector<int> minor_begin;
  /// Per record: sorted data-slot indices of its occurrences. Disk-d
  /// records get exactly f_d entries.
  std::vector<std::vector<int>> record_slots;
};

/// Chunked broadcast-disks emission: disk d is split into max_freq/f_d
/// balanced chunks and minor cycle i carries chunk (i mod chunks_d) of
/// every disk — record phase order within a chunk follows the popularity
/// order.
DiskLayout BuildDiskLayout(const DiskAssignment& assignment);

/// Online re-tiering with deterministic hysteresis.
///
/// Observe() counts on-air requests per record; EndEpoch() folds the
/// epoch's counts into an integer EWMA score (s ← ⌊s/2⌋ + c — the
/// hysteresis: a record must sustain popularity across epochs to climb,
/// and one quiet epoch only halves its standing) and re-sorts the record
/// order by (score desc, current disk asc, record id asc) — the
/// disk-sticky tie-break keeps unobserved records in place. The disk
/// boundary/frequency template never changes, only membership, so the
/// cycle length is constant across re-tiers. Everything is integer
/// arithmetic over the observation stream: two identical request streams
/// produce byte-identical assignments, which is what keeps --jobs
/// bit-identity intact when core drives one retierer per replication.
class OnlineRetierer {
 public:
  explicit OnlineRetierer(DiskAssignment initial);

  /// Counts one on-air request for `record`.
  void Observe(int record);

  /// On-air requests observed since the last EndEpoch().
  int observed_this_epoch() const { return observed_; }

  /// Closes the epoch and re-tiers; returns how many records changed
  /// disks.
  int EndEpoch();

  const DiskAssignment& assignment() const { return assignment_; }
  int epochs() const { return epochs_; }
  std::int64_t total_moves() const { return total_moves_; }

 private:
  DiskAssignment assignment_;
  std::vector<std::int64_t> scores_;
  std::vector<std::int64_t> epoch_counts_;
  std::vector<int> disk_of_;
  int observed_ = 0;
  int epochs_ = 0;
  std::int64_t total_moves_ = 0;
};

}  // namespace airindex

#endif  // AIRINDEX_BROADCAST_SCHEDULE_H_
