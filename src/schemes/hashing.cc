#include "schemes/hashing.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "des/random.h"

namespace airindex {

namespace {

std::uint64_t HashString(std::string_view s) {
  // FNV-1a, then a 64-bit mix for avalanche.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace

std::int64_t SimpleHashing::HashKey(std::string_view key) const {
  return static_cast<std::int64_t>(HashString(key) %
                                   static_cast<std::uint64_t>(allocated_));
}

Result<SimpleHashing> SimpleHashing::Build(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    double allocation_factor) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument("hashing needs a non-empty dataset");
  }
  if (allocation_factor <= 0.0) {
    return Status::InvalidArgument("allocation factor must be positive");
  }
  const int num_records = dataset->size();
  const int allocated = std::max(
      1, static_cast<int>(std::lround(allocation_factor * num_records)));

  // Group records by slot, preserving key order within a slot: a
  // counting sort, so slot s holds chained[chain_begin[s],
  // chain_begin[s + 1]).
  std::vector<int> slot_of(static_cast<std::size_t>(num_records));
  std::vector<int> chain_begin(static_cast<std::size_t>(allocated) + 1, 0);
  for (int r = 0; r < num_records; ++r) {
    const auto slot = static_cast<int>(HashString(dataset->record(r).key) %
                                       static_cast<std::uint64_t>(allocated));
    slot_of[static_cast<std::size_t>(r)] = slot;
    ++chain_begin[static_cast<std::size_t>(slot) + 1];
  }
  std::size_t num_buckets = 0;
  for (int slot = 0; slot < allocated; ++slot) {
    const auto s = static_cast<std::size_t>(slot);
    num_buckets += static_cast<std::size_t>(std::max(chain_begin[s + 1], 1));
    chain_begin[s + 1] += chain_begin[s];
  }
  std::vector<int> chained(static_cast<std::size_t>(num_records));
  {
    std::vector<int> next(chain_begin.begin(), chain_begin.end() - 1);
    for (int r = 0; r < num_records; ++r) {
      int& at = next[static_cast<std::size_t>(
          slot_of[static_cast<std::size_t>(r)])];
      chained[static_cast<std::size_t>(at++)] = r;
    }
  }

  // Lay out: per slot, the home bucket (first record, or empty) followed
  // by its displaced (colliding) records. Bucket at *position* i < Na
  // represents hash value i in its control part and stores the shift to
  // the chain start home_pos(i) = i + displaced records of slots < i.
  const Bytes bucket_bytes = geometry.data_bucket_bytes();
  ArenaWriter writer(*dataset);
  writer.Reserve({.buckets = num_buckets});
  std::vector<Bytes> chain_start_phase(static_cast<std::size_t>(allocated));
  for (int slot = 0; slot < allocated; ++slot) {
    const auto s = static_cast<std::size_t>(slot);
    chain_start_phase[s] =
        static_cast<Bytes>(writer.num_buckets()) * bucket_bytes;
    if (chain_begin[s] == chain_begin[s + 1]) {
      writer.Append(BucketKind::kData, bucket_bytes);  // empty home slot
      continue;
    }
    for (int i = chain_begin[s]; i < chain_begin[s + 1]; ++i) {
      ArenaBucket& bucket = writer.Append(BucketKind::kData, bucket_bytes);
      bucket.record_id = chained[static_cast<std::size_t>(i)];
      bucket.hash_value = slot;
    }
  }
  // Fill the control parts positionally: position pos < Na stands for
  // hash value pos, whose chain may start after it.
  for (std::size_t pos = 0; pos < static_cast<std::size_t>(allocated); ++pos) {
    ArenaBucket& bucket = writer.bucket(pos);
    bucket.slot = static_cast<std::int64_t>(pos);
    bucket.shift_phase = chain_start_phase[pos];
  }

  Result<ArenaChannelView> view = ArenaChannelView::Bind(std::move(writer));
  if (!view.ok()) return view.status();
  return SimpleHashing(std::move(dataset), std::move(view).value(),
                       allocated);
}

namespace {

// The hashing protocol over the bound arena (schemes/channel_view.h).
AccessResult HashingWalk(const ArenaChannelView& view, std::string_view key,
                         Bytes tune_in, std::int64_t hash,
                         const Dataset& dataset) {
  AccessResult result;
  const Bytes dt = view.bucket(0).size();
  const Bytes cycle = view.cycle_bytes();
  const Bytes home_phase = static_cast<Bytes>(hash) * dt;

  // Initial wait, then the first complete bucket.
  Bytes t = view.NextBoundaryTime(tune_in);
  result.tuning_time = t - tune_in;
  const auto first_pos =
      static_cast<std::int64_t>(view.BucketAtPhase(t % cycle));
  t += dt;
  result.tuning_time += dt;
  ++result.probes;
  ++result.index_probes;

  // Reach the bucket at the hashing position H(K). The paper's protocol
  // compares the hash value h carried by the first bucket against H(K);
  // because the layout is sorted by hash value, comparing positions is
  // equivalent (position i < Na carries hash value i in its control
  // part). If the position already passed, wait for the next broadcast.
  if (first_pos != hash) {
    t = view.NextArrivalOfPhase(home_phase, t);
    t += dt;
    result.tuning_time += dt;
    ++result.probes;
    ++result.index_probes;
  }

  // Follow the shift value to the chain start, then scan the chain.
  const Bytes chain_phase =
      view.bucket(static_cast<std::size_t>(hash)).shift_phase();
  std::size_t pos = view.BucketAtPhase(chain_phase);
  bool current_in_hand = false;
  if (chain_phase == home_phase) {
    // The chain starts at the home bucket we just read.
    current_in_hand = true;
    pos = static_cast<std::size_t>(hash);
  } else {
    t = view.NextArrivalOfPhase(chain_phase, t);
  }

  const std::size_t num = view.num_buckets();
  for (std::size_t scanned = 0; scanned < num; ++scanned) {
    const auto bucket = view.bucket(pos);
    if (!current_in_hand) {
      t += bucket.size();
      result.tuning_time += bucket.size();
      ++result.probes;
    }
    current_in_hand = false;
    if (bucket.hash_value() != hash) break;  // chain over: not on air
    if (scanned > 0) ++result.overflow_hops;
    if (dataset.record(static_cast<int>(bucket.record_id())).key == key) {
      result.found = true;
      break;
    }
    pos = (pos + 1) % num;
    if (pos == 0) t = view.NextArrivalOfPhase(0, t);
  }
  result.access_time = t - tune_in;
  return result;
}

}  // namespace

AccessResult SimpleHashing::Access(std::string_view key, Bytes tune_in) const {
  return HashingWalk(view_, key, tune_in, HashKey(key), *dataset_);
}

Result<SimpleHashing> SimpleHashing::Restore(
    std::shared_ptr<const Dataset> dataset, ArenaChannelView view,
    int allocated) {
  if (allocated < 1 ||
      static_cast<std::size_t>(allocated) > view.num_buckets()) {
    return Status::InvalidArgument(
        "hashing restore: resolved slot count out of range");
  }
  // The walk reads as a record every bucket of its home slot's chain, and
  // the record ids RestoreSchemeFromArena checks are the data buckets'.
  if (view.num_data_buckets() != view.num_buckets()) {
    return Status::InvalidArgument(
        "hashing restore: every bucket must be a data bucket");
  }
  // The walk jumps to its home slot's shift phase with no fallback, so
  // every home slot must carry one; that it lands on a bucket start is
  // checked with every other pointer (RestoreSchemeFromArena).
  for (int slot = 0; slot < allocated; ++slot) {
    if (view.bucket(static_cast<std::size_t>(slot)).shift_phase() ==
        kInvalidPhase) {
      return Status::InvalidArgument("hashing restore: home slot " +
                                     std::to_string(slot) +
                                     " carries no shift");
    }
  }
  return SimpleHashing(std::move(dataset), std::move(view), allocated);
}

}  // namespace airindex
