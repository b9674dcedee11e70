#include "core/program_cache.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "broadcast/snapshot.h"

namespace airindex {

namespace {

std::uint64_t HashInt(std::uint64_t value, std::uint64_t seed) {
  return Fnv1a64(&value, sizeof(value), seed);
}

std::uint64_t HashDouble(double value, std::uint64_t seed) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return HashInt(bits, seed);
}

std::uint64_t HashStr(std::string_view value, std::uint64_t seed) {
  // Length-prefixed so adjacent fields cannot alias across boundaries.
  seed = HashInt(value.size(), seed);
  return Fnv1a64(value.data(), value.size(), seed);
}

std::string HexU64(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xF];
    value >>= 4;
  }
  return out;
}

}  // namespace

std::uint64_t DatasetFingerprint(const Dataset& dataset) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  h = HashInt(static_cast<std::uint64_t>(dataset.size()), h);
  for (const Record& record : dataset.records()) {
    h = HashStr(record.key, h);
    h = HashInt(record.attributes.size(), h);
    for (const std::string& attribute : record.attributes) {
      h = HashStr(attribute, h);
    }
  }
  return h;
}

std::uint64_t ProgramParamsFingerprint(SchemeKind kind,
                                       const BucketGeometry& geometry,
                                       const SchemeParams& params) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  h = HashInt(ProgramArena::kFormatVersion, h);
  h = HashInt(static_cast<std::uint64_t>(static_cast<int>(kind)), h);
  h = HashInt(static_cast<std::uint64_t>(geometry.record_bytes), h);
  h = HashInt(static_cast<std::uint64_t>(geometry.key_bytes), h);
  h = HashInt(static_cast<std::uint64_t>(geometry.offset_bytes), h);
  h = HashInt(static_cast<std::uint64_t>(geometry.signature_bytes), h);
  h = HashInt(static_cast<std::uint64_t>(params.one_m_m), h);
  h = HashInt(static_cast<std::uint64_t>(params.distributed_r), h);
  h = HashDouble(params.hashing_allocation_factor, h);
  h = HashInt(static_cast<std::uint64_t>(params.signature_bits_per_attribute),
              h);
  h = HashInt(static_cast<std::uint64_t>(params.signature_group_size), h);
  h = HashInt(params.broadcast_disks.disk_fractions.size(), h);
  for (const double fraction : params.broadcast_disks.disk_fractions) {
    h = HashDouble(fraction, h);
  }
  h = HashInt(params.broadcast_disks.disk_frequencies.size(), h);
  for (const int frequency : params.broadcast_disks.disk_frequencies) {
    h = HashInt(static_cast<std::uint64_t>(frequency), h);
  }
  h = HashInt(static_cast<std::uint64_t>(params.hybrid_m), h);
  h = HashInt(static_cast<std::uint64_t>(
                  static_cast<int>(params.schedule.scheduler)),
              h);
  h = HashInt(static_cast<std::uint64_t>(params.schedule.num_disks), h);
  h = HashDouble(params.schedule.theta, h);
  h = HashInt(static_cast<std::uint64_t>(params.schedule.retier_requests), h);
  h = HashInt(static_cast<std::uint64_t>(params.schedule.rotation_slots), h);
  h = HashInt(static_cast<std::uint64_t>(params.schedule.rank_offset), h);
  h = HashInt(static_cast<std::uint64_t>(params.schedule.total_ranks), h);
  return h;
}

ProgramCache::ProgramCache(std::string dir) : dir_(std::move(dir)) {}

std::string ProgramCache::SnapshotPath(
    SchemeKind kind, std::uint64_t dataset_fingerprint,
    std::uint64_t params_fingerprint) const {
  if (dir_.empty()) return "";
  return dir_ + "/prog-k" + std::to_string(static_cast<int>(kind)) + "-d" +
         HexU64(dataset_fingerprint) + "-p" + HexU64(params_fingerprint) +
         "-v" + std::to_string(ProgramSnapshot::kFormatVersion) + ".snap";
}

Result<std::unique_ptr<BroadcastScheme>> ProgramCache::GetOrBuild(
    SchemeKind kind, std::shared_ptr<const Dataset> dataset,
    const BucketGeometry& geometry, const SchemeParams& params) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("program cache: null dataset");
  }
  const std::uint64_t params_fp =
      ProgramParamsFingerprint(kind, geometry, params);

  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t dataset_fp = FingerprintOf(dataset);
  const Key key{static_cast<int>(kind), dataset_fp, params_fp};

  const auto hit =
      std::find_if(memory_.begin(), memory_.end(),
                   [&](const auto& entry) { return entry.first == key; });
  if (hit != memory_.end()) {
    metrics_.Increment("program.memory_hits");
    return RestoreSchemeFromArena(hit->second, std::move(dataset), geometry,
                                  params);
  }

  if (!dir_.empty()) {
    const std::string path = SnapshotPath(kind, dataset_fp, params_fp);
    Result<ProgramArena> loaded = ProgramSnapshot::LoadFile(path);
    // A loadable snapshot whose header fingerprints disagree with the
    // requested configuration is stale or mis-keyed, and one that does
    // not restore (an older aux layout under the same key) is stale too:
    // either is a miss, and the rebuild below rewrites the file.
    if (loaded.ok() && loaded.value().scheme_kind() == key.kind &&
        loaded.value().dataset_fingerprint() == dataset_fp &&
        loaded.value().params_fingerprint() == params_fp) {
      auto arena = std::make_shared<const ProgramArena>(
          std::move(loaded).value());
      Result<std::unique_ptr<BroadcastScheme>> restored =
          RestoreSchemeFromArena(arena, dataset, geometry, params);
      if (restored.ok()) {
        metrics_.Increment("program.snapshot_hits");
        memory_.emplace_back(key, std::move(arena));
        return restored;
      }
    }
    metrics_.Increment("program.snapshot_misses");
  }

  const auto build_start = std::chrono::steady_clock::now();
  Result<std::unique_ptr<BroadcastScheme>> built =
      BuildScheme(kind, dataset, geometry, params);
  if (!built.ok()) return built.status();
  const auto build_end = std::chrono::steady_clock::now();
  metrics_.Increment("program.builds");
  metrics_.Increment("program.build_micros",
                     std::chrono::duration_cast<std::chrono::microseconds>(
                         build_end - build_start)
                         .count());

  Result<ProgramArena> arena_result =
      FlattenSchemeProgram(kind, *built.value(), dataset_fp, params_fp);
  if (!arena_result.ok()) return arena_result.status();
  auto arena =
      std::make_shared<const ProgramArena>(std::move(arena_result).value());
  memory_.emplace_back(key, arena);
  if (!dir_.empty()) {
    const Status written = ProgramSnapshot::WriteFile(
        SnapshotPath(kind, dataset_fp, params_fp), *arena);
    metrics_.Increment(written.ok() ? "program.snapshot_writes"
                                    : "program.snapshot_write_failures");
  }
  // The freshly built scheme is returned as-is; the arena only needs to
  // exist for future hits. Restored and built schemes are observably
  // identical, so the two paths cannot diverge in results.
  return built;
}

std::uint64_t ProgramCache::FingerprintOf(
    const std::shared_ptr<const Dataset>& dataset) {
  std::erase_if(fingerprints_,
                [](const auto& entry) { return entry.first.expired(); });
  for (const auto& [owner, fingerprint] : fingerprints_) {
    if (owner.lock() == dataset) return fingerprint;
  }
  const std::uint64_t fingerprint = DatasetFingerprint(*dataset);
  fingerprints_.emplace_back(dataset, fingerprint);
  return fingerprint;
}

MetricsRegistry ProgramCache::MetricsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

}  // namespace airindex
