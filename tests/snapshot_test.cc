// Serialization layer of the broadcast-program arena: per-scheme
// Serialize → Deserialize → Serialize byte identity, rejection (with a
// Status, never UB) of every class of corrupted buffer, the committed
// golden snapshot under tests/data/, and the on-disk program cache's
// warm/cold behaviour.
//
// Regenerate the golden file after a deliberate format change with
//   ./build/tools/program_snapshot write --scheme one_m --records 64 \
//       tests/data/one_m_n64_v1.snap
// and bump ProgramArena::kFormatVersion in the same change.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "broadcast/arena.h"
#include "broadcast/snapshot.h"
#include "core/program_cache.h"
#include "data/dataset.h"
#include "schemes/channel_view.h"
#include "schemes/scheduled.h"
#include "schemes/scheme.h"

namespace airindex {
namespace {

constexpr SchemeKind kAllSchemes[] = {
    SchemeKind::kFlat,
    SchemeKind::kOneM,
    SchemeKind::kDistributed,
    SchemeKind::kHashing,
    SchemeKind::kSignature,
    SchemeKind::kIntegratedSignature,
    SchemeKind::kMultiLevelSignature,
    SchemeKind::kBroadcastDisks,
    SchemeKind::kHybrid,
};

struct Built {
  std::shared_ptr<const Dataset> dataset;
  std::unique_ptr<BroadcastScheme> scheme;
  ProgramArena arena;
};

// Mirrors tools/program_snapshot.cc's BuildProgram: default geometry and
// params, generated dataset — the same recipe that produced the golden
// file, so the golden test can rebuild its expected bytes.
Built BuildProgram(SchemeKind kind, int num_records) {
  DatasetConfig dataset_config;
  dataset_config.num_records = num_records;
  auto dataset = std::make_shared<const Dataset>(
      Dataset::Generate(dataset_config).value());
  const BucketGeometry geometry;
  const SchemeParams params;
  auto scheme = BuildScheme(kind, dataset, geometry, params).value();
  ProgramArena arena =
      FlattenSchemeProgram(kind, *scheme, DatasetFingerprint(*dataset),
                           ProgramParamsFingerprint(kind, geometry, params))
          .value();
  return Built{std::move(dataset), std::move(scheme), std::move(arena)};
}

std::vector<std::uint8_t> ReadAll(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return {};
  std::vector<std::uint8_t> bytes;
  std::uint8_t buffer[1 << 16];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + got);
  }
  std::fclose(file);
  return bytes;
}

TEST(SnapshotTest, RoundTripIsByteIdenticalForEveryScheme) {
  for (const SchemeKind kind : kAllSchemes) {
    SCOPED_TRACE(SchemeKindToString(kind));
    const Built built = BuildProgram(kind, 180);
    const std::vector<std::uint8_t> wire =
        ProgramSnapshot::Serialize(built.arena);
    auto loaded = ProgramSnapshot::Deserialize(wire);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().bytes(), built.arena.bytes());
    EXPECT_EQ(ProgramSnapshot::Serialize(loaded.value()), wire);
    EXPECT_EQ(loaded.value().Checksum(), built.arena.Checksum());
  }
}

TEST(SnapshotTest, FlattenIsDeterministic) {
  for (const SchemeKind kind : kAllSchemes) {
    SCOPED_TRACE(SchemeKindToString(kind));
    const Built a = BuildProgram(kind, 96);
    const Built b = BuildProgram(kind, 96);
    EXPECT_EQ(a.arena.bytes(), b.arena.bytes());
  }
}

TEST(SnapshotTest, RejectsTruncatedBuffers) {
  const Built built = BuildProgram(SchemeKind::kOneM, 120);
  const std::vector<std::uint8_t> wire =
      ProgramSnapshot::Serialize(built.arena);
  // Every prefix shorter than the full snapshot must be rejected —
  // including the empty buffer and a bare header with no payload.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, sizeof(SnapshotHeader) - 1,
        sizeof(SnapshotHeader), sizeof(SnapshotHeader) + 1, wire.size() / 2,
        wire.size() - 1}) {
    SCOPED_TRACE("keep " + std::to_string(keep));
    const std::vector<std::uint8_t> cut(wire.begin(), wire.begin() + keep);
    EXPECT_FALSE(ProgramSnapshot::Deserialize(cut).ok());
  }
  // Trailing garbage (payload size disagrees with the buffer) too.
  std::vector<std::uint8_t> grown = wire;
  grown.push_back(0);
  EXPECT_FALSE(ProgramSnapshot::Deserialize(grown).ok());
}

TEST(SnapshotTest, RejectsEveryBitFlipInHeaderAndSampledPayload) {
  const Built built = BuildProgram(SchemeKind::kDistributed, 120);
  const std::vector<std::uint8_t> wire =
      ProgramSnapshot::Serialize(built.arena);
  ASSERT_TRUE(ProgramSnapshot::Deserialize(wire).ok());
  // All header bytes, then a stride through the payload: a flip anywhere
  // must fail the checksum (or an earlier header check) — never load.
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < sizeof(SnapshotHeader); ++i) {
    positions.push_back(i);
  }
  for (std::size_t i = sizeof(SnapshotHeader); i < wire.size(); i += 97) {
    positions.push_back(i);
  }
  positions.push_back(wire.size() - 1);
  for (const std::size_t pos : positions) {
    SCOPED_TRACE("flip at byte " + std::to_string(pos));
    std::vector<std::uint8_t> corrupt = wire;
    corrupt[pos] ^= 0x20;
    EXPECT_FALSE(ProgramSnapshot::Deserialize(corrupt).ok());
  }
}

TEST(SnapshotTest, RejectsWrongMagicAndWrongVersion) {
  const Built built = BuildProgram(SchemeKind::kFlat, 64);
  std::vector<std::uint8_t> wire = ProgramSnapshot::Serialize(built.arena);

  SnapshotHeader header;
  std::memcpy(&header, wire.data(), sizeof(header));
  ASSERT_EQ(header.magic, ProgramSnapshot::kMagic);
  ASSERT_EQ(header.format_version, ProgramSnapshot::kFormatVersion);

  SnapshotHeader bad_magic = header;
  bad_magic.magic = 0x44414544u;
  std::memcpy(wire.data(), &bad_magic, sizeof(bad_magic));
  EXPECT_FALSE(ProgramSnapshot::Deserialize(wire).ok());

  SnapshotHeader bad_version = header;
  bad_version.format_version = ProgramSnapshot::kFormatVersion + 1;
  std::memcpy(wire.data(), &bad_version, sizeof(bad_version));
  EXPECT_FALSE(ProgramSnapshot::Deserialize(wire).ok());

  SnapshotHeader bad_size = header;
  bad_size.payload_bytes = header.payload_bytes + 8;
  std::memcpy(wire.data(), &bad_size, sizeof(bad_size));
  EXPECT_FALSE(ProgramSnapshot::Deserialize(wire).ok());

  // Restoring the true header loads again — the buffer itself is intact.
  std::memcpy(wire.data(), &header, sizeof(header));
  EXPECT_TRUE(ProgramSnapshot::Deserialize(wire).ok());
}

TEST(SnapshotTest, ArenaFromBytesRejectsCorruptSections) {
  const Built built = BuildProgram(SchemeKind::kSignature, 100);
  // A payload that passes the snapshot checksum can still be hostile
  // (hand-crafted file): FromBytes re-validates every offset.
  std::vector<std::uint8_t> raw = built.arena.bytes();
  ArenaHeader header;
  std::memcpy(&header, raw.data(), sizeof(header));
  header.strings_offset = header.total_bytes + 64;  // out of bounds
  std::memcpy(raw.data(), &header, sizeof(header));
  EXPECT_FALSE(ProgramArena::FromBytes(std::move(raw)).ok());

  std::vector<std::uint8_t> tiny(sizeof(ArenaHeader) - 4, 0);
  EXPECT_FALSE(ProgramArena::FromBytes(std::move(tiny)).ok());
}

TEST(SnapshotTest, LoadFileReportsNotFound) {
  auto missing =
      ProgramSnapshot::LoadFile(testing::TempDir() + "/no_such_snapshot.snap");
  ASSERT_FALSE(missing.ok());
}

TEST(SnapshotTest, WriteFileThenLoadFileRoundTrips) {
  const Built built = BuildProgram(SchemeKind::kHybrid, 90);
  const std::string path = testing::TempDir() + "/snapshot_test_hybrid.snap";
  ASSERT_TRUE(ProgramSnapshot::WriteFile(path, built.arena).ok());
  auto loaded = ProgramSnapshot::LoadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().bytes(), built.arena.bytes());
  std::remove(path.c_str());
}

// The committed golden file pins the on-disk format: if Flatten's byte
// layout drifts without a version bump, this test fails first.
TEST(SnapshotTest, GoldenSnapshotLoadsAndMatchesRebuild) {
  const std::string path =
      std::string(AIRINDEX_TEST_DATA_DIR) + "/one_m_n64_v1.snap";
  const std::vector<std::uint8_t> wire = ReadAll(path);
  ASSERT_FALSE(wire.empty()) << "missing golden file " << path;

  auto loaded = ProgramSnapshot::Deserialize(wire);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().scheme_kind(),
            static_cast<int>(SchemeKind::kOneM));
  EXPECT_EQ(loaded.value().num_channels(), 1);

  // Rebuilding with the golden recipe reproduces the bytes exactly.
  const Built rebuilt = BuildProgram(SchemeKind::kOneM, 64);
  EXPECT_EQ(loaded.value().bytes(), rebuilt.arena.bytes());
  EXPECT_EQ(ProgramSnapshot::Serialize(rebuilt.arena), wire);

  // And the golden program restores to a queryable scheme.
  auto shared = std::make_shared<const ProgramArena>(std::move(loaded).value());
  auto restored = RestoreSchemeFromArena(shared, rebuilt.dataset,
                                         BucketGeometry{}, SchemeParams{});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const AccessResult from_golden =
      restored.value()->Access(rebuilt.dataset->record(10).key, 0);
  const AccessResult from_build =
      rebuilt.scheme->Access(rebuilt.dataset->record(10).key, 0);
  EXPECT_TRUE(from_golden.found);
  EXPECT_EQ(from_golden.access_time, from_build.access_time);
  EXPECT_EQ(from_golden.tuning_time, from_build.tuning_time);
}

// The signature walk reads record k's signature as row k of the arena's
// word pool, so a restore must reject a cycle whose pairs are out of
// record order — here pairs 0 and 1 swapped — rather than serve a walk
// that disagrees with the channel.
TEST(SnapshotTest, SignatureRestoreRejectsMisorderedPairs) {
  const Built built = BuildProgram(SchemeKind::kSignature, 16);
  std::vector<Bucket> buckets;
  for (std::size_t i = 0; i < built.scheme->channel().num_buckets(); ++i) {
    buckets.push_back(built.scheme->channel().bucket(i));
  }
  std::swap(buckets[0], buckets[2]);
  std::swap(buckets[1], buckets[3]);
  const Channel swapped = Channel::Create(std::move(buckets)).value();
  auto arena = std::make_shared<const ProgramArena>(ProgramArena::Flatten(
      {&swapped}, 0, static_cast<int>(SchemeKind::kSignature), 0, 0, {}));
  auto restored = RestoreSchemeFromArena(arena, built.dataset,
                                         BucketGeometry{}, SchemeParams{});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

// A broadcast-disks arena restores through the scheduled program's
// checks: every malformed aux, and every channel that disagrees with the
// layout its aux plans, is an InvalidArgument rather than a walk over
// tables that do not match the channel.
TEST(SnapshotTest, DisksRestoreRejectsMalformedArenas) {
  constexpr std::int64_t kTag = ScheduledBroadcast::kAuxTag;
  const Built built = BuildProgram(SchemeKind::kBroadcastDisks, 100);
  const auto* scheduled =
      dynamic_cast<const ScheduledBroadcast*>(built.scheme.get());
  ASSERT_NE(scheduled, nullptr);
  // Default fractions over 100 records: [SCHD, D, bounds, freqs, rotation].
  const std::vector<std::int64_t> good = scheduled->FlattenAux();
  ASSERT_EQ(good,
            (std::vector<std::int64_t>{kTag, 3, 10, 40, 100, 4, 2, 1, 0}));
  const Channel& channel = built.scheme->channel();
  std::vector<Bucket> buckets;
  for (std::size_t i = 0; i < channel.num_buckets(); ++i) {
    buckets.push_back(channel.bucket(i));
  }
  const auto restore = [&](const Channel& program,
                           const std::vector<std::int64_t>& aux) {
    auto arena = std::make_shared<const ProgramArena>(ProgramArena::Flatten(
        {&program}, 0, static_cast<int>(SchemeKind::kBroadcastDisks), 0, 0,
        aux));
    return RestoreSchemeFromArena(arena, built.dataset, BucketGeometry{},
                                  SchemeParams{});
  };
  // Each planted defect must trip the check named by `reason`.
  const auto expect_rejected = [&](const std::string& what,
                                   const Channel& program,
                                   const std::vector<std::int64_t>& aux,
                                   const std::string& reason) {
    SCOPED_TRACE(what);
    const auto restored = restore(program, aux);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(restored.status().message().find(reason), std::string::npos)
        << restored.status().ToString();
  };
  const std::string kNotScheduled = "not a scheduled program";
  const std::string kMalformed = "malformed assignment aux";
  const std::string kLayout = "does not match the planned layout";
  // The untouched program restores, so each rejection below is caused by
  // the one defect it plants.
  ASSERT_TRUE(restore(channel, good).ok());

  expect_rejected("empty aux", channel, {}, kNotScheduled);
  std::vector<std::int64_t> aux = good;
  aux[0] = kTag + 1;
  expect_rejected("wrong tag", channel, aux, kNotScheduled);
  expect_rejected("D = 0", channel, {kTag, 0, 0}, kMalformed);
  std::vector<std::int64_t> d65 = {kTag, 65};
  d65.resize(3 + 2 * 65, 1);
  expect_rejected("D = 65", channel, d65, kMalformed);
  aux = good;
  aux.push_back(0);
  expect_rejected("aux longer than D implies", channel, aux, kMalformed);
  aux = good;
  aux.erase(aux.begin() + 2);
  expect_rejected("aux shorter than D implies", channel, aux, kMalformed);
  aux = good;
  aux[6] = 3;  // frequencies {4, 3, 1}
  expect_rejected("frequency that does not divide the hottest", channel, aux,
                  kMalformed);
  aux = good;
  aux[4] = 99;  // the last disk ends one record short
  expect_rejected("disk bounds that do not cover the dataset", channel, aux,
                  "assignment does not cover the dataset");

  std::vector<Bucket> swapped = buckets;
  ASSERT_NE(swapped[0].record_id, swapped[1].record_id);
  std::swap(swapped[0], swapped[1]);
  expect_rejected("two data buckets swapped",
                  Channel::Create(std::move(swapped)).value(), good, kLayout);
  std::vector<Bucket> out_of_range = buckets;
  out_of_range[5].record_id = 100;
  expect_rejected("record id out of range",
                  Channel::Create(std::move(out_of_range)).value(), good,
                  kLayout);
  std::vector<Bucket> short_cycle = buckets;
  short_cycle.pop_back();
  expect_rejected("a record missing from the cycle",
                  Channel::Create(std::move(short_cycle)).value(), good,
                  "channel length does not match the plan");
}

TEST(SnapshotTest, ArenaViewBindsOnlyTheChannelItMirrors) {
  const Built small = BuildProgram(SchemeKind::kFlat, 16);
  const Built large = BuildProgram(SchemeKind::kFlat, 17);
  auto arena = std::make_shared<const ProgramArena>(small.arena);
  EXPECT_TRUE(ArenaChannelView::Bind(arena, small.scheme->channel()).ok());
  const auto wrong = ArenaChannelView::Bind(arena, large.scheme->channel());
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ArenaChannelView::Bind(nullptr, small.scheme->channel()).ok());
}

TEST(SnapshotTest, ProgramCacheMemoryOnly) {
  ProgramCache cache;  // no directory: memory-only
  DatasetConfig config;
  config.num_records = 150;
  auto dataset = std::make_shared<const Dataset>(
      Dataset::Generate(config).value());
  const BucketGeometry geometry;
  const SchemeParams params;

  auto cold = cache.GetOrBuild(SchemeKind::kOneM, dataset, geometry, params);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = cache.GetOrBuild(SchemeKind::kOneM, dataset, geometry, params);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  const MetricsRegistry metrics = cache.MetricsSnapshot();
  EXPECT_EQ(metrics.Get("program.builds"), 1);
  EXPECT_EQ(metrics.Get("program.memory_hits"), 1);
  EXPECT_EQ(metrics.Get("program.snapshot_writes"), 0);
  EXPECT_TRUE(cache
                  .SnapshotPath(SchemeKind::kOneM, DatasetFingerprint(*dataset),
                                ProgramParamsFingerprint(SchemeKind::kOneM,
                                                         geometry, params))
                  .empty());

  // Cached scheme answers identically to a fresh build.
  auto fresh = BuildScheme(SchemeKind::kOneM, dataset, geometry, params);
  ASSERT_TRUE(fresh.ok());
  for (const int record : {0, 42, 149}) {
    const AccessResult a =
        warm.value()->Access(dataset->record(record).key, 500);
    const AccessResult b =
        fresh.value()->Access(dataset->record(record).key, 500);
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.access_time, b.access_time);
    EXPECT_EQ(a.tuning_time, b.tuning_time);
    EXPECT_EQ(a.probes, b.probes);
  }
}

TEST(SnapshotTest, ProgramCacheWarmsFromDisk) {
  const std::string dir = testing::TempDir();
  DatasetConfig config;
  config.num_records = 130;
  auto dataset = std::make_shared<const Dataset>(
      Dataset::Generate(config).value());
  const BucketGeometry geometry;
  const SchemeParams params;
  const std::uint64_t dfp = DatasetFingerprint(*dataset);
  const std::uint64_t pfp =
      ProgramParamsFingerprint(SchemeKind::kDistributed, geometry, params);

  std::string snapshot_path;
  {
    ProgramCache cold_cache(dir);
    snapshot_path = cold_cache.SnapshotPath(SchemeKind::kDistributed, dfp, pfp);
    ASSERT_FALSE(snapshot_path.empty());
    std::remove(snapshot_path.c_str());  // a prior run's file, if any

    auto cold = cold_cache.GetOrBuild(SchemeKind::kDistributed, dataset,
                                      geometry, params);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    const MetricsRegistry metrics = cold_cache.MetricsSnapshot();
    EXPECT_EQ(metrics.Get("program.builds"), 1);
    EXPECT_EQ(metrics.Get("program.snapshot_misses"), 1);
    EXPECT_EQ(metrics.Get("program.snapshot_writes"), 1);
  }

  // A later process (fresh cache instance, same directory) loads the
  // snapshot instead of rebuilding.
  ProgramCache warm_cache(dir);
  auto warm = warm_cache.GetOrBuild(SchemeKind::kDistributed, dataset,
                                    geometry, params);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  const MetricsRegistry metrics = warm_cache.MetricsSnapshot();
  EXPECT_EQ(metrics.Get("program.builds"), 0);
  EXPECT_EQ(metrics.Get("program.snapshot_hits"), 1);

  // The warmed scheme is observably identical to a fresh build.
  auto fresh = BuildScheme(SchemeKind::kDistributed, dataset, geometry, params);
  ASSERT_TRUE(fresh.ok());
  for (const int record : {3, 77, 129}) {
    const AccessResult a =
        warm.value()->Access(dataset->record(record).key, 900);
    const AccessResult b =
        fresh.value()->Access(dataset->record(record).key, 900);
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.access_time, b.access_time);
    EXPECT_EQ(a.tuning_time, b.tuning_time);
  }
  std::remove(snapshot_path.c_str());
}

TEST(SnapshotTest, ProgramCacheIgnoresCorruptSnapshot) {
  const std::string dir = testing::TempDir();
  DatasetConfig config;
  config.num_records = 80;
  auto dataset = std::make_shared<const Dataset>(
      Dataset::Generate(config).value());
  const BucketGeometry geometry;
  const SchemeParams params;
  const std::uint64_t dfp = DatasetFingerprint(*dataset);
  const std::uint64_t pfp =
      ProgramParamsFingerprint(SchemeKind::kHashing, geometry, params);

  ProgramCache seed_cache(dir);
  const std::string path = seed_cache.SnapshotPath(SchemeKind::kHashing, dfp,
                                                   pfp);
  std::remove(path.c_str());
  ASSERT_TRUE(
      seed_cache.GetOrBuild(SchemeKind::kHashing, dataset, geometry, params)
          .ok());

  // Flip one payload byte on disk: the next process must detect it,
  // count a miss, and rebuild rather than load garbage.
  std::vector<std::uint8_t> wire = ReadAll(path);
  ASSERT_GT(wire.size(), sizeof(SnapshotHeader));
  wire[wire.size() - 3] ^= 0x01;
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(wire.data(), 1, wire.size(), file), wire.size());
  std::fclose(file);

  ProgramCache cache(dir);
  auto result = cache.GetOrBuild(SchemeKind::kHashing, dataset, geometry,
                                 params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MetricsRegistry metrics = cache.MetricsSnapshot();
  EXPECT_EQ(metrics.Get("program.snapshot_hits"), 0);
  EXPECT_EQ(metrics.Get("program.builds"), 1);
  std::remove(path.c_str());
}

// A snapshot that loads and matches its key can still fail to restore —
// here a broadcast-disks arena with the empty aux an older build wrote
// under the same file name. The cache must count a miss, rebuild and
// rewrite the file, not fail the run; the rewritten file is then a hit.
TEST(SnapshotTest, ProgramCacheRebuildsSnapshotThatDoesNotRestore) {
  const std::string dir = testing::TempDir();
  const Built built = BuildProgram(SchemeKind::kBroadcastDisks, 110);
  const BucketGeometry geometry;
  const SchemeParams params;
  const std::uint64_t dfp = DatasetFingerprint(*built.dataset);
  const std::uint64_t pfp =
      ProgramParamsFingerprint(SchemeKind::kBroadcastDisks, geometry, params);
  const ProgramArena stale = ProgramArena::Flatten(
      {&built.scheme->channel()}, 0,
      static_cast<int>(SchemeKind::kBroadcastDisks), dfp, pfp, {});

  std::string path;
  {
    ProgramCache cache(dir);
    path = cache.SnapshotPath(SchemeKind::kBroadcastDisks, dfp, pfp);
    ASSERT_TRUE(ProgramSnapshot::WriteFile(path, stale).ok());
    auto rebuilt = cache.GetOrBuild(SchemeKind::kBroadcastDisks,
                                    built.dataset, geometry, params);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    const MetricsRegistry metrics = cache.MetricsSnapshot();
    EXPECT_EQ(metrics.Get("program.builds"), 1);
    EXPECT_EQ(metrics.Get("program.snapshot_hits"), 0);
    EXPECT_EQ(metrics.Get("program.snapshot_misses"), 1);
    EXPECT_EQ(metrics.Get("program.snapshot_writes"), 1);
  }

  ProgramCache warm_cache(dir);
  auto warm = warm_cache.GetOrBuild(SchemeKind::kBroadcastDisks,
                                    built.dataset, geometry, params);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  const MetricsRegistry metrics = warm_cache.MetricsSnapshot();
  EXPECT_EQ(metrics.Get("program.builds"), 0);
  EXPECT_EQ(metrics.Get("program.snapshot_hits"), 1);
  for (const int record : {0, 55, 109}) {
    const AccessResult a =
        warm.value()->Access(built.dataset->record(record).key, 700);
    const AccessResult b =
        built.scheme->Access(built.dataset->record(record).key, 700);
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.access_time, b.access_time);
    EXPECT_EQ(a.probes, b.probes);
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, ProgramCacheKeysOnDatasetContent) {
  ProgramCache cache;
  const BucketGeometry geometry;
  const SchemeParams params;
  DatasetConfig config;
  config.num_records = 60;
  auto a = std::make_shared<const Dataset>(Dataset::Generate(config).value());
  config.num_records = 61;
  auto b = std::make_shared<const Dataset>(Dataset::Generate(config).value());

  EXPECT_NE(DatasetFingerprint(*a), DatasetFingerprint(*b));
  ASSERT_TRUE(cache.GetOrBuild(SchemeKind::kFlat, a, geometry, params).ok());
  ASSERT_TRUE(cache.GetOrBuild(SchemeKind::kFlat, b, geometry, params).ok());
  EXPECT_EQ(cache.MetricsSnapshot().Get("program.builds"), 2);

  // Same dataset, different scheme params → different program key.
  SchemeParams other = params;
  other.one_m_m = 7;
  EXPECT_NE(ProgramParamsFingerprint(SchemeKind::kOneM, geometry, params),
            ProgramParamsFingerprint(SchemeKind::kOneM, geometry, other));
}

}  // namespace
}  // namespace airindex
