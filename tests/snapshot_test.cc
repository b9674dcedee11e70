// Serialization layer of the broadcast-program arena: per-scheme
// Serialize → Deserialize → Serialize byte identity, rejection (with a
// Status, never UB) of every class of corrupted buffer, the committed
// golden snapshot under tests/data/, and the on-disk program cache's
// warm/cold behaviour.
//
// Regenerate the golden file after a deliberate format change, from the
// repository root, with
//   ./build/tools/program_snapshot write --scheme one_m --records 64 GOLDEN
// where GOLDEN is tests/data/one_m_n64_vN.snap for the new version N, and
// bump ProgramArena::kFormatVersion in the same change. The format-1
// golden, tests/data/one_m_n64_v1.snap, stays as an old-format fixture.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "broadcast/arena.h"
#include "broadcast/arena_writer.h"
#include "broadcast/snapshot.h"
#include "client/session_client.h"
#include "core/program_cache.h"
#include "core/simulator.h"
#include "data/dataset.h"
#include "inflated_channel.h"
#include "schemes/channel_view.h"
#include "schemes/multichannel.h"
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

// The checksum's guarantee, exhaustively on one small program: one bit
// flipped in any payload byte, not a stride of them, fails the checksum
// before anything else reads the payload.
TEST(SnapshotTest, RejectsABitFlipInEveryPayloadByte) {
  const Built built = BuildProgram(SchemeKind::kFlat, 40);
  const std::vector<std::uint8_t> wire =
      ProgramSnapshot::Serialize(built.arena);
  ASSERT_TRUE(ProgramSnapshot::Deserialize(wire).ok());
  std::vector<std::uint8_t> corrupt = wire;
  std::size_t rejected = 0;
  for (std::size_t pos = sizeof(SnapshotHeader); pos < wire.size(); ++pos) {
    const auto bit = static_cast<std::uint8_t>(1u << (pos % 8));
    corrupt[pos] ^= bit;
    const Result<ProgramArena> loaded = ProgramSnapshot::Deserialize(corrupt);
    corrupt[pos] ^= bit;
    if (!loaded.ok() &&
        loaded.status().message().find("checksum mismatch") !=
            std::string::npos) {
      ++rejected;
    } else {
      ADD_FAILURE() << "flip at byte " << pos << ": "
                    << loaded.status().ToString();
    }
  }
  EXPECT_EQ(rejected, built.arena.bytes().size());
}

// HashBytes reads words at any alignment, and a change to any one byte
// (so to one word) changes it, at every size from empty through two
// stripes plus a partial tail.
TEST(SnapshotTest, HashBytesIgnoresAlignmentAndSeesEveryByteChange) {
  constexpr std::size_t kMaxSize = 70;
  std::vector<std::uint8_t> storage(kMaxSize + 1);
  for (std::size_t size = 0; size <= kMaxSize; ++size) {
    SCOPED_TRACE("size " + std::to_string(size));
    std::vector<std::uint8_t> buffer(size);
    for (std::size_t i = 0; i < size; ++i) {
      buffer[i] = static_cast<std::uint8_t>(i * 37 + size);
    }
    const std::uint64_t hash = HashBytes(buffer.data(), size);
    // An odd address: one past the start of a heap block.
    std::copy(buffer.begin(), buffer.end(), storage.begin() + 1);
    EXPECT_EQ(HashBytes(storage.data() + 1, size), hash);
    EXPECT_NE(HashBytes(buffer.data(), size, 1), hash);
    for (std::size_t pos = 0; pos < size; ++pos) {
      const std::uint8_t original = buffer[pos];
      for (int value = 0; value < 256; ++value) {
        if (value == original) continue;
        buffer[pos] = static_cast<std::uint8_t>(value);
        if (HashBytes(buffer.data(), size) == hash) {
          ADD_FAILURE() << "byte " << pos << " set to " << value
                        << " keeps the hash";
        }
      }
      buffer[pos] = original;
    }
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

// Every section is bound through typed references, so an offset off the
// 8-byte grid Layout places sections on must be rejected even when every section
// stays in bounds: here 4 bytes slipped in before the bucket section,
// with every later offset and the total shifted to match.
TEST(SnapshotTest, ArenaFromBytesRejectsMisalignedSections) {
  std::vector<Bucket> buckets(3);
  for (Bucket& bucket : buckets) bucket.size = 100;
  const ProgramArena arena =
      Flatten({&buckets}, 0, -1, 0, 0, {}).value();
  ASSERT_TRUE(ProgramArena::FromBytes(arena.bytes()).ok());

  std::vector<std::uint8_t> raw = arena.bytes();
  ArenaHeader header;
  std::memcpy(&header, raw.data(), sizeof(header));
  raw.insert(raw.begin() + header.buckets_offset, 4, 0);
  for (std::uint32_t* offset :
       {&header.buckets_offset, &header.entries_offset, &header.words_offset,
        &header.strings_offset, &header.aux_offset}) {
    *offset += 4;
  }
  header.total_bytes += 4;
  std::memcpy(raw.data(), &header, sizeof(header));
  const auto shifted = ProgramArena::FromBytes(std::move(raw));
  ASSERT_FALSE(shifted.ok());
  EXPECT_EQ(shifted.status().code(), StatusCode::kInvalidArgument);
}

// The section counts recorded in an arena's header.
ArenaCounts CountsOf(const ArenaHeader& h) {
  ArenaCounts counts;
  counts.channels = h.num_channels;
  counts.buckets = h.num_buckets;
  counts.entries = h.num_entries;
  counts.words = h.num_words;
  counts.string_bytes = h.string_pool_bytes;
  counts.aux = h.num_aux;
  return counts;
}

// Layout is the arithmetic every arena is laid out with: on a built
// program's counts it reproduces the header its writer wrote, and it
// rejects, rather than narrows, any layout past 32-bit offsets. The
// counts are synthetic, so nothing near 4 GiB is allocated.
TEST(SnapshotTest, LayoutRejectsProgramsPast32BitOffsets) {
  const Built built = BuildProgram(SchemeKind::kOneM, 2000);
  const ArenaHeader& h = built.arena.header();
  const Result<ArenaHeader> same = ProgramArena::Layout(CountsOf(h));
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_EQ(same.value().channels_offset, h.channels_offset);
  EXPECT_EQ(same.value().buckets_offset, h.buckets_offset);
  EXPECT_EQ(same.value().entries_offset, h.entries_offset);
  EXPECT_EQ(same.value().words_offset, h.words_offset);
  EXPECT_EQ(same.value().strings_offset, h.strings_offset);
  EXPECT_EQ(same.value().aux_offset, h.aux_offset);
  EXPECT_EQ(same.value().total_bytes, h.total_bytes);
  EXPECT_EQ(same.value().num_buckets, h.num_buckets);
  EXPECT_EQ(same.value().num_entries, h.num_entries);
  EXPECT_EQ(same.value().string_pool_bytes, h.string_pool_bytes);

  const auto expect_rejected = [](const ArenaCounts& c) {
    const Result<ArenaHeader> layout = ProgramArena::Layout(c);
    ASSERT_FALSE(layout.ok());
    EXPECT_EQ(layout.status().code(), StatusCode::kInvalidArgument);
  };
  // The largest program: a string pool that ends the buffer at the last
  // 8-aligned byte below 2^32. One more byte rounds the total to 2^32.
  constexpr std::uint64_t kLargestTotal = 0xFFFFFFF8ull;
  ArenaCounts largest;
  largest.string_bytes = kLargestTotal - sizeof(ArenaHeader);
  const Result<ArenaHeader> fits = ProgramArena::Layout(largest);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits.value().total_bytes, kLargestTotal);
  EXPECT_EQ(fits.value().aux_offset, kLargestTotal);
  ++largest.string_bytes;
  expect_rejected(largest);

  // Sections that fit alone but not together: 3 GiB of buckets and
  // 2 GiB of entries.
  ArenaCounts sum;
  sum.buckets = (3ull << 30) / sizeof(ArenaBucket);
  ASSERT_TRUE(ProgramArena::Layout(sum).ok());
  sum.entries = (2ull << 30) / sizeof(ArenaPointerEntry);
  expect_rejected(sum);

  // A (1,m) cell of 20,000,000 records: the 2,000-record program's
  // pools scaled 10,000-fold, which is past 4 GiB.
  ArenaCounts scaled = CountsOf(h);
  scaled.buckets *= 10'000;
  scaled.entries *= 10'000;
  scaled.string_bytes *= 10'000;
  EXPECT_GT(scaled.buckets * sizeof(ArenaBucket) +
                scaled.entries * sizeof(ArenaPointerEntry),
            std::uint64_t{1} << 32);
  expect_rejected(scaled);

  // Counts past 2^32 - 1, up to 2^64 - 1, are rejected before any
  // arithmetic on them can wrap.
  for (const std::uint64_t huge :
       {std::uint64_t{1} << 32, std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
    for (std::uint64_t ArenaCounts::*field :
         {&ArenaCounts::channels, &ArenaCounts::buckets,
          &ArenaCounts::entries, &ArenaCounts::words,
          &ArenaCounts::string_bytes, &ArenaCounts::aux}) {
      ArenaCounts c;
      c.*field = huge;
      expect_rejected(c);
    }
  }
}

// The reference Flatten (tests/bucket_oracle.h), the oracle the writer
// is checked against, interns by content, not by storage:
// equal keys held in distinct std::string objects (bucket fields, and
// test-owned strings an entry views) and as views into the dataset share
// one ref across buckets and channels, the pool holds each distinct
// string once in first-touch order, and the empty string is {0, 0}. The
// expected refs come from a std::map reference interner that visits the
// strings in Flatten's traversal order: channels, buckets in cycle
// order, range_lo, range_hi, last_broadcast_key, then each local entry's
// key_lo and key_hi, then each control entry's.
TEST(SnapshotTest, FlattenInternsByContentNotByStorage) {
  DatasetConfig config;
  config.num_records = 6;
  const Dataset dataset = Dataset::Generate(config).value();
  const auto key = [&](int i) -> std::string_view {
    return dataset.record(i).key;
  };
  // Copies of dataset keys in storage of their own.
  std::vector<std::string> copies;
  for (int i = 0; i < dataset.size(); ++i) copies.emplace_back(key(i));
  const std::string extra = "zz-not-a-dataset-key";

  const auto index_bucket = [&](int lo, int hi, std::string last) {
    Bucket b;
    b.kind = BucketKind::kIndex;
    b.size = 100;
    b.level = 0;
    b.range_lo = std::string(key(lo));
    b.range_hi = copies[static_cast<std::size_t>(hi)];
    b.last_broadcast_key = std::move(last);
    for (int i = lo; i <= hi; ++i) {
      b.local.push_back(PointerEntry{key(i), copies[static_cast<std::size_t>(i)],
                                     100 * i, kSameChannel});
    }
    b.control.push_back(PointerEntry{std::string_view(), key(hi), 0, 1});
    b.control.push_back(PointerEntry{extra, copies[0], 200, 0});
    return b;
  };
  std::vector<Bucket> first = {index_bucket(0, 2, ""),
                               index_bucket(2, 4, std::string(key(1)))};
  first.emplace_back();
  first.back().size = 100;
  first.back().record_id = 3;
  std::vector<Bucket> second = {index_bucket(1, 5, extra),
                                index_bucket(0, 0, copies[5])};

  const Result<ProgramArena> flattened =
      Flatten({&first, &second}, 0, -1, 0, 0, {});
  ASSERT_TRUE(flattened.ok()) << flattened.status().ToString();
  const ProgramArena& arena = flattened.value();

  std::map<std::string, ArenaStrRef> reference;
  std::string expected_pool;
  const auto intern = [&](std::string_view s) {
    if (s.empty()) return ArenaStrRef{0, 0};
    const auto [it, fresh] = reference.try_emplace(
        std::string(s), ArenaStrRef{static_cast<std::uint32_t>(
                                        expected_pool.size()),
                                    static_cast<std::uint32_t>(s.size())});
    if (fresh) expected_pool.append(s);
    return it->second;
  };
  const auto expect_ref = [&](const ArenaStrRef& got, std::string_view s) {
    const ArenaStrRef want = intern(s);
    EXPECT_EQ(got.offset, want.offset) << "\"" << s << "\"";
    EXPECT_EQ(got.length, want.length) << "\"" << s << "\"";
    EXPECT_EQ(arena.str(got), s);
  };
  std::uint32_t at = 0;
  std::uint32_t empty_refs = 0;
  for (const std::vector<Bucket>* channel : {&first, &second}) {
    for (const Bucket& b : *channel) {
      const ArenaBucket& flat = arena.bucket(at++);
      expect_ref(flat.range_lo, b.range_lo);
      expect_ref(flat.range_hi, b.range_hi);
      expect_ref(flat.last_broadcast_key, b.last_broadcast_key);
      if (b.last_broadcast_key.empty()) {
        ++empty_refs;
        EXPECT_EQ(flat.last_broadcast_key.offset, 0u);
        EXPECT_EQ(flat.last_broadcast_key.length, 0u);
      }
      ASSERT_EQ(flat.local_count, b.local.size());
      ASSERT_EQ(flat.control_count, b.control.size());
      for (std::size_t i = 0; i < b.local.size(); ++i) {
        const ArenaPointerEntry& e =
            arena.entry(flat.local_first + static_cast<std::uint32_t>(i));
        expect_ref(e.key_lo, b.local[i].key_lo);
        expect_ref(e.key_hi, b.local[i].key_hi);
      }
      for (std::size_t i = 0; i < b.control.size(); ++i) {
        const ArenaPointerEntry& e =
            arena.entry(flat.control_first + static_cast<std::uint32_t>(i));
        expect_ref(e.key_lo, b.control[i].key_lo);
        expect_ref(e.key_hi, b.control[i].key_hi);
        if (b.control[i].key_lo.empty()) {
          ++empty_refs;
          EXPECT_EQ(e.key_lo.offset, 0u);
          EXPECT_EQ(e.key_lo.length, 0u);
        }
      }
    }
  }
  EXPECT_EQ(at, arena.num_buckets());
  EXPECT_GT(empty_refs, 0u);
  // Every dataset key and the extra string, each once.
  EXPECT_EQ(reference.size(), static_cast<std::size_t>(dataset.size()) + 1);
  const ArenaHeader& header = arena.header();
  ASSERT_EQ(header.string_pool_bytes, expected_pool.size());
  EXPECT_EQ(std::string_view(reinterpret_cast<const char*>(
                                 arena.bytes().data() + header.strings_offset),
                             header.string_pool_bytes),
            expected_pool);
}

// ArenaWriter interns keys by record position: the first touch of a
// position appends its key, later touches reuse the ref. Over a cycle
// that touches keys out of order and again and again (ranges, last
// broadcast keys, local and control entries, with data and signature
// buckets between), it writes the same arena as the reference Flatten of
// the same buckets, which interns by content, and its pool holds each
// touched key once.
TEST(SnapshotTest, ArenaWriterInternsKeysByRecordPosition) {
  DatasetConfig config;
  config.num_records = 8;
  const Dataset dataset = Dataset::Generate(config).value();
  const auto key = [&](int i) -> std::string_view {
    return dataset.record(i).key;
  };
  ArenaWriter writer(dataset);
  std::vector<Bucket> reference;
  const auto index_bucket = [&](int lo, int hi, int last) {
    ArenaBucket& flat = writer.Append(BucketKind::kIndex, 100);
    flat.level = 1;
    flat.next_index_segment_phase = 0;
    flat.range_lo = writer.Key(lo);
    flat.range_hi = writer.Key(hi);
    Bucket b;
    b.kind = BucketKind::kIndex;
    b.size = 100;
    b.level = 1;
    b.next_index_segment_phase = 0;
    b.range_lo = std::string(key(lo));
    b.range_hi = std::string(key(hi));
    if (last >= 0) {
      flat.last_broadcast_key = writer.Key(last);
      b.last_broadcast_key = std::string(key(last));
    }
    for (int i = hi; i >= lo; --i) {
      writer.AddLocal(i, hi, 100 * i, i % 2 == 0 ? kSameChannel : 1);
      b.local.push_back(PointerEntry{key(i), key(hi), 100 * i,
                                     i % 2 == 0 ? kSameChannel : 1});
    }
    writer.AddControl(0, 7, 0);
    b.control.push_back(PointerEntry{key(0), key(7), 0, kSameChannel});
    reference.push_back(std::move(b));
  };
  index_bucket(5, 6, -1);
  index_bucket(2, 4, 6);
  writer.Append(BucketKind::kData, 100).record_id = 3;
  reference.emplace_back();
  reference.back().size = 100;
  reference.back().record_id = 3;
  writer.Append(BucketKind::kSignature, 16).record_id = 1;
  std::uint64_t* words = writer.AddWords(2);
  words[0] = 0x0123456789abcdefull;
  words[1] = 0xfedcba9876543210ull;
  reference.emplace_back();
  reference.back().kind = BucketKind::kSignature;
  reference.back().size = 16;
  reference.back().record_id = 1;
  reference.back().signature = {words[0], words[1]};
  index_bucket(1, 3, 0);
  ASSERT_EQ(writer.num_buckets(), reference.size());

  const Result<ProgramArena> written = std::move(writer).Finish();
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  const Result<ProgramArena> flattened =
      Flatten({&reference}, 0, -1, 0, 0, {});
  ASSERT_TRUE(flattened.ok()) << flattened.status().ToString();
  EXPECT_EQ(written.value().bytes(), flattened.value().bytes());
  EXPECT_EQ(written.value().header().string_pool_bytes,
            static_cast<std::uint32_t>(8 * config.key_width));
  EXPECT_TRUE(ProgramArena::FromBytes(written.value().bytes()).ok());
}

// LoadFile of `bytes` written to a temporary file.
Result<ProgramArena> LoadThroughFile(const std::vector<std::uint8_t>& bytes) {
  const std::string path = testing::TempDir() + "/snapshot_test_load.snap";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  EXPECT_NE(file, nullptr);
  if (file == nullptr) return Status::Internal("cannot write " + path);
  // An empty vector's data() may be null, which fwrite must not be given.
  if (!bytes.empty()) {
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  }
  std::fclose(file);
  Result<ProgramArena> loaded = ProgramSnapshot::LoadFile(path);
  std::remove(path.c_str());
  return loaded;
}

// LoadFile and Deserialize share one set of header checks: every
// corrupt buffer the Deserialize cases above reject, LoadFile rejects
// from disk too — and a header claiming far more payload than the file
// holds is refused before the claimed size is allocated.
TEST(SnapshotTest, LoadFileRejectsEverythingDeserializeRejects) {
  const Built built = BuildProgram(SchemeKind::kDistributed, 120);
  const std::vector<std::uint8_t> wire =
      ProgramSnapshot::Serialize(built.arena);
  auto loaded = LoadThroughFile(wire);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().bytes(), built.arena.bytes());

  const auto expect_rejected = [](const std::string& what,
                                  const std::vector<std::uint8_t>& bytes) {
    SCOPED_TRACE(what);
    EXPECT_FALSE(ProgramSnapshot::Deserialize(bytes).ok());
    const auto from_file = LoadThroughFile(bytes);
    ASSERT_FALSE(from_file.ok());
    EXPECT_EQ(from_file.status().code(), StatusCode::kInvalidArgument);
  };
  for (std::size_t keep = 0; keep <= sizeof(SnapshotHeader); ++keep) {
    expect_rejected("cut to " + std::to_string(keep) + " bytes",
                    std::vector<std::uint8_t>(wire.begin(),
                                              wire.begin() + keep));
  }
  expect_rejected("payload one byte short",
                  std::vector<std::uint8_t>(wire.begin(), wire.end() - 1));
  std::vector<std::uint8_t> grown = wire;
  grown.push_back(0);
  expect_rejected("payload one byte long", grown);
  for (std::size_t pos = 0; pos < wire.size();
       pos += pos < sizeof(SnapshotHeader) ? 1 : 397) {
    std::vector<std::uint8_t> corrupt = wire;
    corrupt[pos] ^= 0x20;
    expect_rejected("flip at byte " + std::to_string(pos), corrupt);
  }

  SnapshotHeader header;
  std::memcpy(&header, wire.data(), sizeof(header));
  std::vector<std::uint8_t> bad = wire;
  SnapshotHeader bad_magic = header;
  bad_magic.magic = 0x44414544u;
  std::memcpy(bad.data(), &bad_magic, sizeof(bad_magic));
  expect_rejected("bad magic", bad);
  SnapshotHeader bad_version = header;
  bad_version.format_version = ProgramSnapshot::kFormatVersion + 1;
  std::memcpy(bad.data(), &bad_version, sizeof(bad_version));
  expect_rejected("bad version", bad);

  std::vector<std::uint8_t> huge(1024, 0);
  SnapshotHeader huge_claim = header;
  huge_claim.payload_bytes = std::uint64_t{1} << 40;
  std::memcpy(huge.data(), &huge_claim, sizeof(huge_claim));
  expect_rejected("2^40 payload bytes claimed over 1 KiB", huge);
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

// WriteFile writes the header and then the arena's own bytes; the file
// is Serialize(arena) byte for byte.
TEST(SnapshotTest, WriteFileEqualsSerialize) {
  for (const SchemeKind kind :
       {SchemeKind::kOneM, SchemeKind::kSignature, SchemeKind::kHybrid}) {
    SCOPED_TRACE(SchemeKindToString(kind));
    const Built built = BuildProgram(kind, 110);
    const std::string path = testing::TempDir() + "/snapshot_test_write.snap";
    ASSERT_TRUE(ProgramSnapshot::WriteFile(path, built.arena).ok());
    EXPECT_EQ(ReadAll(path), ProgramSnapshot::Serialize(built.arena));
    std::remove(path.c_str());
  }
}

// The format-1 golden stays as an old-format fixture: both readers reject
// it by its version, and under the format-2 name of its own key the
// program cache treats it as one miss, rebuilds, and rewrites the file,
// which the next cache then hits.
TEST(SnapshotTest, FormatOneSnapshotIsACleanMissThatRebuilds) {
  const std::string fixture =
      std::string(AIRINDEX_TEST_DATA_DIR) + "/one_m_n64_v1.snap";
  const std::vector<std::uint8_t> v1 = ReadAll(fixture);
  ASSERT_FALSE(v1.empty()) << "missing fixture " << fixture;
  for (const Result<ProgramArena>& loaded :
       {ProgramSnapshot::Deserialize(v1), ProgramSnapshot::LoadFile(fixture)}) {
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(
                  "format version 1 unsupported (want 2)"),
              std::string::npos)
        << loaded.status().ToString();
  }

  const Built built = BuildProgram(SchemeKind::kOneM, 64);
  const BucketGeometry geometry;
  const SchemeParams params;
  const std::string dir = testing::TempDir();
  const std::string path = ProgramCache(dir).SnapshotPath(
      SchemeKind::kOneM, DatasetFingerprint(*built.dataset),
      ProgramParamsFingerprint(SchemeKind::kOneM, geometry, params));
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(v1.data(), 1, v1.size(), file), v1.size());
    std::fclose(file);
  }

  ProgramCache stale(dir);
  auto rebuilt =
      stale.GetOrBuild(SchemeKind::kOneM, built.dataset, geometry, params);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  const MetricsRegistry cold = stale.MetricsSnapshot();
  EXPECT_EQ(cold.Get("program.snapshot_misses"), 1);
  EXPECT_EQ(cold.Get("program.snapshot_hits"), 0);
  EXPECT_EQ(cold.Get("program.builds"), 1);
  EXPECT_EQ(cold.Get("program.snapshot_writes"), 1);
  EXPECT_EQ(ReadAll(path), ProgramSnapshot::Serialize(built.arena));

  ProgramCache fresh(dir);
  auto restored =
      fresh.GetOrBuild(SchemeKind::kOneM, built.dataset, geometry, params);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const MetricsRegistry warm = fresh.MetricsSnapshot();
  EXPECT_EQ(warm.Get("program.snapshot_hits"), 1);
  EXPECT_EQ(warm.Get("program.builds"), 0);
  std::remove(path.c_str());
}

// The committed golden file pins the on-disk format: if the written byte
// layout drifts without a version bump, this test fails first.
TEST(SnapshotTest, GoldenSnapshotLoadsAndMatchesRebuild) {
  const std::string path =
      std::string(AIRINDEX_TEST_DATA_DIR) + "/one_m_n64_v2.snap";
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

// What the code outside the walks reads of a program: its shape, the
// record id of every data bucket in cycle order, and the PIX broadcast
// frequencies.
struct ProgramReadSurface {
  Bytes cycle_bytes = 0;
  std::size_t num_buckets = 0;
  std::size_t num_data_buckets = 0;
  std::size_t num_index_buckets = 0;
  std::size_t num_signature_buckets = 0;
  std::vector<std::int64_t> data_record_ids;
  std::vector<double> frequencies;
};

ProgramReadSurface ReadSurfaceOf(const BroadcastScheme& scheme,
                                 int num_records) {
  const ArenaChannelView& view = scheme.view();
  ProgramReadSurface surface;
  surface.cycle_bytes = view.cycle_bytes();
  surface.num_buckets = view.num_buckets();
  surface.num_data_buckets = view.num_data_buckets();
  surface.num_index_buckets = view.num_index_buckets();
  surface.num_signature_buckets = view.num_signature_buckets();
  for (std::size_t i = 0; i < view.num_buckets(); ++i) {
    if (view.bucket(i).kind() == BucketKind::kData) {
      surface.data_record_ids.push_back(view.bucket(i).record_id());
    }
  }
  surface.frequencies = BroadcastFrequencies({&view}, num_records);
  return surface;
}

// One flattened program of the default recipe (BuildProgram), pinned by
// its size and checksum (HashBytes) as FlattenSchemeProgram wrote it when
// these values were recorded. Format 2 moved every checksum but no size:
// only the arena header's version and fingerprints changed.
struct PinnedProgram {
  SchemeKind kind;
  int num_records;
  std::size_t arena_bytes;
  std::uint64_t checksum;
};

constexpr PinnedProgram kPinnedPrograms[] = {
    {SchemeKind::kFlat, 150, 15696, 0x3e897d7a964b321aull},
    {SchemeKind::kOneM, 150, 43968, 0xc0a1c8d2891ba3baull},
    {SchemeKind::kDistributed, 150, 29016, 0x1f1bd91e13028984ull},
    {SchemeKind::kHashing, 150, 21632, 0x28c2c7ee6a7012acull},
    {SchemeKind::kSignature, 150, 33696, 0xd28464ea3aeeedc1ull},
    {SchemeKind::kIntegratedSignature, 150, 17384, 0x82206cd30822e262ull},
    {SchemeKind::kMultiLevelSignature, 150, 35384, 0xff8c1a747b295288ull},
    {SchemeKind::kBroadcastDisks, 150, 25128, 0x119894d5997dd1a1ull},
    {SchemeKind::kHybrid, 150, 38456, 0x9ca31a46e05004ecull},
    {SchemeKind::kFlat, 2000, 208096, 0x342a849a7c5d5aabull},
    {SchemeKind::kOneM, 2000, 582520, 0xcefa129288ff5021ull},
    {SchemeKind::kDistributed, 2000, 423960, 0x37f6b5223e504e28ull},
    {SchemeKind::kHashing, 2000, 284960, 0xa6e1deec5e2cd407ull},
    {SchemeKind::kSignature, 2000, 448096, 0xe9207ca8d016a34eull},
    {SchemeKind::kIntegratedSignature, 2000, 229104, 0x16e9af7ef4dfca90ull},
    {SchemeKind::kMultiLevelSignature, 2000, 469104, 0x4f99f37c0948dc18ull},
    {SchemeKind::kBroadcastDisks, 2000, 332968, 0xf241fc2bcafb456aull},
    {SchemeKind::kHybrid, 2000, 532248, 0xb4795722ad5a57f2ull},
};

// A restored program is the built program, for every scheme at two
// sizes: the same read surface, the same channel-shape block in a
// testbed report (a cold run builds, a warm run restores from the
// snapshot the cold run wrote), and FlattenSchemeProgram of either twin
// reproduces the pinned bytes.
TEST(SnapshotTest, RestoredProgramEqualsBuiltProgram) {
  const std::string dir = testing::TempDir();
  for (const PinnedProgram& pin : kPinnedPrograms) {
    SCOPED_TRACE(std::string(SchemeKindToString(pin.kind)) + " at " +
                 std::to_string(pin.num_records) + " records");
    const Built built = BuildProgram(pin.kind, pin.num_records);
    auto loaded =
        ProgramSnapshot::Deserialize(ProgramSnapshot::Serialize(built.arena));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    auto arena =
        std::make_shared<const ProgramArena>(std::move(loaded).value());
    auto restored = RestoreSchemeFromArena(arena, built.dataset,
                                           BucketGeometry{}, SchemeParams{});
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();

    const ProgramReadSurface want =
        ReadSurfaceOf(*built.scheme, pin.num_records);
    const ProgramReadSurface got =
        ReadSurfaceOf(*restored.value(), pin.num_records);
    EXPECT_EQ(got.cycle_bytes, want.cycle_bytes);
    EXPECT_EQ(got.num_buckets, want.num_buckets);
    EXPECT_EQ(got.num_data_buckets, want.num_data_buckets);
    EXPECT_EQ(got.num_index_buckets, want.num_index_buckets);
    EXPECT_EQ(got.num_signature_buckets, want.num_signature_buckets);
    EXPECT_EQ(got.data_record_ids, want.data_record_ids);
    EXPECT_EQ(got.frequencies, want.frequencies);
    EXPECT_EQ(want.data_record_ids.size(), want.num_data_buckets);

    const std::uint64_t dfp = DatasetFingerprint(*built.dataset);
    const std::uint64_t pfp =
        ProgramParamsFingerprint(pin.kind, BucketGeometry{}, SchemeParams{});
    auto from_built = FlattenSchemeProgram(pin.kind, *built.scheme, dfp, pfp);
    auto from_restored =
        FlattenSchemeProgram(pin.kind, *restored.value(), dfp, pfp);
    ASSERT_TRUE(from_built.ok()) << from_built.status().ToString();
    ASSERT_TRUE(from_restored.ok()) << from_restored.status().ToString();
    EXPECT_EQ(from_built.value().bytes(), built.arena.bytes());
    EXPECT_EQ(from_restored.value().bytes(), built.arena.bytes());
    EXPECT_EQ(built.arena.bytes().size(), pin.arena_bytes);
    EXPECT_EQ(built.arena.Checksum(), pin.checksum);

    TestbedConfig config;
    config.scheme = pin.kind;
    config.dataset = built.dataset;
    config.program_cache_dir = dir;
    config.requests_per_round = 40;
    config.min_rounds = 2;
    config.max_rounds = 2;
    const std::string path = ProgramCache(dir).SnapshotPath(
        pin.kind, dfp,
        ProgramParamsFingerprint(pin.kind, config.geometry,
                                 ResolvedSchemeParams(config)));
    std::remove(path.c_str());
    auto cold = RunTestbed(config);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    std::FILE* written = std::fopen(path.c_str(), "rb");
    ASSERT_NE(written, nullptr) << "the cold run wrote no snapshot";
    std::fclose(written);
    auto warm = RunTestbed(config);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(warm.value().cycle_bytes, cold.value().cycle_bytes);
    EXPECT_EQ(warm.value().num_buckets, cold.value().num_buckets);
    EXPECT_EQ(warm.value().num_index_buckets, cold.value().num_index_buckets);
    EXPECT_EQ(warm.value().num_signature_buckets,
              cold.value().num_signature_buckets);
    EXPECT_EQ(warm.value().num_data_buckets, cold.value().num_data_buckets);
    EXPECT_EQ(warm.value().num_channels, cold.value().num_channels);
    EXPECT_EQ(cold.value().cycle_bytes, want.cycle_bytes);
    EXPECT_EQ(cold.value().num_buckets,
              static_cast<std::int64_t>(want.num_buckets));
    EXPECT_EQ(cold.value().num_data_buckets,
              static_cast<std::int64_t>(want.num_data_buckets));
    EXPECT_EQ(warm.value().access.mean(), cold.value().access.mean());
    EXPECT_EQ(warm.value().tuning.mean(), cold.value().tuning.mean());
    std::remove(path.c_str());
  }
}

// One channel of a 4-channel program over a (1,m) base (default
// geometry, generated dataset), pinned by the size and checksum of the
// untagged arena its view is bound to.
struct PinnedChannel {
  ChannelAllocation allocation;
  int num_records;
  int channel;
  std::size_t arena_bytes;
  std::uint64_t checksum;
};

constexpr PinnedChannel kPinnedChannels[] = {
    {ChannelAllocation::kIndexOnOne, 150, 0, 9976, 0x24fd64257c011bc2ull},
    {ChannelAllocation::kIndexOnOne, 150, 1, 5296, 0x3dbfe7c7d39f7691ull},
    {ChannelAllocation::kIndexOnOne, 150, 2, 5296, 0x894f84403eb725faull},
    {ChannelAllocation::kIndexOnOne, 150, 3, 5296, 0xe876dc7780b14edeull},
    {ChannelAllocation::kDataPartitioned, 150, 0, 9960, 0x7856b06e79bf9250ull},
    {ChannelAllocation::kDataPartitioned, 150, 1, 10184, 0x607defa2477edd84ull},
    {ChannelAllocation::kDataPartitioned, 150, 2, 9960, 0x3edcdcd91650248dull},
    {ChannelAllocation::kDataPartitioned, 150, 3, 10184, 0x1cc5782296301216ull},
    {ChannelAllocation::kReplicatedIndex, 150, 0, 13824, 0x8562bfcb59ad8edfull},
    {ChannelAllocation::kReplicatedIndex, 150, 1, 13928, 0x528710fb886de3d3ull},
    {ChannelAllocation::kReplicatedIndex, 150, 2, 13824, 0x4accf33091a81fc3ull},
    {ChannelAllocation::kReplicatedIndex, 150, 3, 13928, 0x4d3ee9d554f862bdull},
    {ChannelAllocation::kIndexOnOne, 2000, 0, 131200, 0x705980fe1fe59e30ull},
    {ChannelAllocation::kIndexOnOne, 2000, 1, 69360, 0x5c9a4f379f74e06cull},
    {ChannelAllocation::kIndexOnOne, 2000, 2, 69464, 0x07ce23fe50e7e076ull},
    {ChannelAllocation::kIndexOnOne, 2000, 3, 69464, 0xc7c1ec78dec7c999ull},
    {ChannelAllocation::kDataPartitioned, 2000, 0, 146424, 0x0c912c1809de2bf7ull},
    {ChannelAllocation::kDataPartitioned, 2000, 1, 146424, 0x4d20c2f25b6400a8ull},
    {ChannelAllocation::kDataPartitioned, 2000, 2, 146424, 0x6fc228f41425ef3aull},
    {ChannelAllocation::kDataPartitioned, 2000, 3, 146424, 0xebbc0ddd0446334full},
    {ChannelAllocation::kReplicatedIndex, 2000, 0, 183200, 0xeb6ea1bf9fb8ea67ull},
    {ChannelAllocation::kReplicatedIndex, 2000, 1, 183200, 0x666c2061e3857b78ull},
    {ChannelAllocation::kReplicatedIndex, 2000, 2, 183200, 0x14734df1e797e732ull},
    {ChannelAllocation::kReplicatedIndex, 2000, 3, 183200, 0x18c7f7af9b08a0e9ull},
};

// Every channel a multichannel build lays out is pinned byte for byte:
// the index channel and flat data channels of index-on-one, the (1,m)
// partition programs of data-partitioned, and the index copy plus data
// partition of each replicated-index channel.
TEST(SnapshotTest, MultiChannelProgramsArePinned) {
  for (const PinnedChannel& pin : kPinnedChannels) {
    SCOPED_TRACE(std::string(ChannelAllocationToString(pin.allocation)) +
                 " at " + std::to_string(pin.num_records) +
                 " records, channel " + std::to_string(pin.channel));
    DatasetConfig dataset_config;
    dataset_config.num_records = pin.num_records;
    auto dataset = std::make_shared<const Dataset>(
        Dataset::Generate(dataset_config).value());
    MultiChannelParams multichannel;
    multichannel.num_channels = 4;
    multichannel.allocation = pin.allocation;
    auto program = MultiChannelProgram::Build(SchemeKind::kOneM, dataset,
                                              BucketGeometry{}, SchemeParams{},
                                              multichannel);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    ASSERT_EQ(program.value()->num_channels(), 4);
    const ProgramArena& arena =
        program.value()->channel_view(pin.channel).arena();
    EXPECT_EQ(arena.bytes().size(), pin.arena_bytes);
    EXPECT_EQ(arena.Checksum(), pin.checksum);
  }
}

// A square-root scheduled program (default geometry, generated dataset,
// three disks planned for theta 0.9) of each segment style, pinned as
// FlattenSchemeProgram writes it: size and checksum.
struct PinnedScheduled {
  SchemeKind kind;
  int num_records;
  std::size_t arena_bytes;
  std::uint64_t checksum;
};

constexpr PinnedScheduled kPinnedScheduled[] = {
    {SchemeKind::kOneM, 150, 24336, 0x13e8df62ad56e159ull},
    {SchemeKind::kHashing, 150, 21488, 0x16f19159dde123edull},
    {SchemeKind::kSignature, 150, 22632, 0x2b6c72f5360eb26cull},
    {SchemeKind::kOneM, 2000, 425712, 0x886f46df0db6a3d2ull},
    {SchemeKind::kHashing, 2000, 374848, 0x6de548811daeb475ull},
    {SchemeKind::kSignature, 2000, 400672, 0x185b64f854ebcba7ull},
};

TEST(SnapshotTest, SquareRootScheduledProgramsArePinned) {
  for (const PinnedScheduled& pin : kPinnedScheduled) {
    SCOPED_TRACE(std::string(SchemeKindToString(pin.kind)) + " at " +
                 std::to_string(pin.num_records) + " records");
    DatasetConfig dataset_config;
    dataset_config.num_records = pin.num_records;
    auto dataset = std::make_shared<const Dataset>(
        Dataset::Generate(dataset_config).value());
    SchemeParams params;
    params.schedule.scheduler = SchedulerKind::kSquareRoot;
    params.schedule.theta = 0.9;
    const BucketGeometry geometry;
    auto scheme = BuildScheme(pin.kind, dataset, geometry, params);
    ASSERT_TRUE(scheme.ok()) << scheme.status().ToString();
    const auto* scheduled =
        dynamic_cast<const ScheduledBroadcast*>(scheme.value().get());
    ASSERT_NE(scheduled, nullptr);
    auto arena = FlattenSchemeProgram(
        pin.kind, *scheme.value(), DatasetFingerprint(*dataset),
        ProgramParamsFingerprint(pin.kind, geometry, params));
    ASSERT_TRUE(arena.ok()) << arena.status().ToString();
    EXPECT_EQ(arena.value().bytes().size(), pin.arena_bytes);
    EXPECT_EQ(arena.value().Checksum(), pin.checksum);
  }
}

// A built program is the flattening of its own buckets: for every kind,
// at record counts around the 64-record word and the 1,024-record block
// of the signature slices, the arena a builder wrote equals, byte for
// byte, the reference flattening of the buckets inflated back from it.
TEST(SnapshotTest, BuiltArenaEqualsFlattenOfItsInflatedBuckets) {
  for (const int n : {1, 2, 63, 64, 65, 1024, 1025, 2113}) {
    DatasetConfig dataset_config;
    dataset_config.num_records = n;
    auto dataset = std::make_shared<const Dataset>(
        Dataset::Generate(dataset_config).value());
    for (const SchemeKind kind : kAllSchemes) {
      SCOPED_TRACE(std::string(SchemeKindToString(kind)) + " at " +
                   std::to_string(n) + " records");
      auto scheme = BuildScheme(kind, dataset, BucketGeometry{});
      if (kind == SchemeKind::kBroadcastDisks && n < 3) {
        EXPECT_FALSE(scheme.ok()) << "three default disks need 3 records";
        continue;
      }
      ASSERT_TRUE(scheme.ok()) << scheme.status().ToString();
      const ArenaChannelView& view = scheme.value()->view();
      const InflatedChannel channel(view);
      const Result<ProgramArena> reference = Flatten(
          {&channel.buckets()}, 0, -1, 0, 0, {});
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      EXPECT_EQ(view.arena().bytes(), reference.value().bytes());
    }
  }
}

// The signature walk reads record k's signature as row k of the arena's
// word pool, so a restore must reject a cycle whose pairs are out of
// record order — here pairs 0 and 1 swapped — rather than serve a walk
// that disagrees with the channel.
TEST(SnapshotTest, SignatureRestoreRejectsMisorderedPairs) {
  const Built built = BuildProgram(SchemeKind::kSignature, 16);
  std::vector<Bucket> buckets = InflatedChannel(*built.scheme).buckets();
  std::swap(buckets[0], buckets[2]);
  std::swap(buckets[1], buckets[3]);
  auto arena = std::make_shared<const ProgramArena>(
      Flatten({&buckets}, 0,
                            static_cast<int>(SchemeKind::kSignature), 0, 0, {})
          .value());
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
  const InflatedChannel channel(*built.scheme);
  const std::vector<Bucket>& buckets = channel.buckets();
  const auto restore = [&](const std::vector<Bucket>& program,
                           const std::vector<std::int64_t>& aux) {
    auto arena = std::make_shared<const ProgramArena>(
        Flatten({&program}, 0,
                              static_cast<int>(SchemeKind::kBroadcastDisks),
                              0, 0, aux)
            .value());
    return RestoreSchemeFromArena(arena, built.dataset, BucketGeometry{},
                                  SchemeParams{});
  };
  // Each planted defect must trip the check named by `reason`.
  const auto expect_rejected = [&](const std::string& what,
                                   const std::vector<Bucket>& program,
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
  ASSERT_TRUE(restore(buckets, good).ok());

  expect_rejected("empty aux", buckets, {}, kNotScheduled);
  std::vector<std::int64_t> aux = good;
  aux[0] = kTag + 1;
  expect_rejected("wrong tag", buckets, aux, kNotScheduled);
  expect_rejected("D = 0", buckets, {kTag, 0, 0}, kMalformed);
  std::vector<std::int64_t> d65 = {kTag, 65};
  d65.resize(3 + 2 * 65, 1);
  expect_rejected("D = 65", buckets, d65, kMalformed);
  aux = good;
  aux.push_back(0);
  expect_rejected("aux longer than D implies", buckets, aux, kMalformed);
  aux = good;
  aux.erase(aux.begin() + 2);
  expect_rejected("aux shorter than D implies", buckets, aux, kMalformed);
  aux = good;
  aux[6] = 3;  // frequencies {4, 3, 1}
  expect_rejected("frequency that does not divide the hottest", buckets, aux,
                  kMalformed);
  aux = good;
  aux[4] = 99;  // the last disk ends one record short
  expect_rejected("disk bounds that do not cover the dataset", buckets, aux,
                  "assignment does not cover the dataset");

  std::vector<Bucket> swapped = buckets;
  ASSERT_NE(swapped[0].record_id, swapped[1].record_id);
  std::swap(swapped[0], swapped[1]);
  expect_rejected("two data buckets swapped", swapped, good, kLayout);
  std::vector<Bucket> out_of_range = buckets;
  out_of_range[5].record_id = 100;
  expect_rejected("record id out of range", out_of_range, good, kLayout);
  std::vector<Bucket> short_cycle = buckets;
  short_cycle.pop_back();
  expect_rejected("a record missing from the cycle", short_cycle, good,
                  "channel length does not match the plan");
}

// Binding is the whole restore of a program, so Bind itself rejects what
// the walks cannot serve: no arena, a multichannel arena, and a bucket
// whose size is not positive (a phase division by zero).
TEST(SnapshotTest, ArenaViewBindsOnlySingleChannelPrograms) {
  const Built built = BuildProgram(SchemeKind::kFlat, 16);
  auto bound = ArenaChannelView::Bind(
      std::make_shared<const ProgramArena>(built.arena));
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound.value().cycle_bytes(), built.scheme->view().cycle_bytes());
  EXPECT_EQ(bound.value().num_buckets(), built.scheme->view().num_buckets());

  const auto expect_rejected = [](std::shared_ptr<const ProgramArena> arena) {
    const auto view = ArenaChannelView::Bind(std::move(arena));
    ASSERT_FALSE(view.ok());
    EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
  };
  expect_rejected(nullptr);
  const std::vector<Bucket> buckets = InflatedChannel(*built.scheme).buckets();
  expect_rejected(std::make_shared<const ProgramArena>(
      Flatten({&buckets, &buckets}, 0, -1, 0, 0, {}).value()));
  std::vector<std::uint8_t> raw = built.arena.bytes();
  ArenaHeader header;
  std::memcpy(&header, raw.data(), sizeof(header));
  const std::int64_t zero = 0;
  std::memcpy(raw.data() + header.buckets_offset + 5 * sizeof(ArenaBucket),
              &zero, sizeof(zero));
  auto zero_size = ProgramArena::FromBytes(std::move(raw));
  ASSERT_TRUE(zero_size.ok()) << zero_size.status().ToString();
  expect_rejected(
      std::make_shared<const ProgramArena>(std::move(zero_size).value()));
}

// A snapshot file is input from outside the process, and its checksum
// guards only against accidents: Serialize recomputes it over whatever
// bytes it is given. So `raw`, a hand-edited copy of a built arena, goes
// the way such a file would: Serialize, Deserialize, then restore.
Result<std::unique_ptr<BroadcastScheme>> RestoreThroughSnapshot(
    std::vector<std::uint8_t> raw, const Built& built) {
  Result<ProgramArena> arena = ProgramArena::FromBytes(std::move(raw));
  if (!arena.ok()) return arena.status();
  Result<ProgramArena> loaded = ProgramSnapshot::Deserialize(
      ProgramSnapshot::Serialize(arena.value()));
  if (!loaded.ok()) return loaded.status();
  return RestoreSchemeFromArena(
      std::make_shared<const ProgramArena>(std::move(loaded).value()),
      built.dataset, BucketGeometry{}, SchemeParams{});
}

// Overwrites the int64 field at byte `offset` of `raw` with `value`.
void PatchInt64(std::vector<std::uint8_t>* raw, std::size_t offset,
                std::int64_t value) {
  std::memcpy(raw->data() + offset, &value, sizeof(value));
}

void ExpectRestoreRejected(std::vector<std::uint8_t> raw, const Built& built) {
  const auto restored = RestoreThroughSnapshot(std::move(raw), built);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

// The walks follow pointer phases without checking them, so a restore
// must reject a phase past the cycle, a negative one, and one in the
// middle of a bucket: in an index entry (local, and for distributed
// indexing control) and in a bucket's next-index-segment pointer.
TEST(SnapshotTest, RestoreRejectsPointerPhasesOffTheCycle) {
  for (const SchemeKind kind :
       {SchemeKind::kOneM, SchemeKind::kDistributed}) {
    SCOPED_TRACE(SchemeKindToString(kind));
    const Built built = BuildProgram(kind, 500);
    ASSERT_TRUE(RestoreThroughSnapshot(built.arena.bytes(), built).ok());
    const ArenaHeader& header = built.arena.header();
    const auto entry_phase = [&](std::uint32_t e) {
      return header.entries_offset + e * sizeof(ArenaPointerEntry) +
             offsetof(ArenaPointerEntry, target_phase);
    };
    // Entry 0 is the first index bucket's first local entry.
    std::vector<std::size_t> pointers = {
        entry_phase(0),
        header.buckets_offset + sizeof(ArenaBucket) +
            offsetof(ArenaBucket, next_index_segment_phase)};
    for (std::uint32_t b = 0; b < built.arena.num_buckets(); ++b) {
      const ArenaBucket& bucket = built.arena.bucket(b);
      if (bucket.control_count > 0) {
        pointers.push_back(entry_phase(bucket.control_first));
        break;
      }
    }
    EXPECT_EQ(pointers.size(), kind == SchemeKind::kDistributed ? 3u : 2u);

    const Bytes cycle = built.scheme->view().cycle_bytes();
    for (const std::size_t pointer : pointers) {
      std::int64_t phase = 0;
      std::memcpy(&phase, built.arena.bytes().data() + pointer,
                  sizeof(phase));
      ASSERT_GE(phase, 0);
      for (const Bytes bad : {phase + cycle, phase - cycle, phase + 1,
                              std::int64_t{-(std::int64_t{1} << 40)},
                              std::int64_t{9223372036854775000}}) {
        SCOPED_TRACE("pointer at byte " + std::to_string(pointer) +
                     " set to phase " + std::to_string(bad));
        std::vector<std::uint8_t> raw = built.arena.bytes();
        PatchInt64(&raw, pointer, bad);
        ExpectRestoreRejected(std::move(raw), built);
      }
    }
  }
}

// The walks index the dataset with a data bucket's record id. Hashing
// is the one scheme with record-less data buckets, its empty home slots;
// their hash value of -1 keeps every walk from reading the record, so
// a record-less slot that claims a hash value is rejected too.
TEST(SnapshotTest, RestoreRejectsRecordIdsOutsideTheDataset) {
  constexpr int kRecords = 500;
  const Built built = BuildProgram(SchemeKind::kHashing, kRecords);
  ASSERT_TRUE(RestoreThroughSnapshot(built.arena.bytes(), built).ok());
  const ArenaHeader& header = built.arena.header();
  const ArenaChannelView& view = built.scheme->view();
  std::size_t with_record = view.num_buckets();
  std::size_t empty_slot = view.num_buckets();
  for (std::size_t i = 0; i < view.num_buckets(); ++i) {
    if (view.bucket(i).record_id() >= 0 && with_record == view.num_buckets()) {
      with_record = i;
    }
    if (view.bucket(i).record_id() == -1 && empty_slot == view.num_buckets()) {
      empty_slot = i;
    }
  }
  ASSERT_LT(with_record, view.num_buckets());
  ASSERT_LT(empty_slot, view.num_buckets());
  ASSERT_EQ(view.bucket(empty_slot).hash_value(), -1);
  ASSERT_GE(view.bucket(empty_slot).slot(), 0);  // a home slot
  const auto field = [&](std::size_t bucket, std::size_t offset) {
    return header.buckets_offset + bucket * sizeof(ArenaBucket) + offset;
  };

  for (const std::int64_t bad :
       {std::int64_t{kRecords}, std::int64_t{-2},
        view.bucket(with_record).record_id() + 100000000}) {
    SCOPED_TRACE("record id " + std::to_string(bad));
    std::vector<std::uint8_t> raw = built.arena.bytes();
    PatchInt64(&raw, field(with_record, offsetof(ArenaBucket, record_id)),
               bad);
    ExpectRestoreRejected(std::move(raw), built);
  }
  {
    SCOPED_TRACE("record-less slot with a hash value");
    std::vector<std::uint8_t> raw = built.arena.bytes();
    PatchInt64(&raw, field(empty_slot, offsetof(ArenaBucket, hash_value)),
               view.bucket(empty_slot).slot());
    ExpectRestoreRejected(std::move(raw), built);
  }

  // The record-id check covers data buckets, so a bucket that a walk
  // reads as a record must not escape it by changing kind: hashing reads
  // every bucket of a chain whose hash value matches, integrated
  // signature every bucket of a group, multi-level signature and hybrid
  // the bucket after a record signature.
  for (const SchemeKind kind :
       {SchemeKind::kHashing, SchemeKind::kIntegratedSignature,
        SchemeKind::kMultiLevelSignature, SchemeKind::kHybrid}) {
    SCOPED_TRACE(SchemeKindToString(kind));
    const Built family = BuildProgram(kind, kRecords);
    ASSERT_TRUE(RestoreThroughSnapshot(family.arena.bytes(), family).ok());
    const ArenaChannelView& family_view = family.scheme->view();
    std::size_t data = 0;
    while (family_view.bucket(data).kind() != BucketKind::kData ||
           family_view.bucket(data).record_id() < 0) {
      ++data;
    }
    const std::size_t bucket_at =
        family.arena.header().buckets_offset + data * sizeof(ArenaBucket);
    for (const BucketKind flipped : {BucketKind::kIndex,
                                     BucketKind::kSignature}) {
      SCOPED_TRACE(std::string("data bucket ") + std::to_string(data) +
                   " turned " + BucketKindToString(flipped));
      std::vector<std::uint8_t> raw = family.arena.bytes();
      raw[bucket_at + offsetof(ArenaBucket, kind)] =
          static_cast<std::uint8_t>(flipped);
      PatchInt64(&raw, bucket_at + offsetof(ArenaBucket, record_id),
                 kRecords + 100000000);
      ExpectRestoreRejected(std::move(raw), family);
    }
  }
}

// The signature walks match as many words as their generator makes, not
// as many as a bucket carries, so a narrower signature bucket would be
// read past its words: a restore accepts only the generator's width.
TEST(SnapshotTest, RestoreRejectsSignatureBucketsOfTheWrongWidth) {
  for (const SchemeKind kind :
       {SchemeKind::kIntegratedSignature, SchemeKind::kMultiLevelSignature,
        SchemeKind::kHybrid}) {
    SCOPED_TRACE(SchemeKindToString(kind));
    const Built built = BuildProgram(kind, 300);
    ASSERT_TRUE(RestoreThroughSnapshot(built.arena.bytes(), built).ok());
    const ArenaChannelView& view = built.scheme->view();
    std::vector<std::size_t> signatures;
    for (std::size_t i = 0; i < view.num_buckets(); ++i) {
      if (view.bucket(i).kind() == BucketKind::kSignature) {
        signatures.push_back(i);
      }
    }
    ASSERT_GE(signatures.size(), 2u);
    for (const std::size_t i : {signatures.front(), signatures.back()}) {
      const ArenaBucket& bucket = built.arena.bucket(
          static_cast<std::uint32_t>(i));
      for (const std::uint32_t count :
           {std::uint32_t{0}, bucket.signature_count - 1}) {
        SCOPED_TRACE("signature bucket " + std::to_string(i) + " given " +
                     std::to_string(count) + " words");
        std::vector<std::uint8_t> raw = built.arena.bytes();
        std::memcpy(raw.data() + built.arena.header().buckets_offset +
                        i * sizeof(ArenaBucket) +
                        offsetof(ArenaBucket, signature_count),
                    &count, sizeof(count));
        ExpectRestoreRejected(std::move(raw), built);
      }
    }
  }
}

// The walks add bucket sizes to their clocks, and every builder writes
// each bucket at the size the geometry gives its kind. A restore rejects
// any other size: a last bucket grown until the cycle sits at 2^63 - 1001,
// where the walks' clocks would overflow, and a data bucket one byte
// short.
TEST(SnapshotTest, RestoreRejectsBucketSizesNoBuilderWrites) {
  for (const SchemeKind kind : kAllSchemes) {
    SCOPED_TRACE(SchemeKindToString(kind));
    const Built built = BuildProgram(kind, 150);
    ASSERT_TRUE(RestoreThroughSnapshot(built.arena.bytes(), built).ok());
    const ArenaChannelView& view = built.scheme->view();
    const auto size_at = [&](std::size_t bucket) {
      return built.arena.header().buckets_offset +
             bucket * sizeof(ArenaBucket) + offsetof(ArenaBucket, size);
    };
    const std::size_t last = view.num_buckets() - 1;
    std::size_t data = 0;
    while (view.bucket(data).kind() != BucketKind::kData) ++data;
    {
      SCOPED_TRACE("last bucket grown to a cycle of 2^63 - 1001");
      const Bytes cycle = std::numeric_limits<std::int64_t>::max() - 1000;
      std::vector<std::uint8_t> raw = built.arena.bytes();
      PatchInt64(&raw, size_at(last),
                 cycle - (view.cycle_bytes() - view.bucket(last).size()));
      ExpectRestoreRejected(std::move(raw), built);
    }
    {
      SCOPED_TRACE("data bucket " + std::to_string(data) + " one byte short");
      std::vector<std::uint8_t> raw = built.arena.bytes();
      PatchInt64(&raw, size_at(data), view.bucket(data).size() - 1);
      ExpectRestoreRejected(std::move(raw), built);
    }
  }
}

// Hashing's walk jumps to its home slot's shift phase with no fallback
// (on a cycle of unequal bucket sizes, BucketAtPhase of kInvalidPhase
// names no bucket), so a home slot without a shift is rejected.
TEST(SnapshotTest, HashingRestoreRejectsHomeSlotsWithoutAShift) {
  const Built built = BuildProgram(SchemeKind::kHashing, 300);
  ASSERT_TRUE(RestoreThroughSnapshot(built.arena.bytes(), built).ok());
  const ArenaHeader& header = built.arena.header();
  for (const std::size_t slot : {std::size_t{0}, std::size_t{150}}) {
    SCOPED_TRACE("home slot " + std::to_string(slot));
    ASSERT_GE(built.scheme->view().bucket(slot).shift_phase(), 0);
    std::vector<std::uint8_t> raw = built.arena.bytes();
    PatchInt64(&raw,
               header.buckets_offset + slot * sizeof(ArenaBucket) +
                   offsetof(ArenaBucket, shift_phase),
               kInvalidPhase);
    ExpectRestoreRejected(std::move(raw), built);
  }
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
  const ProgramArena stale = built.arena.Retag(
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

// The fingerprint memo is keyed by the dataset's owner, not its address:
// a dataset freed after its program was cached, and a different dataset
// allocated in its place, is fingerprinted afresh (a stale address key
// would serve it the freed dataset's 60-record program).
TEST(SnapshotTest, ProgramCacheFingerprintsEachDatasetInstance) {
  ProgramCache cache;
  DatasetConfig config;
  config.num_records = 60;
  auto first =
      std::make_shared<const Dataset>(Dataset::Generate(config).value());
  ASSERT_TRUE(
      cache.GetOrBuild(SchemeKind::kFlat, first, BucketGeometry{}, {}).ok());
  first.reset();
  config.num_records = 61;
  auto second =
      std::make_shared<const Dataset>(Dataset::Generate(config).value());
  auto scheme =
      cache.GetOrBuild(SchemeKind::kFlat, second, BucketGeometry{}, {});
  ASSERT_TRUE(scheme.ok()) << scheme.status().ToString();
  EXPECT_EQ(scheme.value()->view().num_buckets(), 61u);
  EXPECT_EQ(cache.MetricsSnapshot().Get("program.builds"), 2);
  // The same instance again is a memory hit under its memoized key.
  ASSERT_TRUE(
      cache.GetOrBuild(SchemeKind::kFlat, second, BucketGeometry{}, {}).ok());
  EXPECT_EQ(cache.MetricsSnapshot().Get("program.memory_hits"), 1);
}

// Four threads share one cache over 2 datasets x 2 kinds: each program is
// built once, the fingerprint memo and the arena store are only touched
// under the cache's lock (the TSan job runs this), and every scheme a
// caller gets back walks exactly like the built one.
TEST(SnapshotTest, ProgramCacheServesConcurrentCallers) {
  constexpr SchemeKind kKinds[] = {SchemeKind::kDistributed,
                                   SchemeKind::kSignature};
  std::vector<std::shared_ptr<const Dataset>> datasets;
  for (const int n : {150, 230}) {
    DatasetConfig config;
    config.num_records = n;
    datasets.push_back(
        std::make_shared<const Dataset>(Dataset::Generate(config).value()));
  }
  // The fixed key set: three present keys and one absent key, each at
  // two tune-in times.
  const auto walks = [](const BroadcastScheme& scheme, const Dataset& data) {
    std::vector<Bytes> out;
    for (const std::string& key :
         {data.record(0).key, data.record(data.size() / 2).key,
          data.record(data.size() - 1).key, data.AbsentKey(3)}) {
      for (const Bytes tune_in : {Bytes{0}, Bytes{98765}}) {
        const AccessResult result = scheme.Access(key, tune_in);
        out.insert(out.end(), {result.found ? 1 : 0, result.access_time,
                               result.tuning_time, result.probes});
      }
    }
    return out;
  };
  std::vector<std::vector<Bytes>> expected;
  for (const auto& dataset : datasets) {
    for (const SchemeKind kind : kKinds) {
      expected.push_back(
          walks(*BuildScheme(kind, dataset, BucketGeometry{}).value(),
                *dataset));
    }
  }

  ProgramCache cache;
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < expected.size(); ++i) {
          const std::size_t program = (i + static_cast<std::size_t>(t)) %
                                      expected.size();
          const auto& dataset = datasets[program / 2];
          auto scheme = cache.GetOrBuild(kKinds[program % 2], dataset,
                                         BucketGeometry{}, SchemeParams{});
          if (!scheme.ok() ||
              walks(*scheme.value(), *dataset) != expected[program]) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<int>(kThreads, 0));
  const MetricsRegistry metrics = cache.MetricsSnapshot();
  EXPECT_EQ(metrics.Get("program.builds"), 4);
  EXPECT_EQ(metrics.Get("program.memory_hits"),
            kThreads * kRounds * 4 - 4);
}

}  // namespace
}  // namespace airindex
