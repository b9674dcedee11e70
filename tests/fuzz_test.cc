// Fixed-seed mutation fuzzer over the inputs that come from outside the
// process: program arenas and snapshot files, JSON bench reports, and CSV
// datasets. Each must reject a corrupt input with a Status, never with
// undefined behaviour; run under AIRINDEX_SANITIZE (ASan + UBSan, no
// recovery), a memory error or a signed overflow fails the test.
//
//  - Arena mutants of all 9 kinds (150 records): byte and bit flips,
//    boundary values (0, -1, 2^31, 2^62, INT64_MAX - k) over aligned
//    words and bucket fields, go through ProgramArena::FromBytes, and,
//    re-sealed with a valid checksum, through Deserialize and LoadFile,
//    which must agree with it. Every mutant that restores walks present
//    and absent keys, and runs Filter where the kind has one.
//  - Snapshot header mutants go through Deserialize and LoadFile, which
//    must agree on every one.
//  - The committed bench/baselines/*.json go through JsonValue::Parse and
//    BenchReportFromJson, with a nesting operator that wraps a document
//    in 255, 256, 257 and 10,000 levels of arrays.
//  - A small CSV goes through LoadDatasetFromFile.
//
// Seeds and counts are fixed, so a failure reproduces exactly.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "broadcast/arena.h"
#include "broadcast/snapshot.h"
#include "core/json_report.h"
#include "core/program_cache.h"
#include "data/dataset.h"
#include "data/file_source.h"
#include "des/random.h"
#include "schemes/flat.h"
#include "schemes/hybrid.h"
#include "schemes/scheme.h"
#include "schemes/signature.h"

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

constexpr int kArenaMutantsPerKind = 1000;
constexpr int kHeaderMutants = 1000;
constexpr int kJsonMutantsPerBaseline = 300;
constexpr int kCsvMutants = 1000;

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const void* data, std::size_t size) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr) << path;
  // An empty buffer's data() may be null, which fwrite must not be given.
  const std::size_t written = size > 0 ? std::fwrite(data, 1, size, file) : 0;
  std::fclose(file);
  ASSERT_EQ(written, size) << path;
}

/// `payload` behind a snapshot header with a valid format-2 checksum, so
/// the snapshot readers get past the checksum to the arena checks.
std::vector<std::uint8_t> Seal(const std::vector<std::uint8_t>& payload) {
  SnapshotHeader header;
  header.magic = ProgramSnapshot::kMagic;
  header.format_version = ProgramSnapshot::kFormatVersion;
  header.payload_bytes = payload.size();
  header.payload_checksum = HashBytes(payload.data(), payload.size());
  std::vector<std::uint8_t> wire(sizeof(header) + payload.size());
  std::memcpy(wire.data(), &header, sizeof(header));
  std::copy(payload.begin(), payload.end(), wire.begin() + sizeof(header));
  return wire;
}

Result<ProgramArena> LoadThroughFile(const std::vector<std::uint8_t>& wire) {
  const std::string path = testing::TempDir() + "/fuzz_test_snapshot.snap";
  WriteBytes(path, wire.data(), wire.size());
  Result<ProgramArena> loaded = ProgramSnapshot::LoadFile(path);
  std::remove(path.c_str());
  return loaded;
}

/// Deserialize and LoadFile read the same bytes the same way: both load,
/// to the same arena, or both fail with the same status.
void ExpectReadersAgree(const std::vector<std::uint8_t>& wire,
                        const std::string& what) {
  const Result<ProgramArena> from_buffer = ProgramSnapshot::Deserialize(wire);
  const Result<ProgramArena> from_file = LoadThroughFile(wire);
  ASSERT_EQ(from_buffer.ok(), from_file.ok())
      << what << ": " << from_buffer.status().ToString() << " vs "
      << from_file.status().ToString();
  if (from_buffer.ok()) {
    EXPECT_EQ(from_buffer.value().bytes(), from_file.value().bytes()) << what;
  } else {
    EXPECT_EQ(from_buffer.status().ToString(), from_file.status().ToString())
        << what;
  }
}

template <typename T>
void Poke(std::vector<std::uint8_t>* bytes, std::size_t at, T value) {
  if (at + sizeof(T) <= bytes->size()) {
    std::memcpy(bytes->data() + at, &value, sizeof(T));
  }
}

/// A boundary value for a 64-bit field: 0, -1, 2^31, 2^62, or
/// INT64_MAX - k for k below 2^20 (a cycle just under 2^63).
std::int64_t Boundary64(Rng* rng) {
  switch (rng->NextBounded(5)) {
    case 0:
      return 0;
    case 1:
      return -1;
    case 2:
      return std::int64_t{1} << 31;
    case 3:
      return std::int64_t{1} << 62;
    default:
      return std::numeric_limits<std::int64_t>::max() -
             static_cast<std::int64_t>(rng->NextBounded(1u << 20));
  }
}

/// A boundary value for a 32-bit offset, count or index field.
std::uint32_t Boundary32(Rng* rng, std::uint32_t current) {
  switch (rng->NextBounded(6)) {
    case 0:
      return 0;
    case 1:
      return 0xffffffffu;
    case 2:
      return 0x80000000u;
    case 3:
      return current + 1;
    case 4:
      return current - 1;
    default:
      return current + 8;
  }
}

/// One mutation of an arena buffer, laid out as `header` says.
void MutateArena(std::vector<std::uint8_t>* bytes, const ArenaHeader& header,
                 Rng* rng) {
  const std::size_t size = bytes->size();
  const std::size_t words = size / 8;
  switch (rng->NextBounded(7)) {
    case 0: {  // a random byte value
      (*bytes)[rng->NextBounded(size)] =
          static_cast<std::uint8_t>(rng->NextBounded(256));
      break;
    }
    case 1: {  // one bit
      (*bytes)[rng->NextBounded(size)] ^=
          static_cast<std::uint8_t>(1u << rng->NextBounded(8));
      break;
    }
    case 2: {  // a boundary value over an aligned word
      Poke(bytes, 8 * rng->NextBounded(words), Boundary64(rng));
      break;
    }
    case 3: {  // a boundary value over an aligned 32-bit field
      const std::size_t at = 4 * rng->NextBounded(size / 4);
      std::uint32_t current;
      std::memcpy(&current, bytes->data() + at, sizeof(current));
      Poke(bytes, at, Boundary32(rng, current));
      break;
    }
    case 4: {  // a header field
      const std::size_t at = 4 * rng->NextBounded(sizeof(ArenaHeader) / 4);
      std::uint32_t current;
      std::memcpy(&current, bytes->data() + at, sizeof(current));
      Poke(bytes, at, Boundary32(rng, current));
      break;
    }
    case 5: {  // a 64-bit field of one bucket: size, record id, phases
      if (header.num_buckets == 0) break;
      const std::size_t bucket =
          header.buckets_offset +
          sizeof(ArenaBucket) * rng->NextBounded(header.num_buckets);
      Poke(bytes, bucket + 8 * rng->NextBounded(6), Boundary64(rng));
      break;
    }
    default: {  // a pointer entry's target phase or channel
      if (header.num_entries == 0) break;
      const std::size_t entry =
          header.entries_offset +
          sizeof(ArenaPointerEntry) * rng->NextBounded(header.num_entries);
      if (rng->NextBounded(2) == 0) {
        Poke(bytes, entry + 16, Boundary64(rng));
      } else {
        Poke(bytes, entry + 24,
             static_cast<std::int32_t>(Boundary32(rng, 0)));
      }
      break;
    }
  }
}

/// Walks a restored scheme: present and absent keys at tune-in times up
/// to 2^40, and Filter where the kind has one.
void Walk(const BroadcastScheme& scheme, const Dataset& dataset, Rng* rng) {
  for (int q = 0; q < 24; ++q) {
    const Bytes tune_in =
        static_cast<Bytes>(rng->NextBounded(std::uint64_t{1} << 40));
    const int i = static_cast<int>(
        rng->NextBounded(static_cast<std::uint64_t>(dataset.size())));
    const AccessResult present = scheme.Access(dataset.record(i).key, tune_in);
    const AccessResult absent = scheme.Access(dataset.absent_key(i), tune_in);
    EXPECT_GE(present.access_time, 0);
    EXPECT_GE(absent.tuning_time, 0);
  }
  const std::string value(dataset.record(dataset.size() / 2).attributes[0]);
  for (const Bytes tune_in : {Bytes{0}, Bytes{12345}}) {
    if (const auto* flat = dynamic_cast<const FlatBroadcast*>(&scheme)) {
      flat->Filter(value, tune_in);
    } else if (const auto* signature =
                   dynamic_cast<const SignatureIndexing*>(&scheme)) {
      signature->Filter(value, tune_in);
    } else if (const auto* hybrid =
                   dynamic_cast<const HybridIndexing*>(&scheme)) {
      hybrid->Filter(value, tune_in);
    }
  }
}

TEST(TrustBoundaryFuzz, ArenaMutantsAreRejectedOrWalkSafely) {
  DatasetConfig config;
  config.num_records = 150;
  const auto dataset =
      std::make_shared<const Dataset>(Dataset::Generate(config).value());
  const BucketGeometry geometry;
  const SchemeParams params;
  for (const SchemeKind kind : kAllSchemes) {
    SCOPED_TRACE(SchemeKindToString(kind));
    const auto built = BuildScheme(kind, dataset, geometry, params).value();
    const ProgramArena arena =
        FlattenSchemeProgram(kind, *built, DatasetFingerprint(*dataset),
                             ProgramParamsFingerprint(kind, geometry, params))
            .value();
    Rng rng(0xf022ull + static_cast<std::uint64_t>(kind));
    int adopted = 0;
    int restored = 0;
    for (int m = 0; m < kArenaMutantsPerKind; ++m) {
      const std::string what = "mutant " + std::to_string(m);
      std::vector<std::uint8_t> mutant = arena.bytes();
      const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
      for (int k = 0; k < mutations; ++k) {
        MutateArena(&mutant, arena.header(), &rng);
      }
      const std::vector<std::uint8_t> wire = Seal(mutant);
      Result<ProgramArena> from_bytes = ProgramArena::FromBytes(mutant);
      const Result<ProgramArena> from_wire =
          ProgramSnapshot::Deserialize(wire);
      ASSERT_EQ(from_bytes.ok(), from_wire.ok()) << what;
      ExpectReadersAgree(wire, what);
      if (!from_bytes.ok()) continue;
      ++adopted;
      auto shared =
          std::make_shared<const ProgramArena>(std::move(from_bytes).value());
      Result<std::unique_ptr<BroadcastScheme>> scheme =
          RestoreSchemeFromArena(shared, dataset, geometry, params);
      if (!scheme.ok()) continue;
      ++restored;
      Walk(*scheme.value(), *dataset, &rng);
    }
    std::printf("%s: %d mutants, %d adopted, %d restored and walked\n",
                SchemeKindToString(kind), kArenaMutantsPerKind, adopted,
                restored);
    // The fuzzer reaches the walks, not just the validators.
    EXPECT_GT(restored, 0);
  }
}

TEST(TrustBoundaryFuzz, SnapshotHeaderMutantsGetTheSameAnswerFromBothReaders) {
  DatasetConfig config;
  config.num_records = 60;
  const auto dataset =
      std::make_shared<const Dataset>(Dataset::Generate(config).value());
  const auto built =
      BuildScheme(SchemeKind::kDistributed, dataset, BucketGeometry{})
          .value();
  const std::vector<std::uint8_t> wire = ProgramSnapshot::Serialize(
      FlattenSchemeProgram(SchemeKind::kDistributed, *built, 1, 2).value());
  ExpectReadersAgree(wire, "unmutated");
  Rng rng(0x5eed);
  for (int m = 0; m < kHeaderMutants; ++m) {
    const std::string what = "mutant " + std::to_string(m);
    std::vector<std::uint8_t> mutant = wire;
    switch (rng.NextBounded(6)) {
      case 0:  // a random byte of the snapshot header
        mutant[rng.NextBounded(sizeof(SnapshotHeader))] =
            static_cast<std::uint8_t>(rng.NextBounded(256));
        break;
      case 1:  // the claimed payload size
        Poke(&mutant, offsetof(SnapshotHeader, payload_bytes),
             static_cast<std::uint64_t>(Boundary64(&rng)) +
                 rng.NextBounded(3) - 1);
        break;
      case 2:  // the version
        Poke(&mutant, offsetof(SnapshotHeader, format_version),
             Boundary32(&rng, ProgramSnapshot::kFormatVersion));
        break;
      case 3:  // cut anywhere, header included
        mutant.resize(rng.NextBounded(mutant.size()));
        break;
      case 4:  // trailing bytes
        mutant.resize(mutant.size() + 1 + rng.NextBounded(16), 0);
        break;
      default:  // a byte of the arena header behind a valid seal
        mutant[sizeof(SnapshotHeader) +
               rng.NextBounded(sizeof(ArenaHeader))] ^=
            static_cast<std::uint8_t>(1 + rng.NextBounded(255));
        mutant = Seal(std::vector<std::uint8_t>(
            mutant.begin() + sizeof(SnapshotHeader), mutant.end()));
        break;
    }
    ExpectReadersAgree(mutant, what);
  }
}

/// `text` wrapped in `depth` nested arrays.
std::string Nested(std::size_t depth, std::string_view text) {
  return std::string(depth, '[') + std::string(text) + std::string(depth, ']');
}

TEST(TrustBoundaryFuzz, BenchReportMutantsParseOrFailCleanly) {
  // A scalar at the nesting limit parses and one level more does not.
  for (const std::size_t depth : {255u, 256u}) {
    EXPECT_TRUE(JsonValue::Parse(Nested(depth, "0")).ok()) << depth;
  }
  for (const std::size_t depth : {257u, 10000u}) {
    EXPECT_FALSE(JsonValue::Parse(Nested(depth, "0")).ok()) << depth;
  }
  constexpr std::size_t kDepths[] = {255, 256, 257, 10000};
  constexpr char kStructural[] = "[]{}\",:\\-+.eE0123456789tfn \n";
  Rng rng(0x1504);
  int parsed = 0;
  int reports = 0;
  for (const char* name :
       {"BENCH_client_cache", "BENCH_dynamic", "BENCH_fig4", "BENCH_fleet",
        "BENCH_multichannel", "BENCH_scheduling"}) {
    SCOPED_TRACE(name);
    const std::string original = ReadText(
        std::string(AIRINDEX_BASELINES_DIR) + "/" + name + ".json");
    ASSERT_FALSE(original.empty());
    const Result<JsonValue> clean = JsonValue::Parse(original);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ASSERT_TRUE(BenchReportFromJson(clean.value()).ok());
    for (int m = 0; m < kJsonMutantsPerBaseline; ++m) {
      std::string text = original;
      const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
      for (int k = 0; k < mutations; ++k) {
        const std::size_t at = rng.NextBounded(text.size() + 1);
        switch (rng.NextBounded(5)) {
          case 0:  // a random byte
            if (at < text.size()) {
              text[at] = static_cast<char>(rng.NextBounded(256));
            }
            break;
          case 1:  // a structural character
            text.insert(at, 1,
                        kStructural[rng.NextBounded(sizeof(kStructural) - 1)]);
            break;
          case 2:  // delete a span
            text.erase(at, 1 + rng.NextBounded(16));
            break;
          case 3: {  // duplicate a span
            const std::string span = text.substr(at, 1 + rng.NextBounded(64));
            text.insert(rng.NextBounded(text.size() + 1), span);
            break;
          }
          default:  // wrap the document in nested arrays
            text = Nested(kDepths[rng.NextBounded(4)], text);
            break;
        }
      }
      const Result<JsonValue> value = JsonValue::Parse(text);
      if (!value.ok()) continue;
      ++parsed;
      // What parses serializes to a document that parses again.
      EXPECT_TRUE(JsonValue::Parse(value.value().Serialize()).ok());
      const Result<BenchReport> report = BenchReportFromJson(value.value());
      if (!report.ok()) continue;
      ++reports;
      EXPECT_TRUE(
          BenchReportFromJson(BenchReportToJson(report.value())).ok());
    }
  }
  std::printf("json: %d mutants, %d parsed, %d read as reports\n",
              6 * kJsonMutantsPerBaseline, parsed, reports);
}

TEST(TrustBoundaryFuzz, CsvMutantsLoadOrFailCleanly) {
  DatasetConfig config;
  config.num_records = 40;
  config.key_width = 6;
  config.num_attributes = 2;
  config.attribute_width = 4;
  const std::string path = testing::TempDir() + "/fuzz_test_dataset.csv";
  ASSERT_TRUE(
      SaveDatasetToFile(Dataset::Generate(config).value(), path).ok());
  const std::string original = ReadText(path);
  ASSERT_FALSE(original.empty());
  constexpr char kSpecial[] = {',', '\n', '\r', '#', '!', ' ', '\0',
                               '\xff', 'a', '\t', '"'};
  Rng rng(0xc5f);
  int loaded = 0;
  for (int m = 0; m < kCsvMutants; ++m) {
    std::string text = original;
    const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
    for (int k = 0; k < mutations; ++k) {
      const std::size_t at = rng.NextBounded(text.size() + 1);
      switch (rng.NextBounded(5)) {
        case 0:  // a random byte
          if (at < text.size()) {
            text[at] = static_cast<char>(rng.NextBounded(256));
          }
          break;
        case 1:  // a delimiter, line break, comment or reserved character
          text.insert(at, 1, kSpecial[rng.NextBounded(sizeof(kSpecial))]);
          break;
        case 2:  // delete a span
          text.erase(at, 1 + rng.NextBounded(24));
          break;
        case 3: {  // duplicate a span (whole lines repeat keys)
          const std::string span = text.substr(at, 1 + rng.NextBounded(40));
          text.insert(rng.NextBounded(text.size() + 1), span);
          break;
        }
        default:  // truncate
          text.resize(at);
          break;
      }
    }
    WriteBytes(path, text.data(), text.size());
    const Result<Dataset> dataset = LoadDatasetFromFile(path);
    if (!dataset.ok()) continue;
    ++loaded;
    // What loads is a valid dataset: keys non-empty, above '!', strictly
    // increasing, dense ids, and absent keys strictly between them.
    const Dataset& d = dataset.value();
    ASSERT_GT(d.size(), 0);
    for (int i = 0; i < d.size(); ++i) {
      const std::string_view key = d.record(i).key;
      ASSERT_FALSE(key.empty());
      for (const char c : key) ASSERT_GT(static_cast<unsigned char>(c), '!');
      EXPECT_EQ(d.record(i).id, static_cast<std::uint64_t>(i));
      EXPECT_LT(d.absent_key(i), key);
      if (i > 0) {
        EXPECT_LT(d.record(i - 1).key, key);
        EXPECT_GT(d.absent_key(i), d.record(i - 1).key);
      }
      EXPECT_EQ(d.FindIndex(key), i);
      EXPECT_EQ(d.FindIndex(d.absent_key(i)), -1);
    }
    EXPECT_GT(d.absent_key(d.size()), d.max_key());
  }
  std::remove(path.c_str());
  std::printf("csv: %d mutants, %d loaded\n", kCsvMutants, loaded);
  EXPECT_GT(loaded, 0);
}

}  // namespace
}  // namespace airindex
