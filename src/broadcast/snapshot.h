// Layer: 3 (broadcast) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_BROADCAST_SNAPSHOT_H_
#define AIRINDEX_BROADCAST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "broadcast/arena.h"

namespace airindex {

/// On-disk header of a program snapshot: a fixed prefix in front of the
/// raw arena buffer. The checksum (HashBytes, broadcast/arena.h) covers
/// the payload only, so a snapshot load verifies end-to-end integrity
/// before any arena offset is dereferenced; the arena's own header then
/// pins the format version.
struct SnapshotHeader {
  std::uint32_t magic = 0;
  std::uint32_t format_version = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_checksum = 0;
};
static_assert(sizeof(SnapshotHeader) == 24);

/// Versioned, checksummed serialization of a ProgramArena.
///
/// Serialize → Load → Serialize is byte-identical (the payload is the
/// arena buffer verbatim — "mmap-style": loading adopts the bytes with
/// no transformation), which is what lets built programs be cached on
/// disk across bench runs and shipped between the shards of a
/// process-sharded sweep with bit-identical merged results.
class ProgramSnapshot {
 public:
  static constexpr std::uint32_t kMagic = 0x41534e50u;  // "PNSA" on disk
  /// Bump together with ProgramArena::kFormatVersion changes; stale
  /// cache files from older formats are rejected (and rebuilt), never
  /// misread.
  static constexpr std::uint32_t kFormatVersion = ProgramArena::kFormatVersion;

  /// Snapshot header + arena buffer.
  static std::vector<std::uint8_t> Serialize(const ProgramArena& arena);

  /// Inverse of Serialize. Rejects — with a Status, never UB — a short
  /// or truncated buffer, a bad magic, a version mismatch, a payload
  /// size that disagrees with the buffer, a checksum mismatch (any
  /// bit flip), and any arena whose internal offsets fail validation.
  static Result<ProgramArena> Deserialize(
      const std::vector<std::uint8_t>& bytes);

  /// Writes Serialize(arena) to `path` atomically (temp file + rename),
  /// so a concurrent reader — another sweep shard warming the same
  /// program cache — never observes a half-written snapshot. The header
  /// and then the arena's own buffer go to the file; nothing is copied
  /// into a serialized buffer first.
  static Status WriteFile(const std::string& path, const ProgramArena& arena);

  /// Reads `path` and checks it exactly as Deserialize checks a buffer
  /// (the two share one set of header checks). The payload is sized from
  /// the file and read once, straight into the buffer the arena adopts;
  /// a header whose payload size disagrees with the file is rejected
  /// before anything is allocated. NotFound when the file is absent.
  static Result<ProgramArena> LoadFile(const std::string& path);
};

}  // namespace airindex

#endif  // AIRINDEX_BROADCAST_SNAPSHOT_H_
