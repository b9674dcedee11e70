#include "broadcast/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

namespace airindex {

std::vector<std::uint8_t> ProgramSnapshot::Serialize(
    const ProgramArena& arena) {
  SnapshotHeader header;
  header.magic = kMagic;
  header.format_version = kFormatVersion;
  header.payload_bytes = arena.bytes().size();
  header.payload_checksum = arena.Checksum();

  std::vector<std::uint8_t> out(sizeof(header) + arena.bytes().size());
  std::memcpy(out.data(), &header, sizeof(header));
  std::memcpy(out.data() + sizeof(header), arena.bytes().data(),
              arena.bytes().size());
  return out;
}

namespace {

// The header checks Deserialize and LoadFile share, run before any
// payload byte is read or allocated: `prefix` holds the first
// min(size, sizeof(SnapshotHeader)) bytes of a snapshot `size` bytes
// long.
Result<SnapshotHeader> CheckHeader(const std::uint8_t* prefix,
                                   std::uint64_t size) {
  if (size < sizeof(SnapshotHeader)) {
    return Status::InvalidArgument("snapshot: buffer shorter than header");
  }
  SnapshotHeader header;
  std::memcpy(&header, prefix, sizeof(header));
  if (header.magic != ProgramSnapshot::kMagic) {
    return Status::InvalidArgument("snapshot: bad magic");
  }
  if (header.format_version != ProgramSnapshot::kFormatVersion) {
    return Status::InvalidArgument(
        "snapshot: format version " + std::to_string(header.format_version) +
        " unsupported (want " +
        std::to_string(ProgramSnapshot::kFormatVersion) + ")");
  }
  if (header.payload_bytes != size - sizeof(header)) {
    return Status::InvalidArgument(
        "snapshot: payload truncated (header claims " +
        std::to_string(header.payload_bytes) + " bytes, file carries " +
        std::to_string(size - sizeof(header)) + ")");
  }
  return header;
}

// Verifies the payload against the header's checksum, then adopts it.
Result<ProgramArena> AdoptPayload(const SnapshotHeader& header,
                                  std::vector<std::uint8_t> payload) {
  if (Fnv1a64(payload.data(), payload.size()) != header.payload_checksum) {
    return Status::InvalidArgument("snapshot: checksum mismatch (corrupted "
                                   "payload)");
  }
  return ProgramArena::FromBytes(std::move(payload));
}

}  // namespace

Result<ProgramArena> ProgramSnapshot::Deserialize(
    const std::vector<std::uint8_t>& bytes) {
  Result<SnapshotHeader> header = CheckHeader(bytes.data(), bytes.size());
  if (!header.ok()) return header.status();
  return AdoptPayload(
      header.value(),
      std::vector<std::uint8_t>(bytes.begin() + sizeof(SnapshotHeader),
                                bytes.end()));
}

Status ProgramSnapshot::WriteFile(const std::string& path,
                                  const ProgramArena& arena) {
  const std::vector<std::uint8_t> bytes = Serialize(arena);
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("snapshot: cannot open " + tmp + " for writing");
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (written != bytes.size() || !closed) {
    std::remove(tmp.c_str());
    return Status::Internal("snapshot: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("snapshot: cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

Result<ProgramArena> ProgramSnapshot::LoadFile(const std::string& path) {
  const auto close = [](std::FILE* file) { std::fclose(file); };
  const std::unique_ptr<std::FILE, decltype(close)> file(
      std::fopen(path.c_str(), "rb"), close);
  if (file == nullptr) {
    return Status::NotFound("snapshot: no file at " + path);
  }
  // The file's size, not the header's claim, sizes the read: a header
  // that disagrees is rejected before anything is allocated, and the
  // payload is read once, straight into the buffer the arena adopts.
  long size = -1;
  if (std::fseek(file.get(), 0, SEEK_END) == 0) size = std::ftell(file.get());
  if (size < 0 || std::fseek(file.get(), 0, SEEK_SET) != 0) {
    return Status::Internal("snapshot: cannot size " + path);
  }
  std::uint8_t prefix[sizeof(SnapshotHeader)] = {};
  const std::size_t want =
      std::min(static_cast<std::size_t>(size), sizeof(prefix));
  if (std::fread(prefix, 1, want, file.get()) != want) {
    return Status::Internal("snapshot: read error on " + path);
  }
  Result<SnapshotHeader> header =
      CheckHeader(prefix, static_cast<std::uint64_t>(size));
  if (!header.ok()) return header.status();
  std::vector<std::uint8_t> payload(header.value().payload_bytes);
  if (!payload.empty() && std::fread(payload.data(), 1, payload.size(),
                                     file.get()) != payload.size()) {
    return Status::Internal("snapshot: read error on " + path);
  }
  return AdoptPayload(header.value(), std::move(payload));
}

}  // namespace airindex
