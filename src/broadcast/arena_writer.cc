#include "broadcast/arena_writer.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace airindex {

namespace {

// Buckets per staging block: 32 MiB of records. Finish copies a program
// of several blocks block by block, freeing each as it goes, so a large
// build never holds two whole copies of its buckets.
constexpr std::size_t kBlockBuckets =
    (std::size_t{32} << 20) / sizeof(ArenaBucket);

}  // namespace

ArenaWriter::ArenaWriter(const Dataset& dataset) : dataset_(&dataset) {}

void ArenaWriter::Reserve(const ArenaCounts& counts) {
  ArenaCounts sized = counts;
  sized.channels = 1;
  sized.aux = 0;
  if (!ProgramArena::Layout(sized).ok()) return;  // Finish rejects it
  expected_buckets_ = counts.buckets;
  entries_.reserve(counts.entries);
  words_.reserve(counts.words);
  strings_.reserve(counts.string_bytes);
}

std::uint64_t ArenaWriter::AllKeyBytes() const {
  return dataset_->key_bytes();
}

std::uint32_t ArenaWriter::Narrow(std::size_t value) {
  if (value > std::numeric_limits<std::uint32_t>::max()) oversized_ = true;
  return static_cast<std::uint32_t>(value);
}

ArenaBucket& ArenaWriter::bucket(std::size_t i) {
  return blocks_[i / kBlockBuckets][i % kBlockBuckets];
}

ArenaBucket& ArenaWriter::Append(BucketKind kind, Bytes size) {
  if (num_buckets_ % kBlockBuckets == 0) {
    const std::size_t expected =
        expected_buckets_ > num_buckets_ ? expected_buckets_ - num_buckets_
                                         : 1;
    blocks_.emplace_back().reserve(std::min(expected, kBlockBuckets));
  }
  ArenaBucket& b = blocks_.back().emplace_back();
  ++num_buckets_;
  b.kind = static_cast<std::uint8_t>(kind);
  b.size = size;
  b.local_first = Narrow(entries_.size());
  b.control_first = b.local_first;
  b.signature_first = Narrow(words_.size());
  return b;
}

ArenaStrRef ArenaWriter::Key(int position) {
  if (key_refs_.empty()) {
    key_refs_.resize(static_cast<std::size_t>(dataset_->size()));
  }
  ArenaStrRef& ref = key_refs_[static_cast<std::size_t>(position)];
  if (ref.length == 0) {
    const std::string_view key = dataset_->record(position).key;
    if (key.empty()) return ref;  // {0, 0}, the empty string's ref
    ref = ArenaStrRef{Narrow(strings_.size()), Narrow(key.size())};
    strings_.append(key);
  }
  return ref;
}

void ArenaWriter::AddLocal(int key_lo, int key_hi, Bytes target_phase,
                           std::int32_t target_channel) {
  ArenaPointerEntry entry;
  entry.key_lo = Key(key_lo);
  entry.key_hi = Key(key_hi);
  entry.target_phase = target_phase;
  entry.target_channel = target_channel;
  entries_.push_back(entry);
  ArenaBucket& last = blocks_.back().back();
  ++last.local_count;
  last.control_first = Narrow(entries_.size());
}

void ArenaWriter::AddControl(int key_lo, int key_hi, Bytes target_phase) {
  ArenaPointerEntry entry;
  entry.key_lo = Key(key_lo);
  entry.key_hi = Key(key_hi);
  entry.target_phase = target_phase;
  entries_.push_back(entry);
  ++blocks_.back().back().control_count;
}

std::uint64_t* ArenaWriter::AddWords(int count) {
  const std::size_t at = words_.size();
  words_.resize(at + static_cast<std::size_t>(count));
  ArenaBucket& last = blocks_.back().back();
  last.signature_count = Narrow(words_.size() - last.signature_first);
  return words_.data() + at;
}

Result<ProgramArena> ArenaWriter::Finish() && {
  // The spent writer lives on in its owner's scope, so the staged pools
  // move here, to be freed as they are copied.
  std::vector<std::vector<ArenaBucket>> blocks = std::move(blocks_);
  std::vector<ArenaPointerEntry> entries = std::move(entries_);
  std::vector<std::uint64_t> words = std::move(words_);
  std::string strings = std::move(strings_);
  std::vector<ArenaStrRef>().swap(key_refs_);

  ArenaCounts counts;
  counts.channels = 1;
  counts.buckets = num_buckets_;
  counts.entries = entries.size();
  counts.words = words.size();
  counts.string_bytes = strings.size();
  const Result<ArenaHeader> layout = ProgramArena::Layout(counts);
  if (!layout.ok()) return layout.status();
  if (oversized_) {
    return Status::InvalidArgument(
        "arena: a program index does not fit 32-bit offsets");
  }
  ArenaHeader header = layout.value();
  header.magic = ProgramArena::kMagic;
  header.format_version = ProgramArena::kFormatVersion;
  const ArenaChannelDesc desc{0, header.num_buckets};

  // The buffer is reserved once and filled section by section, each
  // staged part freed as soon as it is copied. The alignment pads are
  // zeroed, which keeps the arena deterministic.
  ProgramArena arena;
  std::vector<std::uint8_t>& bytes = arena.bytes_;
  bytes.reserve(header.total_bytes);
  const auto append = [&bytes](std::size_t offset, const void* data,
                               std::size_t size) {
    bytes.resize(offset, 0);
    const auto* from = static_cast<const std::uint8_t*>(data);
    if (size != 0) bytes.insert(bytes.end(), from, from + size);
  };
  append(0, &header, sizeof(header));
  append(header.channels_offset, &desc, sizeof(desc));
  bytes.resize(header.buckets_offset, 0);
  for (std::vector<ArenaBucket>& block : blocks) {
    append(bytes.size(), block.data(), block.size() * sizeof(ArenaBucket));
    std::vector<ArenaBucket>().swap(block);
  }
  append(header.entries_offset, entries.data(),
         entries.size() * sizeof(ArenaPointerEntry));
  std::vector<ArenaPointerEntry>().swap(entries);
  append(header.words_offset, words.data(),
         words.size() * sizeof(std::uint64_t));
  std::vector<std::uint64_t>().swap(words);
  append(header.strings_offset, strings.data(), strings.size());
  bytes.resize(header.total_bytes, 0);
  return arena;
}

}  // namespace airindex
