// Layer: 2 (data) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_DATA_DATASET_H_
#define AIRINDEX_DATA_DATASET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/record.h"

namespace airindex {

/// Configuration for the synthetic dictionary generator.
///
/// The paper's data source is "a dictionary database consisting of about
/// 35,000 records" of text (Table 1: 500-byte records, 25-byte keys). The
/// experiments depend only on record count, record size and key size, so
/// we substitute a deterministic generator that reproduces those knobs at
/// any scale (see DESIGN.md, Substitutions).
struct DatasetConfig {
  /// Number of records (the paper sweeps 7000–34000).
  int num_records = 7000;
  /// Width of every key, in characters == broadcast bytes.
  int key_width = 25;
  /// Number of non-key attributes per record (signature input).
  int num_attributes = 8;
  /// Width of each attribute value, in characters.
  int attribute_width = 8;
  /// Seed for attribute content (keys are seed-independent so that key
  /// order and availability structure are stable across runs).
  std::uint64_t seed = 1;
};

/// One record's attribute values in its dataset's attribute pool, as
/// string views. Value i is pool[offsets[i], offsets[i + 1]). The range
/// and the views it yields live as long as the Dataset they came from,
/// moves included.
class AttributeRange {
 public:
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = std::string_view;
    using reference = std::string_view;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    Iterator(const char* pool, const std::uint32_t* offset)
        : pool_(pool), offset_(offset) {}

    std::string_view operator*() const {
      return std::string_view(pool_ + offset_[0], offset_[1] - offset_[0]);
    }
    Iterator& operator++() {
      ++offset_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++offset_;
      return before;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.offset_ == b.offset_;
    }

   private:
    const char* pool_ = nullptr;
    const std::uint32_t* offset_ = nullptr;
  };
  using iterator = Iterator;
  using const_iterator = Iterator;
  using value_type = std::string_view;

  AttributeRange() = default;
  AttributeRange(const char* pool, const std::uint32_t* offsets,
                 std::size_t count)
      : pool_(pool), offsets_(offsets), count_(count) {}

  std::size_t size() const { return count_; }
  std::string_view operator[](std::size_t i) const {
    return *Iterator(pool_, offsets_ + i);
  }
  Iterator begin() const { return Iterator(pool_, offsets_); }
  Iterator end() const { return Iterator(pool_, offsets_ + count_); }

  friend bool operator==(const AttributeRange& a, const AttributeRange& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  const char* pool_ = nullptr;
  const std::uint32_t* offsets_ = nullptr;
  std::size_t count_ = 0;
};

/// A record of a Dataset, by value: its key-order id, its key and its
/// attributes, viewed in the dataset's pools. Valid as long as the
/// Dataset, moves included.
struct RecordView {
  std::uint64_t id = 0;
  std::string_view key;
  AttributeRange attributes;
};

/// An immutable, key-sorted collection of records plus the query-side
/// helpers the testbed needs (exact lookup and guaranteed-absent keys).
///
/// The records live in two flat byte pools: every key back to back, and
/// every attribute value back to back, each with a table of 32-bit
/// offsets. record(i) views them; nothing is allocated per record.
///
/// Present keys are the encodings of odd codes 1, 3, 5, ...; the even
/// codes in between encode keys that are lexicographically interleaved
/// with the data but guaranteed absent. The data-availability experiments
/// (paper Section 5.1) draw misses from those.
class Dataset {
 public:
  class Writer;

  /// Generates a dataset. Fails with InvalidArgument when the
  /// configuration is inconsistent (e.g., the key width cannot encode the
  /// requested number of distinct keys) or when a pool would pass 32-bit
  /// offsets (4 GiB of key or attribute bytes, or 2^32 attributes).
  static Result<Dataset> Generate(const DatasetConfig& config);

  /// Wraps externally supplied records (the paper's "information is read
  /// from files or databases"). Records are sorted by key and re-ids
  /// assigned in key order. Fails when empty, when keys repeat, when a
  /// key is empty or contains a byte at or below '!' (reserved for
  /// synthesizing guaranteed-absent probe keys), or when a pool would
  /// pass 32-bit offsets. Bytes compare unsigned, as key order does, so
  /// UTF-8 keys load.
  static Result<Dataset> FromRecords(std::vector<Record> records);

  Dataset(const Dataset&) = default;
  Dataset& operator=(const Dataset&) = default;
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

  /// Number of records.
  int size() const { return static_cast<int>(key_offsets_.size()) - 1; }

  /// The record at key-order position `index`.
  RecordView record(int index) const {
    const auto at = static_cast<std::size_t>(index);
    const std::uint32_t first = record_attributes_[at];
    return RecordView{at, KeyAt(at),
                      AttributeRange(attributes_.data(),
                                     attribute_offsets_.data() + first,
                                     record_attributes_[at + 1] - first)};
  }

  /// Bytes of every key together: the key pool's size.
  std::size_t key_bytes() const { return keys_.size(); }

  /// Key-order position of `key`, or -1 if absent: one probe run of the
  /// key table, comparing the keys only of slots whose hash bits match.
  int FindIndex(std::string_view key) const;

  /// Key-order positions of every record carrying `value` in any non-key
  /// attribute (linear scan; ground truth for the filtering protocols).
  std::vector<int> FindByAttribute(std::string_view value) const;

  /// The i-th guaranteed-absent key (i in [0, size()]); interleaved with
  /// the present keys so absent probes exercise the same index paths.
  /// For generated datasets these are the even key codes; for external
  /// (FromRecords) datasets, key i-1 extended with '!' — strictly
  /// between keys i-1 and i in either case.
  std::string AbsentKey(int i) const;

  /// Interned view of AbsentKey(i) for i in [0, size()], backed by one
  /// buffer of every absent key, laid out at construction. This is the
  /// request hot path: RequestGenerator hands the view to Query without
  /// allocating. The view lives as long as this Dataset instance, moves
  /// included.
  std::string_view absent_key(int i) const {
    const auto at = static_cast<std::size_t>(i);
    return std::string_view(absent_keys_.data() + absent_offsets_[at],
                            absent_offsets_[at + 1] - absent_offsets_[at]);
  }

  /// Smallest and largest present key.
  std::string_view min_key() const { return KeyAt(0); }
  std::string_view max_key() const {
    return KeyAt(static_cast<std::size_t>(size() - 1));
  }

  /// The generator configuration this dataset was built from.
  const DatasetConfig& config() const { return config_; }

  /// True when the dataset came from the synthetic generator (as opposed
  /// to FromRecords).
  bool synthetic() const { return synthetic_; }

 private:
  Dataset(DatasetConfig config, bool synthetic)
      : config_(config), synthetic_(synthetic) {}

  std::string_view KeyAt(std::size_t at) const {
    return std::string_view(keys_.data() + key_offsets_[at],
                            key_offsets_[at + 1] - key_offsets_[at]);
  }

  /// Lays out the absent keys once the pools are final (Writer::Finish
  /// calls it).
  void InternAbsentKeys();

  /// Builds the key table once the pools are final (Writer::Finish calls
  /// it): one pass in key order that hashes each key and inserts it, so
  /// the table's cache misses overlap and no other buffer is allocated.
  void BuildKeyTable();

  DatasetConfig config_;
  // The pools are vectors, not strings: a move keeps their heap buffers
  // (no short-string copy), so views handed out before a move stay valid.
  /// Every key in key order; key i is keys_[key_offsets_[i],
  /// key_offsets_[i + 1]).
  std::vector<char> keys_;
  std::vector<std::uint32_t> key_offsets_{0};
  /// Every attribute value, record by record; value j is
  /// attributes_[attribute_offsets_[j], attribute_offsets_[j + 1]), and
  /// record i holds values record_attributes_[i] up to (not including)
  /// record_attributes_[i + 1].
  std::vector<char> attributes_;
  std::vector<std::uint32_t> attribute_offsets_{0};
  std::vector<std::uint32_t> record_attributes_{0};
  /// AbsentKey(0..size()) back to back, so the hot path never allocates.
  std::vector<char> absent_keys_;
  /// Absent key i is absent_keys_[absent_offsets_[i], absent_offsets_[i+1]).
  std::vector<std::uint32_t> absent_offsets_;
  /// Open-addressing table of key positions, linear probing: a power of
  /// two of at least 2·size() slots, so load stays at or below ½ and
  /// every probe run ends at an empty slot. A slot is 0 when empty, else
  /// position + 1 in its low bits (position_mask_) and the key hash's top
  /// bits above them. Positions, not pointers: copies and moves stay
  /// valid.
  std::vector<std::uint32_t> key_slots_;
  std::uint32_t position_mask_ = 0;
  bool synthetic_ = true;
};

/// Writes a dataset's pools record by record, in key order: the one way
/// a Dataset is laid out. Generate and FromRecords write through it once
/// they have checked their input; a dataset taken from another dataset's
/// records (a multichannel partition, a compaction's live records)
/// copies the source's spans and checks nothing again. So the writer
/// trusts its caller: records come in strictly increasing key order
/// (bytes compared unsigned), and every key is non-empty with no byte at
/// or below '!'.
class Dataset::Writer {
 public:
  /// A writer of an external dataset (absent keys "!" and key + '!').
  Writer() : dataset_(DatasetConfig{}, false) {}

  /// Sizes the pools for `records` records, `key_bytes` key bytes and
  /// `attributes` attribute values of `attribute_bytes` bytes in all, so
  /// nothing is reallocated below that. Optional; an estimate is enough,
  /// since Finish gives back what was not used.
  void Reserve(std::size_t records, std::size_t key_bytes,
               std::size_t attributes, std::size_t attribute_bytes);

  /// Appends a record whose key is `key_width` bytes, and returns them
  /// for the caller to fill. The span is valid until the next Add call.
  std::span<char> AddRecord(std::size_t key_width);

  /// Appends a `width`-byte attribute value to the last record, and
  /// returns its bytes for the caller to fill. The span is valid until
  /// the next Add call.
  std::span<char> AddAttribute(std::size_t width);

  /// The dataset written: the pools trimmed to their size, then the key
  /// table and the absent keys laid out. InvalidArgument when no record
  /// was added or a pool passed 32-bit offsets. The writer is spent.
  Result<Dataset> Finish() &&;

 private:
  friend class Dataset;

  /// A writer of the synthetic dataset `config` describes (absent keys
  /// the even codes).
  explicit Writer(const DatasetConfig& config) : dataset_(config, true) {}

  Dataset dataset_;
};

/// Encodes `code` as a fixed-width lowercase base-26 string whose
/// lexicographic order equals numeric order. Exposed for tests.
/// Returns an empty string when the width cannot represent the code.
std::string EncodeKey(std::uint64_t code, int width);

}  // namespace airindex

#endif  // AIRINDEX_DATA_DATASET_H_
