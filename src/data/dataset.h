// Layer: 2 (data) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_DATA_DATASET_H_
#define AIRINDEX_DATA_DATASET_H_

#include <cstdint>
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

/// An immutable, key-sorted collection of records plus the query-side
/// helpers the testbed needs (exact lookup and guaranteed-absent keys).
///
/// Present keys are the encodings of odd codes 1, 3, 5, ...; the even
/// codes in between encode keys that are lexicographically interleaved
/// with the data but guaranteed absent. The data-availability experiments
/// (paper Section 5.1) draw misses from those.
class Dataset {
 public:
  /// Generates a dataset. Fails with InvalidArgument when the
  /// configuration is inconsistent (e.g., the key width cannot encode the
  /// requested number of distinct keys).
  static Result<Dataset> Generate(const DatasetConfig& config);

  /// Wraps externally supplied records (the paper's "information is read
  /// from files or databases"). Records are sorted by key and re-ids
  /// assigned in key order. Fails when empty, when keys repeat, or when
  /// a key is empty or contains characters at or below '!' (reserved for
  /// synthesizing guaranteed-absent probe keys).
  static Result<Dataset> FromRecords(std::vector<Record> records);

  Dataset(const Dataset&) = default;
  Dataset& operator=(const Dataset&) = default;
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

  /// All records, sorted by key ascending.
  const std::vector<Record>& records() const { return records_; }

  /// Number of records.
  int size() const { return static_cast<int>(records_.size()); }

  /// The record at key-order position `index`.
  const Record& record(int index) const { return records_[index]; }

  /// Key-order position of `key`, or -1 if absent.
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
  const std::string& min_key() const { return records_.front().key; }
  const std::string& max_key() const { return records_.back().key; }

  /// The generator configuration this dataset was built from.
  const DatasetConfig& config() const { return config_; }

  /// True when the dataset came from the synthetic generator (as opposed
  /// to FromRecords).
  bool synthetic() const { return synthetic_; }

 private:
  explicit Dataset(DatasetConfig config) : config_(config) {}

  /// Lays out the absent keys once records_ is final (both factories
  /// call it).
  void InternAbsentKeys();

  DatasetConfig config_;
  std::vector<Record> records_;
  /// AbsentKey(0..size()) back to back, so the hot path never allocates.
  /// A vector, not a string: a move keeps its heap buffer (no short-string
  /// copy), so views handed out before a move stay valid.
  std::vector<char> absent_keys_;
  /// Absent key i is absent_keys_[absent_offsets_[i], absent_offsets_[i+1]).
  std::vector<std::size_t> absent_offsets_;
  bool synthetic_ = true;
};

/// Encodes `code` as a fixed-width lowercase base-26 string whose
/// lexicographic order equals numeric order. Exposed for tests.
/// Returns an empty string when the width cannot represent the code.
std::string EncodeKey(std::uint64_t code, int width);

}  // namespace airindex

#endif  // AIRINDEX_DATA_DATASET_H_
