#ifndef AIRINDEX_DATA_RECORD_H_
#define AIRINDEX_DATA_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace airindex {

/// One broadcast data item (paper Section 3, "Record"): a primary key and
/// a few non-key attributes, as an external source hands it to
/// Dataset::FromRecords. A Dataset does not keep Records: it copies their
/// bytes into its pools and hands out RecordViews (data/dataset.h).
///
/// The *logical* size of a record on the channel is fixed by
/// BucketGeometry::record_bytes (the paper's 500-byte records); the
/// strings held here are only the parts the protocols actually inspect
/// (key comparisons, signature generation), not 500 bytes of payload.
struct Record {
  /// Dense index of the record in key order (0-based); FromRecords
  /// ignores it and numbers the records itself.
  std::uint64_t id = 0;
  /// Primary key: unique, non-empty, no byte at or below '!'; in any
  /// order (FromRecords sorts).
  std::string key;
  /// Non-key attribute values (used by signature generation).
  std::vector<std::string> attributes;
};

}  // namespace airindex

#endif  // AIRINDEX_DATA_RECORD_H_
