#ifndef AIRINDEX_DATA_FILE_SOURCE_H_
#define AIRINDEX_DATA_FILE_SOURCE_H_

#include <string>

#include "common/result.h"
#include "data/dataset.h"

namespace airindex {

/// Loads a dataset from a delimited text file — the paper's testbed
/// architecture reads its Data object "from files or databases".
///
/// Format: one record per line, `key<delim>attr1<delim>attr2...`;
/// blank lines and lines starting with '#' are skipped. Keys must be
/// unique, non-empty, and contain only bytes above '!', compared
/// unsigned, so UTF-8 keys load (see Dataset::FromRecords). Fails with
/// NotFound when the file cannot be opened and InvalidArgument on
/// malformed content.
Result<Dataset> LoadDatasetFromFile(const std::string& path,
                                    char delimiter = ',');

/// Writes `dataset` in the same format (round-trip support, and a handy
/// way for examples to materialize sample data).
Status SaveDatasetToFile(const Dataset& dataset, const std::string& path,
                         char delimiter = ',');

}  // namespace airindex

#endif  // AIRINDEX_DATA_FILE_SOURCE_H_
