#include "data/file_source.h"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

namespace airindex {

Result<Dataset> LoadDatasetFromFile(const std::string& path, char delimiter) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open dataset file: " + path);
  }
  std::vector<Record> records;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line.front() == '#') continue;
    Record record;
    std::stringstream fields(line);
    std::string field;
    bool first = true;
    while (std::getline(fields, field, delimiter)) {
      if (first) {
        record.key = field;
        first = false;
      } else {
        record.attributes.push_back(field);
      }
    }
    if (record.key.empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": missing key");
    }
    records.push_back(std::move(record));
  }
  if (records.empty()) {
    return Status::InvalidArgument("no records in " + path);
  }
  return Dataset::FromRecords(std::move(records));
}

Status SaveDatasetToFile(const Dataset& dataset, const std::string& path,
                         char delimiter) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open for writing: " + path);
  }
  for (int i = 0; i < dataset.size(); ++i) {
    const RecordView record = dataset.record(i);
    out << record.key;
    for (const std::string_view attribute : record.attributes) {
      out << delimiter << attribute;
    }
    out << '\n';
  }
  out.flush();
  if (!out) {
    return Status::Internal("write failed: " + path);
  }
  return Status::Ok();
}

}  // namespace airindex
