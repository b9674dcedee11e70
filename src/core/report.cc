#include "core/report.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace airindex {

ReportTable::ReportTable(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

void ReportTable::AddRow(std::vector<std::string> cells) {
  cells.resize(columns_.size());
  rows_.push_back(std::move(cells));
}

void ReportTable::Print(std::ostream& os) const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      os << row[c];
      for (std::size_t pad = row[c].size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  print_row(columns_);
  std::string rule;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    rule += std::string(widths[c], '-');
    if (c + 1 < columns_.size()) rule += "  ";
  }
  os << rule << '\n';
  for (const auto& row : rows_) print_row(row);
}

void ReportTable::PrintCsv(std::ostream& os) const {
  // RFC 4180: cells containing the delimiter, quotes or line breaks are
  // quoted, with embedded quotes doubled.
  const auto print_cell = [&](const std::string& cell) {
    if (cell.find_first_of(",\"\r\n") == std::string::npos) {
      os << cell;
      return;
    }
    os << '"';
    for (const char c : cell) {
      if (c == '"') os << '"';
      os << c;
    }
    os << '"';
  };
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) os << ',';
      print_cell(row[c]);
    }
    os << '\n';
  };
  print_row(columns_);
  for (const auto& row : rows_) print_row(row);
}

std::string FormatDouble(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

double RunTiming::replications_per_second() const {
  return wall_seconds > 0.0
             ? static_cast<double>(replications_run) / wall_seconds
             : 0.0;
}

double RunTiming::worker_utilization() const {
  const double capacity = wall_seconds * static_cast<double>(jobs);
  if (capacity <= 0.0) return 0.0;
  return std::min(1.0, busy_seconds / capacity);
}

void PrintTimingSummary(std::ostream& os, const RunTiming& timing) {
  os << "timing: ";
  if (timing.shard_count > 1) {
    os << "shard " << timing.shard_index + 1 << "/" << timing.shard_count
       << " | ";
  }
  os << "jobs " << timing.jobs << " | replications "
     << timing.replications_run << " (" << timing.replications_merged
     << " merged, " << timing.replications_discarded
     << " discarded) | reorder peak " << timing.reorder_buffer_peak
     << " | wall " << FormatDouble(timing.wall_seconds, 2) << " s | set-up "
     << FormatDouble(timing.setup_seconds, 2) << " s | "
     << FormatDouble(timing.replications_per_second(), 1)
     << " reps/s | worker utilization "
     << FormatDouble(100.0 * timing.worker_utilization(), 0) << "% (idle "
     << FormatDouble(timing.idle_seconds, 2) << " s)\n";
}

}  // namespace airindex
