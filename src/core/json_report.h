// Layer: 5 (core) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_CORE_JSON_REPORT_H_
#define AIRINDEX_CORE_JSON_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/metrics.h"
#include "core/report.h"

namespace airindex {

/// A hand-rolled JSON document (no external deps): build, serialize and
/// parse. Objects keep insertion order, so serializing the same report
/// twice yields byte-identical output — which is what lets the CI gate
/// diff candidate files against committed baselines.
///
/// Numbers are stored as double with an exact-int64 fast path; NaN and
/// +/-Inf are not representable in JSON and serialize as null.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Null by default.
  JsonValue() = default;
  explicit JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}
  explicit JsonValue(double value) : kind_(Kind::kNumber), number_(value) {}
  explicit JsonValue(std::int64_t value)
      : kind_(Kind::kNumber), number_(static_cast<double>(value)),
        int_(value), is_int_(true) {}
  explicit JsonValue(int value) : JsonValue(static_cast<std::int64_t>(value)) {}
  explicit JsonValue(std::string value)
      : kind_(Kind::kString), string_(std::move(value)) {}
  explicit JsonValue(const char* value) : JsonValue(std::string(value)) {}

  static JsonValue MakeObject();
  static JsonValue MakeArray();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  std::int64_t int_value() const;
  /// True when the number was constructed from (or parsed as) an integer
  /// and serializes without a decimal point.
  bool is_exact_int() const { return is_int_; }
  const std::string& string_value() const { return string_; }

  /// Object: sets `key` (replacing an existing value, keeping its slot).
  JsonValue& Set(std::string key, JsonValue value);
  /// Object: the value at `key`, or nullptr.
  const JsonValue* Find(std::string_view key) const;
  /// Object members in insertion order.
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Array: appends an element.
  JsonValue& Append(JsonValue value);
  /// Array elements.
  const std::vector<JsonValue>& items() const { return items_; }
  std::size_t size() const { return items_.size(); }

  /// Serializes. `indent` < 0 emits the compact form; otherwise
  /// pretty-prints with that many spaces per level.
  std::string Serialize(int indent = -1) const;

  /// Parses a complete JSON document (trailing garbage is an error).
  /// Arrays and objects nested more than 256 deep are rejected with
  /// InvalidArgument, so a hostile document cannot exhaust the stack.
  static Result<JsonValue> Parse(std::string_view text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::int64_t int_ = 0;
  bool is_int_ = false;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// One metric of a bench point, e.g. the access time at a grid point.
struct BenchMetricValue {
  /// Sample mean (simulated bytes, or wall nanoseconds for walltime).
  double mean = 0.0;
  /// Student-t confidence half-width over round means; 0 when the bench
  /// reports a deterministic or single-shot value.
  double ci_half_width = 0.0;
  /// Wall-clock metrics regress with the machine, not the simulation;
  /// bench_compare gates them only when a wall-time budget is given.
  bool walltime = false;
};

/// One grid point of a bench run: labels identify the point, metrics
/// carry its measurements.
struct BenchPoint {
  std::vector<std::pair<std::string, std::string>> labels;
  std::vector<std::pair<std::string, BenchMetricValue>> metrics;
  /// Replications merged into the point's statistics.
  int replications = 0;
  std::int64_t requests = 0;
  bool converged = true;
};

/// Schema version written by BenchReportToJson and required by
/// BenchReportFromJson. Bump when the layout changes incompatibly.
inline constexpr int kBenchReportSchemaVersion = 1;

/// A bench run's machine-readable record: the --json payload.
struct BenchReport {
  std::string bench;
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<BenchPoint> points;
  /// Counter totals merged across every point (core/metrics.h).
  MetricsRegistry counters;
  RunTiming timing;
};

/// Builds the versioned JSON document for a report.
JsonValue BenchReportToJson(const BenchReport& report);

/// Parses a document produced by BenchReportToJson, checking the schema
/// version.
Result<BenchReport> BenchReportFromJson(const JsonValue& json);

/// Writes `value` pretty-printed to `path` (with a trailing newline).
Status WriteJsonFile(const std::string& path, const JsonValue& value);

/// Reads and parses a JSON file.
Result<JsonValue> ReadJsonFile(const std::string& path);

}  // namespace airindex

#endif  // AIRINDEX_CORE_JSON_REPORT_H_
