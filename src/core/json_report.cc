#include "core/json_report.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace airindex {

namespace {

void AppendEscaped(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buffer;
        } else {
          out->push_back(c);  // UTF-8 bytes pass through unescaped
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(std::string* out, double value, bool is_int,
                  std::int64_t int_value) {
  if (is_int) {
    *out += std::to_string(int_value);
    return;
  }
  if (!std::isfinite(value)) {
    // JSON has no NaN/Inf; null is the conventional lossy stand-in.
    *out += "null";
    return;
  }
  char buffer[32];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  *out += ec == std::errc() ? std::string(buffer, ptr) : "null";
}

/// Recursive-descent JSON parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    Result<JsonValue> value = ParseValue();
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after the JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      Result<std::string> s = ParseString();
      if (!s.ok()) return s.status();
      return JsonValue(std::move(s).value());
    }
    if (ConsumeLiteral("true")) return JsonValue(true);
    if (ConsumeLiteral("false")) return JsonValue(false);
    if (ConsumeLiteral("null")) return JsonValue();
    return ParseNumber();
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue object = JsonValue::MakeObject();
    SkipWhitespace();
    if (Consume('}')) return object;
    while (true) {
      SkipWhitespace();
      Result<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      Result<JsonValue> value = ParseValue();
      if (!value.ok()) return value;
      object.Set(std::move(key).value(), std::move(value).value());
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return object;
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue array = JsonValue::MakeArray();
    SkipWhitespace();
    if (Consume(']')) return array;
    while (true) {
      Result<JsonValue> value = ParseValue();
      if (!value.ok()) return value;
      array.Append(std::move(value).value());
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return array;
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          Result<unsigned> unit = ParseHex4();
          if (!unit.ok()) return unit.status();
          unsigned code = unit.value();
          if (code >= 0xd800 && code <= 0xdbff) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if (!ConsumeLiteral("\\u")) {
              return Error("unpaired UTF-16 surrogate");
            }
            Result<unsigned> low = ParseHex4();
            if (!low.ok()) return low.status();
            if (low.value() < 0xdc00 || low.value() > 0xdfff) {
              return Error("invalid UTF-16 low surrogate");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low.value() - 0xdc00);
          }
          AppendUtf8(&out, code);
          break;
        }
        default:
          return Error("invalid escape sequence");
      }
    }
    return Error("unterminated string");
  }

  Result<unsigned> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value += static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value += static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value += static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    return value;
  }

  static void AppendUtf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xc0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xe0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else {
      out->push_back(static_cast<char>(0xf0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    }
  }

  Result<JsonValue> ParseNumber() {
    const std::size_t start = pos_;
    Consume('-');
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") return Error("invalid number");
    const bool integral =
        token.find_first_of(".eE") == std::string_view::npos;
    if (integral) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return JsonValue(value);
      }
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      return Error("invalid number");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void SerializeTo(const JsonValue& value, std::string* out, int indent,
                 int depth) {
  const auto newline_pad = [&](int level) {
    if (indent < 0) return;
    out->push_back('\n');
    out->append(static_cast<std::size_t>(indent * level), ' ');
  };
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      *out += "null";
      break;
    case JsonValue::Kind::kBool:
      *out += value.bool_value() ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      AppendNumber(out, value.number_value(), value.is_exact_int(),
                   value.int_value());
      break;
    case JsonValue::Kind::kString:
      AppendEscaped(out, value.string_value());
      break;
    case JsonValue::Kind::kArray: {
      if (value.items().empty()) {
        *out += "[]";
        break;
      }
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : value.items()) {
        if (!first) out->push_back(',');
        first = false;
        newline_pad(depth + 1);
        SerializeTo(item, out, indent, depth + 1);
      }
      newline_pad(depth);
      out->push_back(']');
      break;
    }
    case JsonValue::Kind::kObject: {
      if (value.members().empty()) {
        *out += "{}";
        break;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) out->push_back(',');
        first = false;
        newline_pad(depth + 1);
        AppendEscaped(out, key);
        *out += indent < 0 ? ":" : ": ";
        SerializeTo(member, out, indent, depth + 1);
      }
      newline_pad(depth);
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

JsonValue JsonValue::MakeObject() {
  JsonValue value;
  value.kind_ = Kind::kObject;
  return value;
}

JsonValue JsonValue::MakeArray() {
  JsonValue value;
  value.kind_ = Kind::kArray;
  return value;
}

std::int64_t JsonValue::int_value() const {
  return is_int_ ? int_ : static_cast<std::int64_t>(std::llround(number_));
}

JsonValue& JsonValue::Set(std::string key, JsonValue value) {
  kind_ = Kind::kObject;
  for (auto& [existing_key, existing_value] : members_) {
    if (existing_key == key) {
      existing_value = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [existing_key, value] : members_) {
    if (existing_key == key) return &value;
  }
  return nullptr;
}

JsonValue& JsonValue::Append(JsonValue value) {
  kind_ = Kind::kArray;
  items_.push_back(std::move(value));
  return *this;
}

std::string JsonValue::Serialize(int indent) const {
  std::string out;
  SerializeTo(*this, &out, indent, 0);
  return out;
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

namespace {

JsonValue PairsToObject(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  JsonValue object = JsonValue::MakeObject();
  for (const auto& [key, value] : pairs) object.Set(key, JsonValue(value));
  return object;
}

Result<std::vector<std::pair<std::string, std::string>>> ObjectToPairs(
    const JsonValue& object, const std::string& what) {
  if (!object.is_object()) {
    return Status::InvalidArgument("bench report: " + what +
                                   " must be an object of strings");
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const auto& [key, value] : object.members()) {
    if (!value.is_string()) {
      return Status::InvalidArgument("bench report: " + what + "." + key +
                                     " must be a string");
    }
    pairs.emplace_back(key, value.string_value());
  }
  return pairs;
}

const JsonValue* Require(const JsonValue& object, std::string_view key) {
  return object.is_object() ? object.Find(key) : nullptr;
}

}  // namespace

JsonValue BenchReportToJson(const BenchReport& report) {
  JsonValue root = JsonValue::MakeObject();
  root.Set("schema_version", JsonValue(kBenchReportSchemaVersion));
  root.Set("bench", JsonValue(report.bench));
  root.Set("config", PairsToObject(report.config));

  JsonValue points = JsonValue::MakeArray();
  for (const BenchPoint& point : report.points) {
    JsonValue item = JsonValue::MakeObject();
    item.Set("labels", PairsToObject(point.labels));
    JsonValue metrics = JsonValue::MakeObject();
    for (const auto& [name, metric] : point.metrics) {
      JsonValue entry = JsonValue::MakeObject();
      entry.Set("mean", JsonValue(metric.mean));
      entry.Set("ci_half_width", JsonValue(metric.ci_half_width));
      entry.Set("kind", JsonValue(metric.walltime ? "walltime" : "simulated"));
      metrics.Set(name, std::move(entry));
    }
    item.Set("metrics", std::move(metrics));
    item.Set("replications", JsonValue(point.replications));
    item.Set("requests", JsonValue(point.requests));
    item.Set("converged", JsonValue(point.converged));
    points.Append(std::move(item));
  }
  root.Set("points", std::move(points));

  JsonValue counters = JsonValue::MakeObject();
  for (const MetricsRegistry::Entry& entry : report.counters.entries()) {
    counters.Set(entry.name, JsonValue(entry.value));
  }
  root.Set("counters", std::move(counters));

  JsonValue timing = JsonValue::MakeObject();
  timing.Set("jobs", JsonValue(report.timing.jobs));
  timing.Set("replications_run", JsonValue(report.timing.replications_run));
  timing.Set("replications_merged",
             JsonValue(report.timing.replications_merged));
  timing.Set("replications_discarded",
             JsonValue(report.timing.replications_discarded));
  timing.Set("reorder_buffer_peak",
             JsonValue(report.timing.reorder_buffer_peak));
  timing.Set("wall_seconds", JsonValue(report.timing.wall_seconds));
  timing.Set("busy_seconds", JsonValue(report.timing.busy_seconds));
  timing.Set("idle_seconds", JsonValue(report.timing.idle_seconds));
  timing.Set("setup_seconds", JsonValue(report.timing.setup_seconds));
  timing.Set("shard_index", JsonValue(report.timing.shard_index));
  timing.Set("shard_count", JsonValue(report.timing.shard_count));
  JsonValue cell_walls = JsonValue::MakeArray();
  for (const double seconds : report.timing.cell_wall_seconds) {
    cell_walls.Append(JsonValue(seconds));
  }
  timing.Set("cell_wall_seconds", std::move(cell_walls));
  root.Set("timing", std::move(timing));
  return root;
}

Result<BenchReport> BenchReportFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("bench report: root must be an object");
  }
  const JsonValue* version = Require(json, "schema_version");
  if (version == nullptr || !version->is_number()) {
    return Status::InvalidArgument("bench report: missing schema_version");
  }
  if (version->int_value() != kBenchReportSchemaVersion) {
    return Status::InvalidArgument(
        "bench report: unsupported schema_version " +
        std::to_string(version->int_value()) + " (expected " +
        std::to_string(kBenchReportSchemaVersion) + ")");
  }

  BenchReport report;
  const JsonValue* bench = Require(json, "bench");
  if (bench == nullptr || !bench->is_string()) {
    return Status::InvalidArgument("bench report: missing bench name");
  }
  report.bench = bench->string_value();

  if (const JsonValue* config = Require(json, "config")) {
    Result<std::vector<std::pair<std::string, std::string>>> pairs =
        ObjectToPairs(*config, "config");
    if (!pairs.ok()) return pairs.status();
    report.config = std::move(pairs).value();
  }

  const JsonValue* points = Require(json, "points");
  if (points == nullptr || !points->is_array()) {
    return Status::InvalidArgument("bench report: missing points array");
  }
  for (const JsonValue& item : points->items()) {
    BenchPoint point;
    const JsonValue* labels = Require(item, "labels");
    if (labels == nullptr) {
      return Status::InvalidArgument("bench report: point without labels");
    }
    Result<std::vector<std::pair<std::string, std::string>>> label_pairs =
        ObjectToPairs(*labels, "labels");
    if (!label_pairs.ok()) return label_pairs.status();
    point.labels = std::move(label_pairs).value();

    const JsonValue* metrics = Require(item, "metrics");
    if (metrics == nullptr || !metrics->is_object()) {
      return Status::InvalidArgument("bench report: point without metrics");
    }
    for (const auto& [name, entry] : metrics->members()) {
      const JsonValue* mean = Require(entry, "mean");
      const JsonValue* half = Require(entry, "ci_half_width");
      const JsonValue* kind = Require(entry, "kind");
      if (mean == nullptr || !mean->is_number() || half == nullptr ||
          !half->is_number() || kind == nullptr || !kind->is_string()) {
        return Status::InvalidArgument("bench report: malformed metric " +
                                       name);
      }
      if (kind->string_value() != "simulated" &&
          kind->string_value() != "walltime") {
        return Status::InvalidArgument("bench report: metric " + name +
                                       " has unknown kind '" +
                                       kind->string_value() + "'");
      }
      point.metrics.emplace_back(
          name, BenchMetricValue{mean->number_value(), half->number_value(),
                                 kind->string_value() == "walltime"});
    }

    if (const JsonValue* replications = Require(item, "replications")) {
      point.replications = static_cast<int>(replications->int_value());
    }
    if (const JsonValue* requests = Require(item, "requests")) {
      point.requests = requests->int_value();
    }
    if (const JsonValue* converged = Require(item, "converged")) {
      point.converged = converged->bool_value();
    }
    report.points.push_back(std::move(point));
  }

  if (const JsonValue* counters = Require(json, "counters")) {
    if (!counters->is_object()) {
      return Status::InvalidArgument("bench report: counters must be an "
                                     "object");
    }
    for (const auto& [name, value] : counters->members()) {
      if (!value.is_number()) {
        return Status::InvalidArgument("bench report: counter " + name +
                                       " must be a number");
      }
      report.counters.Increment(name, value.int_value());
    }
  }

  if (const JsonValue* timing = Require(json, "timing")) {
    if (const JsonValue* jobs = Require(*timing, "jobs")) {
      report.timing.jobs = static_cast<int>(jobs->int_value());
    }
    if (const JsonValue* run = Require(*timing, "replications_run")) {
      report.timing.replications_run = static_cast<int>(run->int_value());
    }
    if (const JsonValue* merged = Require(*timing, "replications_merged")) {
      report.timing.replications_merged =
          static_cast<int>(merged->int_value());
    }
    if (const JsonValue* discarded =
            Require(*timing, "replications_discarded")) {
      report.timing.replications_discarded =
          static_cast<int>(discarded->int_value());
    }
    if (const JsonValue* peak = Require(*timing, "reorder_buffer_peak")) {
      report.timing.reorder_buffer_peak = static_cast<int>(peak->int_value());
    }
    if (const JsonValue* wall = Require(*timing, "wall_seconds")) {
      report.timing.wall_seconds = wall->number_value();
    }
    if (const JsonValue* busy = Require(*timing, "busy_seconds")) {
      report.timing.busy_seconds = busy->number_value();
    }
    if (const JsonValue* idle = Require(*timing, "idle_seconds")) {
      report.timing.idle_seconds = idle->number_value();
    }
    // The set-up and sharding keys are absent in older reports; the
    // defaults (no set-up time, shard 0 of 1, no per-cell walls) stand
    // in for them.
    if (const JsonValue* setup = Require(*timing, "setup_seconds")) {
      report.timing.setup_seconds = setup->number_value();
    }
    if (const JsonValue* shard_index = Require(*timing, "shard_index")) {
      report.timing.shard_index = static_cast<int>(shard_index->int_value());
    }
    if (const JsonValue* shard_count = Require(*timing, "shard_count")) {
      report.timing.shard_count = static_cast<int>(shard_count->int_value());
    }
    if (const JsonValue* cell_walls = Require(*timing, "cell_wall_seconds")) {
      if (cell_walls->is_array()) {
        for (const JsonValue& seconds : cell_walls->items()) {
          if (seconds.is_number()) {
            report.timing.cell_wall_seconds.push_back(seconds.number_value());
          }
        }
      }
    }
  }
  return report;
}

Status WriteJsonFile(const std::string& path, const JsonValue& value) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  out << value.Serialize(/*indent=*/2) << '\n';
  out.flush();
  if (!out) return Status::Internal("short write to " + path);
  return Status::Ok();
}

Result<JsonValue> ReadJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::Internal("read error on " + path);
  return JsonValue::Parse(buffer.str());
}

}  // namespace airindex
