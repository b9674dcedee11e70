#include "core/shard.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>

#include "core/accuracy_controller.h"
#include "stats/running_stats.h"

namespace airindex {

namespace {

constexpr char kCounterCode[] = "c";
constexpr char kGaugeCode[] = "g";

Status ShardError(const std::string& what) {
  return Status::InvalidArgument("shard: " + what);
}

}  // namespace

Result<ShardSpec> ParseShardSpec(std::string_view text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) {
    return ShardError("expected I/N, got '" + std::string(text) + "'");
  }
  const std::string_view index_part = text.substr(0, slash);
  const std::string_view count_part = text.substr(slash + 1);
  int index = 0;
  int count = 0;
  const auto index_parse = std::from_chars(
      index_part.data(), index_part.data() + index_part.size(), index);
  const auto count_parse = std::from_chars(
      count_part.data(), count_part.data() + count_part.size(), count);
  if (index_parse.ec != std::errc() ||
      index_parse.ptr != index_part.data() + index_part.size() ||
      count_parse.ec != std::errc() ||
      count_parse.ptr != count_part.data() + count_part.size()) {
    return ShardError("expected I/N, got '" + std::string(text) + "'");
  }
  if (count < 1 || index < 1 || index > count) {
    return ShardError("need 1 <= I <= N, got '" + std::string(text) + "'");
  }
  return ShardSpec{index - 1, count};
}

std::vector<ShardRange> PartitionSweep(const std::vector<int>& cell_caps,
                                       const ShardSpec& spec) {
  std::int64_t total = 0;
  for (const int cap : cell_caps) total += cap;
  // Owned global unit range; int64 keeps the products exact.
  const std::int64_t begin =
      total * static_cast<std::int64_t>(spec.index) / spec.count;
  const std::int64_t end =
      total * static_cast<std::int64_t>(spec.index + 1) / spec.count;

  std::vector<ShardRange> ranges;
  ranges.reserve(cell_caps.size());
  std::int64_t offset = 0;
  for (const int cap : cell_caps) {
    const std::int64_t cell_begin = std::max<std::int64_t>(begin, offset);
    const std::int64_t cell_end = std::min<std::int64_t>(end, offset + cap);
    if (cell_begin < cell_end) {
      ranges.push_back(ShardRange{static_cast<int>(cell_begin - offset),
                                  static_cast<int>(cell_end - offset)});
    } else {
      ranges.push_back(ShardRange{});
    }
    offset += cap;
  }
  return ranges;
}

BenchMetricValue BinomialRatioMetric(const MetricsRegistry& metrics,
                                     const DerivedMetricSpec& spec) {
  // Keep these expressions in exact sync with nothing: this IS the one
  // definition both the live bench and the merge replay call.
  const auto denominator =
      static_cast<double>(metrics.Get(spec.denominator));
  const double ratio =
      denominator > 0.0
          ? static_cast<double>(metrics.Get(spec.numerator)) / denominator
          : 0.0;
  const double half_width =
      denominator > 0.0
          ? spec.z * std::sqrt(std::max(
                         0.0, ratio * (1.0 - ratio) / denominator))
          : 0.0;
  return BenchMetricValue{ratio, half_width, false};
}

JsonValue ShardSectionToJson(const ShardSection& section) {
  JsonValue root = JsonValue::MakeObject();
  root.Set("index", JsonValue(section.spec.index));
  root.Set("count", JsonValue(section.spec.count));
  JsonValue cells = JsonValue::MakeArray();
  for (const ShardCell& cell : section.cells) {
    JsonValue item = JsonValue::MakeObject();
    item.Set("min_rounds", JsonValue(cell.min_rounds));
    item.Set("max_rounds", JsonValue(cell.max_rounds));
    item.Set("confidence_level", JsonValue(cell.confidence_level));
    item.Set("confidence_accuracy", JsonValue(cell.confidence_accuracy));
    JsonValue derived = JsonValue::MakeArray();
    for (const DerivedMetricSpec& spec : cell.derived) {
      JsonValue entry = JsonValue::MakeObject();
      entry.Set("name", JsonValue(spec.name));
      entry.Set("numerator", JsonValue(spec.numerator));
      entry.Set("denominator", JsonValue(spec.denominator));
      entry.Set("z", JsonValue(spec.z));
      derived.Append(std::move(entry));
    }
    item.Set("derived", std::move(derived));
    JsonValue replications = JsonValue::MakeArray();
    for (const ReplicationPayload& payload : cell.replications) {
      // Compact row: [id, access(count, mean, m2), tuning(count, mean,
      // m2), round means, [[name, value, kind], ...]].
      JsonValue row = JsonValue::MakeArray();
      row.Append(JsonValue(payload.id));
      row.Append(JsonValue(payload.access_count));
      row.Append(JsonValue(payload.access_mean));
      row.Append(JsonValue(payload.access_m2));
      row.Append(JsonValue(payload.tuning_count));
      row.Append(JsonValue(payload.tuning_mean));
      row.Append(JsonValue(payload.tuning_m2));
      row.Append(JsonValue(payload.round_access_mean));
      row.Append(JsonValue(payload.round_tuning_mean));
      JsonValue metrics = JsonValue::MakeArray();
      for (const MetricsRegistry::Entry& entry : payload.metrics.entries()) {
        JsonValue triple = JsonValue::MakeArray();
        triple.Append(JsonValue(entry.name));
        triple.Append(JsonValue(entry.value));
        triple.Append(JsonValue(entry.kind == MetricsRegistry::Kind::kCounter
                                    ? kCounterCode
                                    : kGaugeCode));
        metrics.Append(std::move(triple));
      }
      row.Append(std::move(metrics));
      replications.Append(std::move(row));
    }
    item.Set("replications", std::move(replications));
    cells.Append(std::move(item));
  }
  root.Set("cells", std::move(cells));
  return root;
}

bool HasShardSection(const JsonValue& report_root) {
  return report_root.is_object() && report_root.Find("shard") != nullptr;
}

namespace {

Result<double> NumberField(const JsonValue& object, const char* key) {
  const JsonValue* value = object.is_object() ? object.Find(key) : nullptr;
  if (value == nullptr || !value->is_number()) {
    return ShardError(std::string("missing number '") + key + "'");
  }
  return value->number_value();
}

Result<ReplicationPayload> PayloadFromJson(const JsonValue& row) {
  if (!row.is_array() || row.size() != 10) {
    return ShardError("replication row must be a 10-element array");
  }
  for (std::size_t i = 0; i < 9; ++i) {
    if (!row.items()[i].is_number()) {
      return ShardError("replication row holds a non-number");
    }
  }
  ReplicationPayload payload;
  payload.id = static_cast<int>(row.items()[0].int_value());
  payload.access_count = row.items()[1].int_value();
  payload.access_mean = row.items()[2].number_value();
  payload.access_m2 = row.items()[3].number_value();
  payload.tuning_count = row.items()[4].int_value();
  payload.tuning_mean = row.items()[5].number_value();
  payload.tuning_m2 = row.items()[6].number_value();
  payload.round_access_mean = row.items()[7].number_value();
  payload.round_tuning_mean = row.items()[8].number_value();
  const JsonValue& metrics = row.items()[9];
  if (!metrics.is_array()) {
    return ShardError("replication metrics must be an array");
  }
  for (const JsonValue& triple : metrics.items()) {
    if (!triple.is_array() || triple.size() != 3 ||
        !triple.items()[0].is_string() || !triple.items()[1].is_number() ||
        !triple.items()[2].is_string()) {
      return ShardError("metric entry must be [name, value, kind]");
    }
    const std::string& kind = triple.items()[2].string_value();
    if (kind == kCounterCode) {
      payload.metrics.Increment(triple.items()[0].string_value(),
                                triple.items()[1].int_value());
    } else if (kind == kGaugeCode) {
      payload.metrics.Set(triple.items()[0].string_value(),
                          triple.items()[1].int_value());
    } else {
      return ShardError("unknown metric kind '" + kind + "'");
    }
  }
  return payload;
}

}  // namespace

Result<ShardSection> ShardSectionFromJson(const JsonValue& report_root) {
  const JsonValue* shard =
      report_root.is_object() ? report_root.Find("shard") : nullptr;
  if (shard == nullptr || !shard->is_object()) {
    return ShardError("report has no shard section (not a partial report?)");
  }
  ShardSection section;
  Result<double> index = NumberField(*shard, "index");
  if (!index.ok()) return index.status();
  Result<double> count = NumberField(*shard, "count");
  if (!count.ok()) return count.status();
  section.spec.index = static_cast<int>(index.value());
  section.spec.count = static_cast<int>(count.value());
  if (section.spec.count < 1 || section.spec.index < 0 ||
      section.spec.index >= section.spec.count) {
    return ShardError("invalid shard identity");
  }
  const JsonValue* cells = shard->Find("cells");
  if (cells == nullptr || !cells->is_array()) {
    return ShardError("missing cells array");
  }
  for (const JsonValue& item : cells->items()) {
    ShardCell cell;
    Result<double> min_rounds = NumberField(item, "min_rounds");
    if (!min_rounds.ok()) return min_rounds.status();
    Result<double> max_rounds = NumberField(item, "max_rounds");
    if (!max_rounds.ok()) return max_rounds.status();
    Result<double> level = NumberField(item, "confidence_level");
    if (!level.ok()) return level.status();
    Result<double> accuracy = NumberField(item, "confidence_accuracy");
    if (!accuracy.ok()) return accuracy.status();
    cell.min_rounds = static_cast<int>(min_rounds.value());
    cell.max_rounds = static_cast<int>(max_rounds.value());
    cell.confidence_level = level.value();
    cell.confidence_accuracy = accuracy.value();
    if (const JsonValue* derived = item.Find("derived")) {
      if (!derived->is_array()) return ShardError("derived must be an array");
      for (const JsonValue& entry : derived->items()) {
        DerivedMetricSpec spec;
        const JsonValue* name = entry.is_object() ? entry.Find("name")
                                                  : nullptr;
        const JsonValue* numerator =
            entry.is_object() ? entry.Find("numerator") : nullptr;
        const JsonValue* denominator =
            entry.is_object() ? entry.Find("denominator") : nullptr;
        Result<double> z = NumberField(entry, "z");
        if (name == nullptr || !name->is_string() || numerator == nullptr ||
            !numerator->is_string() || denominator == nullptr ||
            !denominator->is_string() || !z.ok()) {
          return ShardError("malformed derived metric spec");
        }
        spec.name = name->string_value();
        spec.numerator = numerator->string_value();
        spec.denominator = denominator->string_value();
        spec.z = z.value();
        cell.derived.push_back(std::move(spec));
      }
    }
    const JsonValue* replications = item.Find("replications");
    if (replications == nullptr || !replications->is_array()) {
      return ShardError("missing replications array");
    }
    for (const JsonValue& row : replications->items()) {
      Result<ReplicationPayload> payload = PayloadFromJson(row);
      if (!payload.ok()) return payload.status();
      cell.replications.push_back(std::move(payload).value());
    }
    section.cells.push_back(std::move(cell));
  }
  return section;
}

namespace {

bool SameDerived(const std::vector<DerivedMetricSpec>& a,
                 const std::vector<DerivedMetricSpec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].numerator != b[i].numerator ||
        a[i].denominator != b[i].denominator || a[i].z != b[i].z) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<BenchReport> MergeShardedReports(
    const std::vector<ShardedPartial>& partials) {
  if (partials.empty()) return ShardError("no partial reports to merge");
  const int count = partials[0].shard.spec.count;
  std::vector<const ShardedPartial*> by_index(
      static_cast<std::size_t>(count), nullptr);
  for (const ShardedPartial& partial : partials) {
    if (partial.shard.spec.count != count) {
      return ShardError("partials disagree on shard count");
    }
    const int index = partial.shard.spec.index;
    if (by_index[static_cast<std::size_t>(index)] != nullptr) {
      return ShardError("shard " + std::to_string(index + 1) + "/" +
                        std::to_string(count) + " appears twice");
    }
    by_index[static_cast<std::size_t>(index)] = &partial;
  }
  for (int i = 0; i < count; ++i) {
    if (by_index[static_cast<std::size_t>(i)] == nullptr) {
      return ShardError("missing shard " + std::to_string(i + 1) + "/" +
                        std::to_string(count));
    }
  }

  const ShardedPartial& first = *by_index[0];
  const std::size_t num_points = first.report.points.size();
  for (const ShardedPartial* partial : by_index) {
    if (partial->report.bench != first.report.bench) {
      return ShardError("partials come from different benches");
    }
    if (partial->report.config != first.report.config) {
      return ShardError("partials ran with different configs");
    }
    if (partial->report.points.size() != num_points ||
        partial->shard.cells.size() != num_points) {
      return ShardError("partials disagree on the sweep grid");
    }
    for (std::size_t p = 0; p < num_points; ++p) {
      if (partial->report.points[p].labels != first.report.points[p].labels) {
        return ShardError("partials disagree on point labels");
      }
      const ShardCell& cell = partial->shard.cells[p];
      const ShardCell& reference = first.shard.cells[p];
      if (cell.min_rounds != reference.min_rounds ||
          cell.max_rounds != reference.max_rounds ||
          cell.confidence_level != reference.confidence_level ||
          cell.confidence_accuracy != reference.confidence_accuracy ||
          !SameDerived(cell.derived, reference.derived)) {
        return ShardError("partials disagree on cell parameters");
      }
    }
  }

  BenchReport merged;
  merged.bench = first.report.bench;
  merged.config = first.report.config;

  for (std::size_t p = 0; p < num_points; ++p) {
    const ShardCell& reference = first.shard.cells[p];
    // Union of every shard's payloads for this cell, in id order. The
    // shards' ranges are disjoint, so duplicates mean corrupt input.
    std::vector<const ReplicationPayload*> payloads;
    for (const ShardedPartial* partial : by_index) {
      for (const ReplicationPayload& payload :
           partial->shard.cells[p].replications) {
        payloads.push_back(&payload);
      }
    }
    std::sort(payloads.begin(), payloads.end(),
              [](const ReplicationPayload* a, const ReplicationPayload* b) {
                return a->id < b->id;
              });

    // Replay the coordinator loop of core/experiment.cc: merge in id
    // order, feed the stopping rule, truncate where it fires. This is
    // what makes the merged point bit-identical to the unsharded run —
    // the extra payloads past the stopping replication are exactly the
    // speculative work a single process never executes.
    RunningStats access;
    RunningStats tuning;
    MetricsRegistry metrics;
    AccuracyController accuracy(reference.confidence_level,
                                reference.confidence_accuracy);
    bool stop = false;
    for (const ReplicationPayload* payload : payloads) {
      const int rounds = accuracy.rounds();
      if (payload->id != rounds) {
        return ShardError("point " + std::to_string(p) + ": replication " +
                          std::to_string(rounds) +
                          (payload->id < rounds ? " duplicated" : " missing"));
      }
      access.Merge(RunningStats::FromRaw(payload->access_count,
                                         payload->access_mean,
                                         payload->access_m2));
      tuning.Merge(RunningStats::FromRaw(payload->tuning_count,
                                         payload->tuning_mean,
                                         payload->tuning_m2));
      metrics.Merge(payload->metrics);
      accuracy.AddRound(payload->round_access_mean,
                        payload->round_tuning_mean);
      if (accuracy.ShouldStop(reference.min_rounds, reference.max_rounds)) {
        stop = true;
        break;
      }
    }
    if (!stop) {
      return ShardError("point " + std::to_string(p) +
                        ": payloads end before the stopping rule fires "
                        "(incomplete shard set?)");
    }

    BenchPoint point;
    point.labels = first.report.points[p].labels;
    point.metrics.emplace_back(
        "access_bytes",
        BenchMetricValue{access.mean(), accuracy.access_check().half_width,
                         false});
    point.metrics.emplace_back(
        "tuning_bytes",
        BenchMetricValue{tuning.mean(), accuracy.tuning_check().half_width,
                         false});
    for (const DerivedMetricSpec& spec : reference.derived) {
      point.metrics.emplace_back(spec.name,
                                 BinomialRatioMetric(metrics, spec));
    }
    point.replications = accuracy.rounds();
    point.requests = access.count();
    point.converged = accuracy.Satisfied();
    // Same sanity net the partials passed through AddSimulationPoint:
    // the reconstructed metric list must match what the bench wrote.
    if (point.metrics.size() != first.report.points[p].metrics.size()) {
      return ShardError("point " + std::to_string(p) +
                        ": derived metric list does not match the partials");
    }
    for (std::size_t m = 0; m < point.metrics.size(); ++m) {
      if (point.metrics[m].first != first.report.points[p].metrics[m].first) {
        return ShardError("point " + std::to_string(p) +
                          ": metric names do not match the partials");
      }
    }
    merged.counters.Merge(metrics);
    merged.points.push_back(std::move(point));
  }

  // Timing is merged, never compared: totals add across shards, capacity
  // figures take the max, and the merged report presents itself as the
  // one logical (unsharded) run.
  RunTiming& timing = merged.timing;
  timing.jobs = 0;
  for (const ShardedPartial* partial : by_index) {
    const RunTiming& t = partial->report.timing;
    timing.jobs = std::max(timing.jobs, t.jobs);
    timing.replications_run += t.replications_run;
    timing.replications_merged += t.replications_merged;
    timing.replications_discarded += t.replications_discarded;
    timing.reorder_buffer_peak =
        std::max(timing.reorder_buffer_peak, t.reorder_buffer_peak);
    timing.wall_seconds += t.wall_seconds;
    timing.busy_seconds += t.busy_seconds;
    timing.idle_seconds += t.idle_seconds;
    if (timing.cell_wall_seconds.size() < t.cell_wall_seconds.size()) {
      timing.cell_wall_seconds.resize(t.cell_wall_seconds.size(), 0.0);
    }
    for (std::size_t c = 0; c < t.cell_wall_seconds.size(); ++c) {
      timing.cell_wall_seconds[c] += t.cell_wall_seconds[c];
    }
  }
  timing.shard_index = 0;
  timing.shard_count = 1;
  return merged;
}

}  // namespace airindex
