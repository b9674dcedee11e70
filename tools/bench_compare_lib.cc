#include "tools/bench_compare_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <utility>

namespace airindex {

namespace {

/// Canonical key for a point: its labels sorted by name, so two reports
/// that emit the same labels in different orders still match.
std::string LabelKey(const BenchPoint& point) {
  std::vector<std::pair<std::string, std::string>> labels = point.labels;
  std::sort(labels.begin(), labels.end());
  std::string key;
  for (const auto& [name, value] : labels) {
    key += name;
    key += '=';
    key += value;
    key += ';';
  }
  return key;
}

std::string FormatValue(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

const BenchMetricValue* FindMetric(const BenchPoint& point,
                                   const std::string& name) {
  for (const auto& [metric_name, metric] : point.metrics) {
    if (metric_name == name) return &metric;
  }
  return nullptr;
}

/// FirstReportDifference below `path`, ignoring the member `skip` of an
/// object at this level (empty skips nothing).
std::optional<std::string> FirstDifference(const JsonValue& a,
                                           const JsonValue& b,
                                           const std::string& path,
                                           std::string_view skip = {}) {
  if (a.kind() != b.kind()) return path;
  switch (a.kind()) {
    case JsonValue::Kind::kNull:
      return std::nullopt;
    case JsonValue::Kind::kBool:
      if (a.bool_value() == b.bool_value()) return std::nullopt;
      return path;
    case JsonValue::Kind::kNumber:
      if (a.is_exact_int() == b.is_exact_int() &&
          (a.is_exact_int() ? a.int_value() == b.int_value()
                            : a.number_value() == b.number_value())) {
        return std::nullopt;
      }
      return path;
    case JsonValue::Kind::kString:
      if (a.string_value() == b.string_value()) return std::nullopt;
      return path;
    case JsonValue::Kind::kArray: {
      const std::size_t common = std::min(a.size(), b.size());
      for (std::size_t i = 0; i < common; ++i) {
        if (std::optional<std::string> diff = FirstDifference(
                a.items()[i], b.items()[i],
                path + "[" + std::to_string(i) + "]")) {
          return diff;
        }
      }
      if (a.size() == b.size()) return std::nullopt;
      return path + "[" + std::to_string(common) + "]";
    }
    case JsonValue::Kind::kObject:
      for (const auto& [key, value] : a.members()) {
        if (key == skip) continue;
        const JsonValue* other = b.Find(key);
        if (other == nullptr) return path + "." + key;
        if (std::optional<std::string> diff =
                FirstDifference(value, *other, path + "." + key)) {
          return diff;
        }
      }
      for (const auto& [key, value] : b.members()) {
        if (key != skip && a.Find(key) == nullptr) return path + "." + key;
      }
      return std::nullopt;
  }
  return path;
}

}  // namespace

std::optional<std::string> FirstReportDifference(const JsonValue& a,
                                                 const JsonValue& b) {
  return FirstDifference(a, b, "$", "timing");
}

CompareResult CompareBenchReports(const BenchReport& baseline,
                                  const BenchReport& candidate,
                                  const CompareOptions& options) {
  CompareResult result;

  if (baseline.bench != candidate.bench) {
    result.failures.push_back("bench name mismatch: baseline '" +
                              baseline.bench + "' vs candidate '" +
                              candidate.bench + "'");
    return result;
  }

  std::vector<std::pair<std::string, const BenchPoint*>> candidate_points;
  for (const BenchPoint& point : candidate.points) {
    candidate_points.emplace_back(LabelKey(point), &point);
  }
  const auto find_candidate = [&](const std::string& key) -> const BenchPoint* {
    for (const auto& [candidate_key, point] : candidate_points) {
      if (candidate_key == key) return point;
    }
    return nullptr;
  };

  std::vector<std::string> matched_keys;
  for (const BenchPoint& base_point : baseline.points) {
    const std::string key = LabelKey(base_point);
    const BenchPoint* cand_point = find_candidate(key);
    if (cand_point == nullptr) {
      result.failures.push_back("point [" + key +
                                "] missing from candidate");
      continue;
    }
    matched_keys.push_back(key);

    for (const auto& [name, base_metric] : base_point.metrics) {
      const BenchMetricValue* cand_metric = FindMetric(*cand_point, name);
      if (cand_metric == nullptr) {
        result.failures.push_back("point [" + key + "] metric '" + name +
                                  "' missing from candidate");
        continue;
      }
      if (base_metric.walltime != cand_metric->walltime) {
        result.failures.push_back("point [" + key + "] metric '" + name +
                                  "' changed kind (walltime vs simulated)");
        continue;
      }
      const double delta = cand_metric->mean - base_metric.mean;
      if (base_metric.walltime) {
        if (options.max_wall_regress_percent < 0.0) {
          result.notes.push_back("point [" + key + "] metric '" + name +
                                 "' is walltime; skipped (no wall budget)");
          continue;
        }
        const double budget = base_metric.mean *
                              options.max_wall_regress_percent / 100.0;
        if (delta > budget) {
          result.failures.push_back(
              "point [" + key + "] metric '" + name + "' wall regression: " +
              FormatValue(base_metric.mean) + " -> " +
              FormatValue(cand_metric->mean) + " (budget +" +
              FormatValue(options.max_wall_regress_percent) + "%)");
        }
        continue;
      }
      // Simulated metric: the two runs agree when the gap is explained by
      // their combined statistical uncertainty.
      const double bound = base_metric.ci_half_width +
                           cand_metric->ci_half_width;
      if (bound > 0.0) {
        if (std::abs(delta) > bound) {
          result.failures.push_back(
              "point [" + key + "] metric '" + name + "' drift: " +
              FormatValue(base_metric.mean) + " -> " +
              FormatValue(cand_metric->mean) + " exceeds CI bound " +
              FormatValue(bound));
        }
      } else {
        const double scale = std::max(std::abs(base_metric.mean), 1e-12);
        if (std::abs(delta) > options.rel_tol * scale) {
          result.failures.push_back(
              "point [" + key + "] metric '" + name + "' drift: " +
              FormatValue(base_metric.mean) + " -> " +
              FormatValue(cand_metric->mean) + " exceeds rel tol " +
              FormatValue(options.rel_tol));
        }
      }
    }
  }

  for (const auto& [key, point] : candidate_points) {
    (void)point;
    if (std::find(matched_keys.begin(), matched_keys.end(), key) ==
        matched_keys.end()) {
      result.notes.push_back("candidate has extra point [" + key + "]");
    }
  }

  if (options.strict_counters) {
    for (const MetricsRegistry::Entry& base_entry :
         baseline.counters.entries()) {
      if (!candidate.counters.Has(base_entry.name)) {
        result.failures.push_back("counter '" + base_entry.name +
                                  "' missing from candidate");
        continue;
      }
      const std::int64_t cand_value =
          candidate.counters.Get(base_entry.name);
      if (cand_value != base_entry.value) {
        result.failures.push_back(
            "counter '" + base_entry.name + "' changed: " +
            std::to_string(base_entry.value) + " -> " +
            std::to_string(cand_value));
      }
    }
    for (const MetricsRegistry::Entry& cand_entry :
         candidate.counters.entries()) {
      if (!baseline.counters.Has(cand_entry.name)) {
        result.failures.push_back("candidate has extra counter '" +
                                  cand_entry.name + "'");
      }
    }

    // Channel accounting of multichannel runs. The hop and dead-air
    // counters are redundant by construction — switch bytes exist only
    // when hops happened and no counter can go negative — so an
    // inconsistent pair in either report is a corrupt report, not drift.
    for (const BenchReport* report : {&baseline, &candidate}) {
      const char* side = report == &baseline ? "baseline" : "candidate";
      const std::int64_t hops = report->counters.Get("client.channel_hops");
      const std::int64_t switch_bytes =
          report->counters.Get("client.switch_bytes");
      if (hops < 0) {
        result.failures.push_back(std::string(side) +
                                  " counter 'client.channel_hops' is "
                                  "negative: " +
                                  std::to_string(hops));
      }
      if (switch_bytes < 0) {
        result.failures.push_back(std::string(side) +
                                  " counter 'client.switch_bytes' is "
                                  "negative: " +
                                  std::to_string(switch_bytes));
      }
      if (hops == 0 && switch_bytes != 0) {
        result.failures.push_back(
            std::string(side) +
            " channel accounting is inconsistent: client.switch_bytes " +
            std::to_string(switch_bytes) + " with zero client.channel_hops");
      }
      for (const MetricsRegistry::Entry& entry : report->counters.entries()) {
        if (entry.name.rfind("client.tuning_bytes_ch", 0) == 0 &&
            entry.value < 0) {
          result.failures.push_back(std::string(side) + " counter '" +
                                    entry.name + "' is negative: " +
                                    std::to_string(entry.value));
        }
      }
    }
    // Session-cache accounting of stateful-client runs. Every session
    // query resolves as exactly one fresh hit or one miss (stale
    // revalidations count as misses), a fresh hit never moves broadcast
    // bytes, and an invalidation is a kind of miss — so a report that
    // violates any of these is corrupt, not drifted.
    for (const BenchReport* report : {&baseline, &candidate}) {
      if (!report->counters.Has("client.session_queries")) continue;
      const char* side = report == &baseline ? "baseline" : "candidate";
      const std::int64_t queries =
          report->counters.Get("client.session_queries");
      const std::int64_t hits = report->counters.Get("client.cache_hits");
      const std::int64_t misses = report->counters.Get("client.cache_misses");
      const std::int64_t invalidations =
          report->counters.Get("client.cache_invalidations");
      for (const char* name :
           {"client.session_queries", "client.cache_hits",
            "client.cache_misses", "client.cache_validation_bytes",
            "client.cache_invalidations", "client.cache_evictions",
            "client.cache_warm_inserts"}) {
        if (report->counters.Get(name) < 0) {
          result.failures.push_back(std::string(side) + " counter '" + name +
                                    "' is negative: " +
                                    std::to_string(report->counters.Get(name)));
        }
      }
      if (hits + misses != queries) {
        result.failures.push_back(
            std::string(side) +
            " session accounting is inconsistent: cache_hits " +
            std::to_string(hits) + " + cache_misses " +
            std::to_string(misses) + " != session_queries " +
            std::to_string(queries));
      }
      if (report->counters.Get("client.cache_hit_bytes") != 0) {
        result.failures.push_back(
            std::string(side) +
            " session accounting is inconsistent: cache_hit_bytes " +
            std::to_string(report->counters.Get("client.cache_hit_bytes")) +
            " != 0 (a fresh hit moves no broadcast bytes)");
      }
      if (invalidations > misses) {
        result.failures.push_back(
            std::string(side) +
            " session accounting is inconsistent: cache_invalidations " +
            std::to_string(invalidations) + " > cache_misses " +
            std::to_string(misses));
      }
    }
    if (baseline.counters.Has("client.session_queries") ||
        candidate.counters.Has("client.session_queries")) {
      result.notes.push_back(
          "session cache: hits " +
          std::to_string(baseline.counters.Get("client.cache_hits")) +
          " -> " +
          std::to_string(candidate.counters.Get("client.cache_hits")) +
          ", invalidations " +
          std::to_string(
              baseline.counters.Get("client.cache_invalidations")) +
          " -> " +
          std::to_string(
              candidate.counters.Get("client.cache_invalidations")));
    }

    // Fleet-population accounting (core/fleet_runner.h). A sweep may mix
    // cache-on and cache-off cells, so the cache counters bound — rather
    // than partition — the query total; everything else mirrors the
    // single-client identities above.
    for (const BenchReport* report : {&baseline, &candidate}) {
      if (!report->counters.Has("fleet.clients")) continue;
      const char* side = report == &baseline ? "baseline" : "candidate";
      for (const MetricsRegistry::Entry& entry : report->counters.entries()) {
        if (entry.name.rfind("fleet.", 0) == 0 && entry.value < 0) {
          result.failures.push_back(std::string(side) + " counter '" +
                                    entry.name + "' is negative: " +
                                    std::to_string(entry.value));
        }
      }
      const std::int64_t queries = report->counters.Get("fleet.queries");
      if (report->counters.Get("fleet.found") > queries) {
        result.failures.push_back(
            std::string(side) +
            " fleet accounting is inconsistent: fleet.found " +
            std::to_string(report->counters.Get("fleet.found")) +
            " > fleet.queries " + std::to_string(queries));
      }
      const std::int64_t fleet_hits =
          report->counters.Get("fleet.cache_hits");
      const std::int64_t fleet_misses =
          report->counters.Get("fleet.cache_misses");
      if (fleet_hits + fleet_misses > queries) {
        result.failures.push_back(
            std::string(side) +
            " fleet accounting is inconsistent: fleet.cache_hits " +
            std::to_string(fleet_hits) + " + fleet.cache_misses " +
            std::to_string(fleet_misses) + " > fleet.queries " +
            std::to_string(queries));
      }
      if (report->counters.Get("fleet.channel_hops") == 0 &&
          report->counters.Get("fleet.switch_bytes") != 0) {
        result.failures.push_back(
            std::string(side) +
            " fleet accounting is inconsistent: fleet.switch_bytes " +
            std::to_string(report->counters.Get("fleet.switch_bytes")) +
            " with zero fleet.channel_hops");
      }
    }
    if (baseline.counters.Has("fleet.clients") ||
        candidate.counters.Has("fleet.clients")) {
      result.notes.push_back(
          "fleet accounting: clients " +
          std::to_string(baseline.counters.Get("fleet.clients")) + " -> " +
          std::to_string(candidate.counters.Get("fleet.clients")) +
          ", cache hits " +
          std::to_string(baseline.counters.Get("fleet.cache_hits")) +
          " -> " +
          std::to_string(candidate.counters.Get("fleet.cache_hits")));
    }

    // Schedule accounting of skew-aware runs (broadcast/schedule.h). The
    // chunked emission guarantees every data slot of the major cycle is a
    // record occurrence (exact per-cycle accounting), and re-tiering
    // moves can only exist once an epoch has closed — a report violating
    // either is corrupt, not drifted. The multichannel placer's rotation
    // search can never do worse than the unrotated baseline it starts
    // from.
    for (const BenchReport* report : {&baseline, &candidate}) {
      const char* side = report == &baseline ? "baseline" : "candidate";
      for (const MetricsRegistry::Entry& entry : report->counters.entries()) {
        if (entry.name.rfind("schedule.", 0) == 0 && entry.value < 0) {
          result.failures.push_back(std::string(side) + " counter '" +
                                    entry.name + "' is negative: " +
                                    std::to_string(entry.value));
        }
      }
      if (report->counters.Has("schedule.data_slots")) {
        const std::int64_t slots =
            report->counters.Get("schedule.data_slots");
        const std::int64_t occurrences =
            report->counters.Get("schedule.occurrences");
        if (occurrences != slots) {
          result.failures.push_back(
              std::string(side) +
              " schedule accounting is inconsistent: schedule.occurrences " +
              std::to_string(occurrences) + " != schedule.data_slots " +
              std::to_string(slots) + " (exact per-cycle accounting)");
        }
        if (report->counters.Get("schedule.retier_epochs") == 0 &&
            report->counters.Get("schedule.retier_moves") != 0) {
          result.failures.push_back(
              std::string(side) +
              " schedule accounting is inconsistent: schedule.retier_moves " +
              std::to_string(report->counters.Get("schedule.retier_moves")) +
              " with zero schedule.retier_epochs");
        }
      }
      if (report->counters.Has("schedule.conflict_pairs") &&
          report->counters.Get("schedule.conflict_collisions") >
              report->counters.Get("schedule.conflict_baseline")) {
        result.failures.push_back(
            std::string(side) +
            " schedule accounting is inconsistent: "
            "schedule.conflict_collisions " +
            std::to_string(
                report->counters.Get("schedule.conflict_collisions")) +
            " > schedule.conflict_baseline " +
            std::to_string(
                report->counters.Get("schedule.conflict_baseline")));
      }
    }
    if (baseline.counters.Has("schedule.data_slots") ||
        candidate.counters.Has("schedule.data_slots")) {
      result.notes.push_back(
          "schedule accounting: data slots " +
          std::to_string(baseline.counters.Get("schedule.data_slots")) +
          " -> " +
          std::to_string(candidate.counters.Get("schedule.data_slots")) +
          ", re-tier moves " +
          std::to_string(baseline.counters.Get("schedule.retier_moves")) +
          " -> " +
          std::to_string(candidate.counters.Get("schedule.retier_moves")));
    }

    // Dynamic-dataset accounting (src/dynamic). Every maintenance cycle
    // is either patched in place or rebuilt by compaction, every
    // mutation is exactly one insert/delete/update, the bucket
    // free-list only recycles slots that deletes freed (and only
    // inserts consume them), and a delta read exists only for a query
    // that observed divergence — so a report violating any of these is
    // corrupt, not drifted. When the stateful client rides on top,
    // every stale read the server accounted is a cache invalidation the
    // client accounted, and vice versa.
    for (const BenchReport* report : {&baseline, &candidate}) {
      if (!report->counters.Has("dynamic.cycles")) continue;
      const char* side = report == &baseline ? "baseline" : "candidate";
      for (const MetricsRegistry::Entry& entry : report->counters.entries()) {
        if (entry.name.rfind("dynamic.", 0) == 0 && entry.value < 0) {
          result.failures.push_back(std::string(side) + " counter '" +
                                    entry.name + "' is negative: " +
                                    std::to_string(entry.value));
        }
      }
      const std::int64_t cycles = report->counters.Get("dynamic.cycles");
      const std::int64_t patched =
          report->counters.Get("dynamic.patched_cycles");
      const std::int64_t rebuilt =
          report->counters.Get("dynamic.rebuilt_cycles");
      if (patched + rebuilt != cycles) {
        result.failures.push_back(
            std::string(side) +
            " dynamic accounting is inconsistent: patched_cycles " +
            std::to_string(patched) + " + rebuilt_cycles " +
            std::to_string(rebuilt) + " != cycles " + std::to_string(cycles));
      }
      const std::int64_t mutations =
          report->counters.Get("dynamic.mutations");
      const std::int64_t inserts = report->counters.Get("dynamic.inserts");
      const std::int64_t deletes = report->counters.Get("dynamic.deletes");
      const std::int64_t updates = report->counters.Get("dynamic.updates");
      if (inserts + deletes + updates != mutations) {
        result.failures.push_back(
            std::string(side) +
            " dynamic accounting is inconsistent: inserts " +
            std::to_string(inserts) + " + deletes " +
            std::to_string(deletes) + " + updates " +
            std::to_string(updates) + " != mutations " +
            std::to_string(mutations));
      }
      const std::int64_t pushes =
          report->counters.Get("dynamic.freelist_pushes");
      const std::int64_t pops =
          report->counters.Get("dynamic.freelist_pops");
      if (pops > pushes) {
        result.failures.push_back(
            std::string(side) +
            " dynamic accounting is inconsistent: freelist_pops " +
            std::to_string(pops) + " > freelist_pushes " +
            std::to_string(pushes));
      }
      if (pushes > deletes) {
        result.failures.push_back(
            std::string(side) +
            " dynamic accounting is inconsistent: freelist_pushes " +
            std::to_string(pushes) + " > deletes " + std::to_string(deletes));
      }
      if (pops > inserts) {
        result.failures.push_back(
            std::string(side) +
            " dynamic accounting is inconsistent: freelist_pops " +
            std::to_string(pops) + " > inserts " + std::to_string(inserts));
      }
      const std::int64_t queries = report->counters.Get("dynamic.queries");
      const std::int64_t dirty =
          report->counters.Get("dynamic.dirty_queries");
      const std::int64_t delta_reads =
          report->counters.Get("dynamic.delta_reads");
      if (dirty > queries) {
        result.failures.push_back(
            std::string(side) +
            " dynamic accounting is inconsistent: dirty_queries " +
            std::to_string(dirty) + " > queries " + std::to_string(queries));
      }
      if (delta_reads > dirty) {
        result.failures.push_back(
            std::string(side) +
            " dynamic accounting is inconsistent: delta_reads " +
            std::to_string(delta_reads) + " > dirty_queries " +
            std::to_string(dirty));
      }
      const std::int64_t delta_bytes =
          report->counters.Get("dynamic.delta_read_bytes");
      if ((delta_bytes == 0) != (delta_reads == 0)) {
        result.failures.push_back(
            std::string(side) +
            " dynamic accounting is inconsistent: delta_read_bytes " +
            std::to_string(delta_bytes) + " with delta_reads " +
            std::to_string(delta_reads));
      }
      const std::int64_t stale_reads =
          report->counters.Get("dynamic.stale_reads");
      if (report->counters.Has("client.session_queries")) {
        const std::int64_t client_invalidations =
            report->counters.Get("client.cache_invalidations");
        if (stale_reads != client_invalidations) {
          result.failures.push_back(
              std::string(side) +
              " dynamic accounting is inconsistent: stale_reads " +
              std::to_string(stale_reads) + " != cache_invalidations " +
              std::to_string(client_invalidations));
        }
      } else if (stale_reads != 0) {
        result.failures.push_back(
            std::string(side) +
            " dynamic accounting is inconsistent: stale_reads " +
            std::to_string(stale_reads) + " without a stateful client");
      }
    }
    if (baseline.counters.Has("dynamic.cycles") ||
        candidate.counters.Has("dynamic.cycles")) {
      result.notes.push_back(
          "dynamic accounting: mutations " +
          std::to_string(baseline.counters.Get("dynamic.mutations")) +
          " -> " +
          std::to_string(candidate.counters.Get("dynamic.mutations")) +
          ", dirty queries " +
          std::to_string(baseline.counters.Get("dynamic.dirty_queries")) +
          " -> " +
          std::to_string(candidate.counters.Get("dynamic.dirty_queries")) +
          ", rebuilt cycles " +
          std::to_string(baseline.counters.Get("dynamic.rebuilt_cycles")) +
          " -> " +
          std::to_string(candidate.counters.Get("dynamic.rebuilt_cycles")));
    }

    if (baseline.counters.Has("client.channel_hops") ||
        candidate.counters.Has("client.channel_hops")) {
      result.notes.push_back(
          "channel accounting: hops " +
          std::to_string(baseline.counters.Get("client.channel_hops")) +
          " -> " +
          std::to_string(candidate.counters.Get("client.channel_hops")) +
          ", switch bytes " +
          std::to_string(baseline.counters.Get("client.switch_bytes")) +
          " -> " +
          std::to_string(candidate.counters.Get("client.switch_bytes")));
    }

    // Scheduler telemetry from the timing block. Speculative discards,
    // reorder-buffer depth and pool idle time vary with machine load and
    // jobs, so they are surfaced as notes, not gated — but the candidate
    // must at least be internally consistent.
    if (candidate.timing.replications_discarded !=
        candidate.timing.replications_run -
            candidate.timing.replications_merged) {
      result.failures.push_back(
          "candidate timing is inconsistent: replications_discarded " +
          std::to_string(candidate.timing.replications_discarded) +
          " != replications_run - replications_merged (" +
          std::to_string(candidate.timing.replications_run) + " - " +
          std::to_string(candidate.timing.replications_merged) + ")");
    }
    result.notes.push_back(
        "scheduler: replications discarded " +
        std::to_string(baseline.timing.replications_discarded) + " -> " +
        std::to_string(candidate.timing.replications_discarded) +
        ", reorder buffer peak " +
        std::to_string(baseline.timing.reorder_buffer_peak) + " -> " +
        std::to_string(candidate.timing.reorder_buffer_peak) +
        ", pool idle " + FormatValue(baseline.timing.idle_seconds) +
        "s -> " + FormatValue(candidate.timing.idle_seconds) + "s");
  }

  if (options.max_wall_regress_percent >= 0.0 &&
      baseline.timing.wall_seconds > 0.0) {
    const double budget = baseline.timing.wall_seconds *
                          (1.0 + options.max_wall_regress_percent / 100.0);
    if (candidate.timing.wall_seconds > budget) {
      result.failures.push_back(
          "run wall time regression: " +
          FormatValue(baseline.timing.wall_seconds) + "s -> " +
          FormatValue(candidate.timing.wall_seconds) + "s (budget +" +
          FormatValue(options.max_wall_regress_percent) + "%)");
    }
  }

  return result;
}

}  // namespace airindex
