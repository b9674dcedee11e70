// Fleet-population sweep: access/tuning percentiles, hit ratio and
// clients-per-second versus population size x cache capacity, for N
// clients sharing ONE (1,m) broadcast cycle through the batched
// struct-of-arrays engine (client/fleet.h + core/fleet_runner.h).
//
// Where the single-client benches report Student-t means over
// replications, the fleet engine reports the population distribution:
// p50/p95/p99 of per-query access and tuning time, and the fleet-wide
// cache-hit distribution. The "(A)" column next to the simulated access
// percentiles is the closed-form trapezoid quantile of
// analytical/models.h (OneMFleetAccessQuantile), mixed with the
// observed fresh-hit mass F when the cache is on: a fresh hit costs 0
// bytes, so model(q) = 0 for q <= F and the miss quantile at
// (q - F) / (1 - F) above it.
//
// Arrivals are spread over several broadcast cycles (10 MB mean
// inter-arrival against a ~2.5 MB cycle at the default 4000 records) so
// each query's tune-in phase is effectively uniform — the regime the
// closed form assumes.
//
// Usage: fig_fleet [--quick] [--csv] [--jobs N] [--records N]
//                  [--fleet-size N] [--cache-size C] [--zipf T]
//                  [--session-length K] [--repeat-prob P] [--channels N]
//                  [--switch-cost B] [--allocation S]
//                  [--program-cache DIR] [--json PATH]
// (shared bench flags — see bench/bench_main.h. --fleet-size and
// --cache-size replace the bench's size x cache grid with a single
// cell; --fleet-size 0 keeps the size grid. Any other shared flag exits
// 2 (CheckUnappliedFlags): the fleet's cache is top-score residency and
// reads no --cache-policy, the engine rejects --update-rate and
// --cache-warmup, the driver runs the flat (1,m) layout with no
// --scheduler, and the fleet engine shards its population internally,
// so --shard would nest two meanings.)

#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "analytical/models.h"
#include "bench_main.h"
#include "core/fleet_runner.h"
#include "core/report.h"
#include "core/testbed_config.h"

namespace airindex {
namespace {

constexpr double kQuantiles[] = {0.5, 0.95, 0.99};
const char* const kQuantileNames[] = {"p50", "p95", "p99"};

struct SweepCell {
  std::int64_t fleet_size = 0;
  int cache_size = 0;
};

/// Trapezoid access quantile with the observed fresh-hit mass mixed in
/// at zero bytes (fresh hits skip the broadcast entirely).
double ModelAccessQuantile(const TestbedConfig& config, int m, double q,
                           double hit_ratio) {
  if (q <= hit_ratio) return 0.0;
  const double miss_q = (q - hit_ratio) / (1.0 - hit_ratio);
  return OneMFleetAccessQuantile(config.num_records, config.geometry, m,
                                 miss_q);
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  if (!CheckUnappliedFlags(
          options, "fig_fleet",
          {"--channels", "--switch-cost", "--allocation", "--zipf",
           "--cache-size", "--session-length", "--repeat-prob",
           "--fleet-size", "--program-cache"})) {
    return 2;
  }
  const bool quick = options.quick;
  const bool csv = options.csv;

  const int num_records = options.records > 0 ? options.records : 4000;
  const std::vector<std::int64_t> fleet_sizes =
      options.fleet_size > 0
          ? std::vector<std::int64_t>{options.fleet_size}
          : quick ? std::vector<std::int64_t>{2000, 20000}
                  : std::vector<std::int64_t>{100000, 1000000};
  const std::vector<int> cache_sizes =
      options.given("--cache-size")
          ? std::vector<int>{options.client.cache_capacity}
          : std::vector<int>{0, 64};
  const double zipf_theta =
      options.given("--zipf") ? options.zipf_theta : 0.9;
  const int session_length = options.given("--session-length")
                                 ? options.client.session_length
                                 : 4;
  const double repeat_probability = options.given("--repeat-prob")
                                        ? options.client.repeat_probability
                                        : 0.25;
  const int queries_per_client = 8;

  std::vector<SweepCell> cells;
  for (const std::int64_t size : fleet_sizes) {
    for (const int cache : cache_sizes) {
      cells.push_back(SweepCell{size, cache});
    }
  }

  BenchReporter reporter("fig_fleet", options);
  reporter.AddConfig("records", std::to_string(num_records));
  reporter.AddConfig("queries_per_client",
                     std::to_string(queries_per_client));
  reporter.AddConfig("zipf_theta", FormatG(zipf_theta));
  reporter.AddConfig("session_length", std::to_string(session_length));
  reporter.AddConfig("repeat_probability", FormatG(repeat_probability));

  std::cout << "Fleet population: access/tuning percentiles vs fleet size "
               "and cache capacity\n"
            << num_records << " records, (1,m) indexing, "
            << queries_per_client << " queries per client, sessions of "
            << session_length << " queries, repeat probability "
            << repeat_probability << ", Zipf(" << zipf_theta << ")\n"
            << std::flush;

  std::vector<std::string> access_columns = {"fleet", "cache"};
  for (const char* const name : kQuantileNames) {
    access_columns.push_back(std::string(name) + " (S)");
    access_columns.push_back(std::string(name) + " (A)");
  }
  ReportTable access_table(access_columns);
  ReportTable tuning_table(
      {"fleet", "cache", "p50 (S)", "p95 (S)", "p99 (S)", "mean (S)"});
  ReportTable throughput_table({"fleet", "cache", "hit ratio", "wakeups",
                                "peak batch", "clients/s"});

  FleetExperiment experiment({.jobs = options.jobs});
  double wall_before = 0.0;
  for (const SweepCell& cell : cells) {
    TestbedConfig config;
    config.scheme = SchemeKind::kOneM;
    config.num_records = num_records;
    config.zipf_theta = zipf_theta;
    config.client.cache_capacity = cell.cache_size;
    config.client.session_length = session_length;
    config.client.repeat_probability = repeat_probability;
    // Spread arrivals over ~4 broadcast cycles so tune-in phases are
    // uniform (the closed-form quantile's assumption).
    config.mean_request_interval_bytes = 10'000'000.0;
    config.seed = 4242;
    ApplyMultiChannelOptions(options, &config);

    FleetOptions fleet_options;
    fleet_options.fleet_size = cell.fleet_size;
    fleet_options.queries_per_client = queries_per_client;

    const auto run = experiment.Run(config, fleet_options);
    if (!run.ok()) {
      std::cerr << "fleet run failed: " << run.status().ToString() << "\n";
      return 1;
    }
    const FleetRunResult& result = run.value();
    const FleetShardResult& totals = result.totals;
    const double cell_wall = experiment.timing().wall_seconds - wall_before;
    wall_before = experiment.timing().wall_seconds;

    const auto queries = static_cast<double>(totals.queries);
    const double hit_ratio =
        queries > 0.0 ? static_cast<double>(totals.cache_hits) / queries
                      : 0.0;
    const int m = OneMOptimalMExact(num_records, config.geometry);

    BenchPoint point;
    point.labels = {{"fleet_size", std::to_string(cell.fleet_size)},
                    {"cache_size", std::to_string(cell.cache_size)}};
    point.replications = static_cast<int>(
        result.metrics.Get("fleet.shards"));
    point.requests = totals.queries;

    std::vector<std::string> access_row = {
        std::to_string(cell.fleet_size), std::to_string(cell.cache_size)};
    std::vector<std::string> tuning_row = access_row;
    std::vector<std::string> throughput_row = access_row;
    for (int qi = 0; qi < 3; ++qi) {
      const double q = kQuantiles[qi];
      const auto access_q =
          static_cast<double>(totals.access_histogram.Quantile(q));
      const auto tuning_q =
          static_cast<double>(totals.tuning_histogram.Quantile(q));
      const double model_q = ModelAccessQuantile(config, m, q, hit_ratio);
      access_row.push_back(FormatDouble(access_q, 0));
      access_row.push_back(FormatDouble(model_q, 0));
      tuning_row.push_back(FormatDouble(tuning_q, 0));
      // The histogram resolves ~1/16 of a power of two; a half-width of
      // value/16 keeps cross-machine (and cross-seed-schedule) drift of
      // a bucket boundary inside the bench_compare gate.
      point.metrics.emplace_back(
          std::string("access_") + kQuantileNames[qi],
          BenchMetricValue{access_q, access_q / 16.0, false});
      point.metrics.emplace_back(
          std::string("tuning_") + kQuantileNames[qi],
          BenchMetricValue{tuning_q, tuning_q / 16.0, false});
    }
    const double access_mean =
        queries > 0.0 ? static_cast<double>(totals.access_bytes) / queries
                      : 0.0;
    const double tuning_mean =
        queries > 0.0 ? static_cast<double>(totals.tuning_bytes) / queries
                      : 0.0;
    tuning_row.push_back(FormatDouble(tuning_mean, 0));
    point.metrics.emplace_back(
        "access_bytes", BenchMetricValue{access_mean, access_mean / 100.0,
                                         false});
    point.metrics.emplace_back(
        "tuning_bytes", BenchMetricValue{tuning_mean, tuning_mean / 100.0,
                                         false});
    if (cell.cache_size > 0) {
      const double hit_half_width =
          queries > 0.0 ? 2.576 * std::sqrt(std::max(
                              0.0,
                              hit_ratio * (1.0 - hit_ratio) / queries))
                        : 0.0;
      point.metrics.emplace_back(
          "hit_ratio", BenchMetricValue{hit_ratio, hit_half_width, false});
    }
    // Counter totals only: the registry's percentile gauges are
    // per-cell values and live in the point metrics above.
    MetricsRegistry counters;
    for (const MetricsRegistry::Entry& entry : result.metrics.entries()) {
      if (entry.kind == MetricsRegistry::Kind::kCounter) {
        counters.Increment(entry.name, entry.value);
      }
    }
    reporter.MergeCounters(counters);
    reporter.AddPoint(std::move(point));

    throughput_row.push_back(FormatDouble(hit_ratio, 3));
    throughput_row.push_back(std::to_string(totals.wake_events));
    throughput_row.push_back(std::to_string(totals.wake_batch_peak));
    throughput_row.push_back(
        cell_wall > 0.0
            ? FormatDouble(static_cast<double>(cell.fleet_size) / cell_wall,
                           0)
            : "-");
    access_table.AddRow(access_row);
    tuning_table.AddRow(tuning_row);
    throughput_table.AddRow(throughput_row);
  }

  std::cout << "\n(a) Access time percentiles (bytes), simulated (S) vs "
               "trapezoid model (A)\n";
  PrintTable(access_table, csv);
  std::cout << "\n(b) Tuning time percentiles (bytes)\n";
  PrintTable(tuning_table, csv);
  std::cout << "\n(c) Hit ratio and engine throughput (clients/s is "
               "wall-clock, console only)\n";
  PrintTable(throughput_table, csv);
  std::cout << '\n';
  PrintTimingSummary(std::cout, experiment.timing());
  PrintProgramCacheSummary(experiment.program_cache());
  if (Status s = reporter.Finish(experiment.timing()); !s.ok()) {
    std::cerr << "json report failed: " << s.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace airindex

int main(int argc, char** argv) { return airindex::Main(argc, argv); }
