// Stateful-client cache sweep: steady-state hit ratio, access time and
// tuning time versus cache size x Zipf skew x server update rate, for
// the three eviction policies of client/client_cache.h (LRU, LFU, PIX)
// in front of the (1,m) indexing scheme — simulated "(S)" next to the
// closed-form client model "(A)" of analytical/client_model.h. Under a
// single-frequency broadcast like (1,m) PIX degenerates to LFU by
// design (every record is broadcast once per cycle); the policies
// separate under broadcast disks (see tests/client_cache_test.cc).
//
// Clients run sessions of 8 Zipf queries with repeat probability 0.25;
// each replication warms its cache before measuring, so the simulated
// point is the steady state the model describes. update_rate > 0 cells
// run the real mutation engine (src/dynamic): cached entries validate
// against MutationLog versions, and deletes shave the live fraction off
// the effective availability (see analytical/dynamic_model.h).
//
// Usage: fig_client_cache [--quick] [--csv] [--jobs N] [--records N]
//                         [--session-length K] [--repeat-prob P]
//                         [--cache-warmup N] [--program-cache DIR]
//                         [--json PATH] [--shard I/N]
// (shared bench flags — see bench/bench_main.h. Cache size, skew, update
// rate and policy are this bench's sweep axes; any other shared flag
// exits 2. With --shard the JSON output is a partial report for
// tools/bench_merge.)

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "analytical/client_model.h"
#include "analytical/dynamic_model.h"
#include "analytical/models.h"
#include "bench_main.h"
#include "client/client_cache.h"
#include "core/report.h"
#include "core/testbed_config.h"

namespace airindex {
namespace {

constexpr CachePolicy kPolicies[] = {CachePolicy::kLru, CachePolicy::kLfu,
                                     CachePolicy::kPix};

/// Fresh-hit ratio as a binomial proportion with a 99% half-width
/// (z = 2.576) — evaluated by core/shard.h's BinomialRatioMetric, the
/// same code bench_merge replays, so a sharded run's merged hit_ratio is
/// bit-identical to this bench's.
const DerivedMetricSpec kHitRatioSpec{"hit_ratio", "client.cache_hits",
                                      "client.session_queries", 2.576};

/// Closed-form estimate for one cell. Under (1,m) every record is
/// broadcast once per cycle, so the PIX score has a uniform denominator
/// and its residency equals LFU's.
ClientSessionEstimate CellModel(const TestbedConfig& config,
                                Bytes cycle_bytes) {
  const int cache_size = config.client.cache_capacity;
  const double update_rate = config.client.update_rate;
  const std::vector<double> popularity =
      ZipfPopularity(config.num_records, config.zipf_theta);
  const std::vector<double> residency =
      config.client.cache_policy == CachePolicy::kLru
          ? CheLruResidency(popularity, cache_size)
          : TopScoreResidency(popularity, cache_size);

  ClientSessionModelInputs inputs;
  inputs.popularity = popularity;
  inputs.residency = residency;
  double availability = config.data_availability;
  if (update_rate > 0.0) {
    // Real-mutation semantics (src/dynamic): every cycle issues
    // rate * N uniform draws, so a record is hit with probability
    // t = 1 - (1 - 1/N)^(rate * N) per cycle — an effective per-record
    // update period of cycle_bytes / t. Deletes (a fixed fraction of
    // hits) shave the live fraction off availability: a dead record's
    // refetch fails, so its cached copy drops until a re-insert.
    const double n = static_cast<double>(config.num_records);
    const double hit_probability =
        1.0 - std::pow(1.0 - 1.0 / n, update_rate * n);
    const auto period = static_cast<Bytes>(std::llround(
        static_cast<double>(cycle_bytes) / hit_probability));
    DynamicModelParams dynamic;
    dynamic.universe_size = config.num_records;
    dynamic.update_rate = update_rate;
    dynamic.update_zipf = config.client.update_zipf;
    dynamic.compact_every = config.client.compact_every;
    dynamic.patchable = true;  // (1,m) is the patchable family
    dynamic.workload_zipf = config.zipf_theta;
    dynamic.epochs = 64;  // transient-aware window, near steady state
    availability *= EvaluateDynamicModel(dynamic).live_fraction;
    inputs.freshness =
        SteadyStateFreshness(popularity, availability,
                             config.mean_request_interval_bytes, period);
    inputs.repeat_freshness =
        RepeatFreshness(config.mean_request_interval_bytes, period);
    inputs.validation_bytes =
        static_cast<double>(config.geometry.signature_bytes);
  }
  inputs.availability = availability;
  inputs.session_length = config.client.session_length;
  inputs.repeat_probability = config.client.repeat_probability;
  const AnalyticalEstimate base = OneMModelExact(
      config.num_records, config.geometry,
      OneMOptimalMExact(config.num_records, config.geometry));
  inputs.miss_access_bytes = base.access_time;
  inputs.miss_tuning_bytes = base.tuning_time;
  return ComposeClientSessionModel(inputs);
}

void Print(const std::vector<SweepCell>& cells, const SweepResults& results,
           const RunTiming& /*timing*/, bool csv) {
  const ClientSessionConfig& first_client = cells.front().config.client;
  std::cout << "Client cache: hit ratio / access / tuning vs cache size, "
               "Zipf skew and update rate\n"
            << cells.front().config.num_records
            << " records, (1,m) indexing, sessions of "
            << first_client.session_length << " queries, repeat probability "
            << first_client.repeat_probability
            << ", Table 1 settings otherwise\n";
  std::vector<std::string> columns = {"size", "theta", "upd"};
  for (const CachePolicy policy : kPolicies) {
    columns.push_back(std::string(CachePolicyToString(policy)) + " (S)");
    columns.push_back(std::string(CachePolicyToString(policy)) + " (A)");
  }
  ReportTable hit_table(columns);
  ReportTable access_table(columns);
  ReportTable tuning_table(columns);
  for (std::size_t first = 0; first < cells.size();
       first += std::size(kPolicies)) {
    const TestbedConfig& head = cells[first].config;
    const std::vector<std::string> row_head = {
        std::to_string(head.client.cache_capacity),
        FormatG(head.zipf_theta), FormatG(head.client.update_rate)};
    std::vector<std::string> hit_row = row_head;
    std::vector<std::string> access_row = row_head;
    std::vector<std::string> tuning_row = row_head;
    for (std::size_t i = first; i < first + std::size(kPolicies); ++i) {
      const SimulationResult& sim = results[i];
      // A shard that owns none of this cell never built its channel
      // (cycle_bytes 0); skip the closed form rather than feed it a
      // zero-length cycle.
      const ClientSessionEstimate model =
          sim.cycle_bytes > 0 ? CellModel(cells[i].config, sim.cycle_bytes)
                              : ClientSessionEstimate{};
      hit_row.push_back(FormatDouble(
          BinomialRatioMetric(sim.metrics, kHitRatioSpec).mean, 3));
      hit_row.push_back(FormatDouble(model.hit_ratio, 3));
      access_row.push_back(FormatDouble(sim.access.mean(), 0));
      access_row.push_back(FormatDouble(model.access_bytes, 0));
      tuning_row.push_back(FormatDouble(sim.tuning.mean(), 0));
      tuning_row.push_back(FormatDouble(model.tuning_bytes, 0));
    }
    hit_table.AddRow(hit_row);
    access_table.AddRow(access_row);
    tuning_table.AddRow(tuning_row);
  }
  std::cout << "\n(a) Fresh-hit ratio vs cache size / skew / update rate\n";
  PrintTable(hit_table, csv);
  std::cout << "\n(b) Access time (bytes)\n";
  PrintTable(access_table, csv);
  std::cout << "\n(c) Tuning time (bytes)\n";
  PrintTable(tuning_table, csv);
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  const int num_records = options.records > 0 ? options.records : 4000;
  const std::vector<int> cache_sizes = options.quick
                                           ? std::vector<int>{64, 256}
                                           : std::vector<int>{32, 128, 512};
  const std::vector<double> thetas = options.quick
                                         ? std::vector<double>{0.9}
                                         : std::vector<double>{0.6, 0.9, 1.2};
  const std::vector<double> update_rates = {0.0, 4.0};
  const int session_length = options.given("--session-length")
                                 ? options.client.session_length
                                 : 8;
  const double repeat_probability = options.given("--repeat-prob")
                                        ? options.client.repeat_probability
                                        : 0.25;

  SweepBench bench{
      .name = "fig_client_cache",
      .applied = {"--session-length", "--repeat-prob", "--cache-warmup",
                  "--program-cache", "--shard"},
      .config = {{"records", std::to_string(num_records)},
                 {"session_length", std::to_string(session_length)},
                 {"repeat_probability", FormatG(repeat_probability)}}};
  for (const int size : cache_sizes) {
    for (const double theta : thetas) {
      for (const double rate : update_rates) {
        for (const CachePolicy policy : kPolicies) {
          TestbedConfig config;
          config.scheme = SchemeKind::kOneM;
          config.num_records = num_records;
          config.zipf_theta = theta;
          config.client.cache_capacity = size;
          config.client.cache_policy = policy;
          config.client.session_length = session_length;
          config.client.repeat_probability = repeat_probability;
          config.client.update_rate = rate;
          config.client.warmup_queries =
              options.given("--cache-warmup")
                  ? options.client.warmup_queries
                  : std::max(1000, 4 * size);
          config.seed = 777 + static_cast<std::uint64_t>(num_records);
          config.program_cache_dir = options.program_cache_dir;
          ApplyQuickRounds(options, &config);
          // Binomial 99% half-width, so cross-machine drift in the hit
          // counters stays inside the bench_compare gate's CI-sum check.
          bench.cells.push_back({config,
                                 {{"cache_size", std::to_string(size)},
                                  {"zipf_theta", FormatG(theta)},
                                  {"update_rate", FormatG(rate)},
                                  {"policy", CachePolicyToString(policy)}},
                                 {kHitRatioSpec}});
        }
      }
    }
  }
  bench.print = Print;
  return SweepMain(options, bench);
}

}  // namespace
}  // namespace airindex

int main(int argc, char** argv) { return airindex::Main(argc, argv); }
