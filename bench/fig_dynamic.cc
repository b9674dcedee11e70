// Dynamic-dataset sweep: staleness, delta-read overhead and maintenance
// effort versus update rate x compaction period x scheme family, for one
// patchable scheme ((1,m) indexing — B+-family node patching with the
// bucket free-list) and one delta scheme (hashing — delta buckets
// appended until compaction). Simulated stale/delta ratios "(S)" are
// printed next to the closed-form staleness model "(A)" of
// analytical/dynamic_model.h, and each row reports how the maintenance
// cycles split between in-place patches and full rebuilds.
//
// Usage: fig_dynamic [--quick] [--csv] [--jobs N] [--records N]
//                    [--program-cache DIR] [--json PATH] [--shard I/N]
// (shared bench flags — see bench/bench_main.h. Update rate, compaction
// period and scheme are this bench's sweep axes and the skews are fixed;
// any other shared flag exits 2. With --shard the JSON output is a
// partial for tools/bench_merge.)

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "analytical/dynamic_model.h"
#include "bench_main.h"
#include "core/report.h"
#include "core/testbed_config.h"
#include "dynamic/dynamic_program.h"

namespace airindex {
namespace {

constexpr SchemeKind kSchemes[] = {SchemeKind::kOneM, SchemeKind::kHashing};
constexpr double kUpdateZipf = 0.7;
constexpr double kWorkloadZipf = 0.9;

/// Stale-read ratio as a binomial proportion with a 99% half-width —
/// evaluated by core/shard.h's BinomialRatioMetric, the same code
/// bench_merge replays, so a sharded run's merged stale_ratio is
/// bit-identical to this bench's.
const DerivedMetricSpec kStaleRatioSpec{"stale_ratio",
                                        "dynamic.dirty_queries",
                                        "dynamic.queries", 2.576};

void Print(const std::vector<SweepCell>& cells, const SweepResults& results,
           const RunTiming& /*timing*/, bool csv) {
  std::cout << "Dynamic datasets: staleness / delta overhead / maintenance "
               "vs update rate and compaction period\n"
            << cells.front().config.num_records << " records, Zipf("
            << kWorkloadZipf << ") workload, Zipf(" << kUpdateZipf
            << ") mutation targets, Table 1 settings otherwise\n";
  ReportTable table({"scheme", "rate", "compact", "access", "tuning",
                     "stale (S)", "stale (A)", "delta (S)", "delta (A)",
                     "patched", "rebuilt"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const TestbedConfig& config = cells[i].config;
    const ClientSessionConfig& client = config.client;
    const SimulationResult& sim = results[i];
    const bool dynamic_cell = client.update_rate > 0.0;
    const BenchMetricValue stale =
        dynamic_cell ? BinomialRatioMetric(sim.metrics, kStaleRatioSpec)
                     : BenchMetricValue{};
    const std::int64_t queries = sim.metrics.Get("dynamic.queries");
    const double delta_ratio =
        queries > 0 ? static_cast<double>(sim.metrics.Get(
                          "dynamic.delta_reads")) /
                          static_cast<double>(queries)
                    : 0.0;
    // Print-only closed form; a shard that owns none of this cell never
    // ran it (rounds 0), so there is no epoch count to model against.
    DynamicModelResult model{};
    if (dynamic_cell && sim.rounds > 0) {
      DynamicModelParams params;
      params.universe_size = config.num_records;
      params.update_rate = client.update_rate;
      params.update_zipf = kUpdateZipf;
      params.compact_every = client.compact_every;
      params.patchable = DynamicRuntime::PatchableScheme(config.scheme);
      params.workload_zipf = kWorkloadZipf;
      params.data_availability = config.data_availability;
      params.epochs = static_cast<std::int64_t>(std::llround(
          static_cast<double>(sim.metrics.Get("dynamic.cycles")) /
          static_cast<double>(sim.rounds)));
      model = EvaluateDynamicModel(params);
    }
    table.AddRow({SchemeKindToString(config.scheme),
                  FormatG(client.update_rate),
                  std::to_string(client.compact_every),
                  FormatDouble(sim.access.mean(), 0),
                  FormatDouble(sim.tuning.mean(), 0),
                  FormatDouble(stale.mean, 3),
                  FormatDouble(model.dirty_probability, 3),
                  FormatDouble(delta_ratio, 3),
                  FormatDouble(model.delta_read_probability, 3),
                  std::to_string(sim.metrics.Get("dynamic.patched_cycles")),
                  std::to_string(sim.metrics.Get("dynamic.rebuilt_cycles"))});
  }
  std::cout << "\nStaleness, delta reads and maintenance split\n";
  PrintTable(table, csv);
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  const int num_records = options.records > 0 ? options.records : 2000;
  const std::vector<double> update_rates =
      options.quick ? std::vector<double>{4.0} : std::vector<double>{1.0, 4.0};
  const std::vector<int> compact_everys =
      options.quick ? std::vector<int>{4} : std::vector<int>{4, 16};

  SweepBench bench{.name = "fig_dynamic",
                   .applied = {"--program-cache", "--shard"},
                   .config = {{"records", std::to_string(num_records)},
                              {"update_zipf", FormatG(kUpdateZipf)},
                              {"zipf_theta", FormatG(kWorkloadZipf)}}};
  const auto add_cell = [&](SchemeKind scheme, double rate, int compact) {
    TestbedConfig config;
    config.scheme = scheme;
    config.num_records = num_records;
    config.zipf_theta = kWorkloadZipf;
    config.client.update_rate = rate;
    config.client.update_zipf = kUpdateZipf;
    config.client.compact_every = compact;
    config.seed = 4242 + static_cast<std::uint64_t>(num_records);
    config.program_cache_dir = options.program_cache_dir;
    ApplyQuickRounds(options, &config);
    // Binomial 99% half-width, so cross-machine drift in the dirty
    // counters stays inside the bench_compare gate's CI-sum check.
    std::vector<DerivedMetricSpec> ratios;
    if (rate > 0.0) ratios.push_back(kStaleRatioSpec);
    bench.cells.push_back({config,
                           {{"scheme", SchemeKindToString(scheme)},
                            {"update_rate", FormatG(rate)},
                            {"compact_every", std::to_string(compact)}},
                           ratios});
  };
  // One frozen cell per scheme (rate 0, compaction moot) anchors the
  // sweep: it must match the static testbed exactly, since rate 0
  // bypasses the dynamic layer entirely.
  for (const SchemeKind scheme : kSchemes) {
    add_cell(scheme, 0.0, 0);
    for (const double rate : update_rates) {
      for (const int compact : compact_everys) add_cell(scheme, rate, compact);
    }
  }
  bench.print = Print;
  return SweepMain(options, bench);
}

}  // namespace
}  // namespace airindex

int main(int argc, char** argv) { return airindex::Main(argc, argv); }
