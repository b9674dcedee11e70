// Reproduces Figure 4 of the paper: access time (a) and tuning time (b)
// versus the number of broadcast data records, for flat broadcast,
// distributed indexing, simple hashing and signature indexing — both the
// simulated series "(S)" and the analytical series "(A)".
//
// Usage: fig4_schemes_vs_records [--quick] [--csv] [--jobs N]
//                                [--records N] [--json PATH] [--shard I/N]
// (shared bench flags — see bench/bench_main.h; with --shard the JSON
// output is a partial report for tools/bench_merge).

#include <iostream>
#include <string>
#include <vector>

#include "analytical/models.h"
#include "bench_main.h"
#include "core/experiment.h"
#include "core/report.h"
#include "core/simulator.h"
#include "core/testbed_config.h"

namespace airindex {
namespace {

struct SchemeUnderTest {
  SchemeKind kind;
  const char* label;
};

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  const bool quick = options.quick;
  const bool csv = options.csv;

  // The 2000/5000 points sit either side of 17^3 = 4913 records, where
  // the index tree gains a level — the single step the paper observes in
  // distributed indexing's tuning time "somewhere between 5000 and 10000
  // data records".
  std::vector<int> record_counts =
      quick ? std::vector<int>{7000, 16000, 25000}
            : std::vector<int>{2000, 5000, 7000, 11500, 16000, 20500, 25000,
                               29500, 34000};
  if (options.records > 0) record_counts = {options.records};
  const std::vector<SchemeUnderTest> schemes = {
      {SchemeKind::kFlat, "flat"},
      {SchemeKind::kDistributed, "distributed"},
      {SchemeKind::kHashing, "hashing"},
      {SchemeKind::kSignature, "signature"},
  };

  std::vector<std::string> columns = {"records"};
  for (const auto& scheme : schemes) {
    columns.push_back(std::string(scheme.label) + " (S)");
    columns.push_back(std::string(scheme.label) + " (A)");
  }
  ReportTable access_table(columns);
  ReportTable tuning_table(columns);
  std::vector<std::string> throughput_columns = {"records"};
  for (const auto& scheme : schemes) throughput_columns.push_back(scheme.label);
  ReportTable throughput_table(throughput_columns);

  BenchReporter reporter("fig4_schemes_vs_records", options);
  reporter.SetShard(options.shard);
  {
    std::string counts;
    for (const int n : record_counts) {
      if (!counts.empty()) counts += ",";
      counts += std::to_string(n);
    }
    reporter.AddConfig("record_counts", counts);
  }

  std::cout << "Figure 4: access/tuning time vs number of data records\n"
            << "Table 1 settings: 500 B records, 25 B keys, availability "
               "100%, exponential arrivals, confidence 0.99 / accuracy 0.01\n"
            << std::flush;

  // Build the whole grid, then run it as one parallel sweep.
  std::vector<TestbedConfig> configs;
  for (const int num_records : record_counts) {
    for (const auto& scheme : schemes) {
      TestbedConfig config;
      config.scheme = scheme.kind;
      config.num_records = num_records;
      config.seed = 42 + static_cast<std::uint64_t>(num_records);
      ApplyMultiChannelOptions(options, &config);
      ApplyWorkloadOptions(options, &config);
      if (quick) {
        config.min_rounds = 10;
        config.max_rounds = 40;
      }
      configs.push_back(config);
    }
  }
  ParallelExperiment experiment(
      {.jobs = options.jobs, .shard = options.shard});
  const auto runs = experiment.RunSweep(configs);

  std::size_t index = 0;
  for (const int num_records : record_counts) {
    std::vector<std::string> access_row = {std::to_string(num_records)};
    std::vector<std::string> tuning_row = {std::to_string(num_records)};
    std::vector<std::string> throughput_row = {std::to_string(num_records)};
    for (const auto& scheme : schemes) {
      const std::size_t cell = index;
      TestbedConfig config = configs[index];
      const Result<SimulationResult>& run = runs[index++];
      if (!run.ok()) {
        std::cerr << "simulation failed: " << run.status().ToString() << "\n";
        return 1;
      }
      const SimulationResult& sim = run.value();
      reporter.AddSimulationPoint(
          {{"records", std::to_string(num_records)}, {"scheme", scheme.label}},
          sim);
      if (options.shard.active()) {
        reporter.AttachShardCell(experiment.shard_cells()[cell]);
      }

      AnalyticalEstimate model;
      switch (scheme.kind) {
        case SchemeKind::kFlat:
          model = FlatModel(num_records, config.geometry);
          break;
        case SchemeKind::kDistributed:
          model = DistributedModelExact(
              num_records, config.geometry,
              DistributedOptimalRExact(num_records, config.geometry));
          break;
        case SchemeKind::kHashing: {
          const int allocated = num_records;  // Na = Nr at factor 1.0
          model = HashingModel(
              num_records, allocated,
              static_cast<int>(
                  ExpectedHashCollisions(num_records, allocated)),
              config.geometry);
          break;
        }
        case SchemeKind::kSignature:
          model = SignatureModel(
              num_records, config.geometry,
              TheoreticalFalseDropRate(config.geometry,
                                       config.params
                                           .signature_bits_per_attribute,
                                       config.num_attributes));
          break;
        default:
          break;
      }
      access_row.push_back(FormatDouble(sim.access.mean(), 0));
      access_row.push_back(FormatDouble(model.access_time, 0));
      tuning_row.push_back(FormatDouble(sim.tuning.mean(), 0));
      tuning_row.push_back(FormatDouble(model.tuning_time, 0));
      const double cell_wall = experiment.timing().cell_wall_seconds[cell];
      throughput_row.push_back(
          cell_wall > 0.0
              ? FormatDouble(static_cast<double>(sim.requests) / cell_wall, 0)
              : "-");
      if (sim.anomalies != 0 || sim.outcome_mismatches != 0) {
        std::cerr << "WARNING: " << scheme.label << " at " << num_records
                  << " records: " << sim.anomalies << " anomalies, "
                  << sim.outcome_mismatches << " outcome mismatches\n";
      }
    }
    access_table.AddRow(access_row);
    tuning_table.AddRow(tuning_row);
    throughput_table.AddRow(throughput_row);
  }

  std::cout << "\n(a) Access time (bytes) vs number of data records\n";
  csv ? access_table.PrintCsv(std::cout) : access_table.Print(std::cout);
  std::cout << "\n(b) Tuning time (bytes) vs number of data records\n";
  csv ? tuning_table.PrintCsv(std::cout) : tuning_table.Print(std::cout);
  std::cout << "\n(c) Merged requests per second of each cell's wall time "
               "(wall-clock, console only)\n";
  csv ? throughput_table.PrintCsv(std::cout)
      : throughput_table.Print(std::cout);
  std::cout << '\n';
  PrintTimingSummary(std::cout, experiment.timing());
  PrintProgramCacheSummary(experiment.program_cache(), options.shard);
  if (Status s = reporter.Finish(experiment.timing()); !s.ok()) {
    std::cerr << "json report failed: " << s.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace airindex

int main(int argc, char** argv) { return airindex::Main(argc, argv); }
