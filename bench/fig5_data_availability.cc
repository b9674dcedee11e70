// Reproduces Figure 5 of the paper: access time (a) and tuning time (b)
// versus data availability (the probability that a requested key is on
// the broadcast), for plain broadcast, signature indexing, (1,m)
// indexing, distributed indexing and simple hashing.
//
// The paper omits plain (flat) broadcast from the tuning panel because
// its tuning time dwarfs every scheme's; we print it in the access panel
// only, exactly as the paper plots it.
//
// Usage: fig5_data_availability [--quick] [--csv] [--jobs N]
//                               [--records N] [--json PATH]
//                               [--shard I/N]
// (shared bench flags — see bench/bench_main.h; with --shard the JSON
// output is a partial report for tools/bench_merge).

#include <iostream>
#include <string>
#include <vector>

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
  bool in_tuning_panel;
};

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  const bool quick = options.quick;
  const bool csv = options.csv;

  const int kNumRecords = options.records > 0 ? options.records : 5000;
  const std::vector<int> availability_percents =
      quick ? std::vector<int>{0, 50, 100}
            : std::vector<int>{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  const std::vector<SchemeUnderTest> schemes = {
      {SchemeKind::kFlat, "plain", false},
      {SchemeKind::kSignature, "signature", true},
      {SchemeKind::kOneM, "(1,m)", true},
      {SchemeKind::kDistributed, "distributed", true},
      {SchemeKind::kHashing, "hashing", true},
  };

  std::vector<std::string> access_columns = {"availability%"};
  std::vector<std::string> tuning_columns = {"availability%"};
  for (const auto& scheme : schemes) {
    access_columns.push_back(scheme.label);
    if (scheme.in_tuning_panel) tuning_columns.push_back(scheme.label);
  }
  ReportTable access_table(access_columns);
  ReportTable tuning_table(tuning_columns);

  BenchReporter reporter("fig5_data_availability", options);
  reporter.SetShard(options.shard);
  reporter.AddConfig("num_records", std::to_string(kNumRecords));

  std::cout << "Figure 5: access/tuning time vs data availability\n"
            << "Nr = " << kNumRecords
            << ", 500 B records, 25 B keys; plain broadcast appears only in "
               "the access panel (its tuning time is off this scale)\n"
            << std::flush;

  // Build the whole grid, then run it as one parallel sweep.
  std::vector<TestbedConfig> configs;
  for (const int percent : availability_percents) {
    for (const auto& scheme : schemes) {
      TestbedConfig config;
      config.scheme = scheme.kind;
      config.num_records = kNumRecords;
      config.data_availability = static_cast<double>(percent) / 100.0;
      config.seed = 1000 + static_cast<std::uint64_t>(percent);
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
  for (const int percent : availability_percents) {
    std::vector<std::string> access_row = {std::to_string(percent)};
    std::vector<std::string> tuning_row = {std::to_string(percent)};
    for (const auto& scheme : schemes) {
      const std::size_t cell = index;
      const Result<SimulationResult>& run = runs[index++];
      if (!run.ok()) {
        std::cerr << "simulation failed: " << run.status().ToString() << "\n";
        return 1;
      }
      const SimulationResult& sim = run.value();
      reporter.AddSimulationPoint({{"availability_percent",
                                    std::to_string(percent)},
                                   {"scheme", scheme.label}},
                                  sim);
      if (options.shard.active()) {
        reporter.AttachShardCell(experiment.shard_cells()[cell]);
      }
      access_row.push_back(FormatDouble(sim.access.mean(), 0));
      if (scheme.in_tuning_panel) {
        tuning_row.push_back(FormatDouble(sim.tuning.mean(), 0));
      }
      if (sim.anomalies != 0 || sim.outcome_mismatches != 0) {
        std::cerr << "WARNING: " << scheme.label << " at " << percent
                  << "%: " << sim.anomalies << " anomalies, "
                  << sim.outcome_mismatches << " outcome mismatches\n";
      }
    }
    access_table.AddRow(access_row);
    tuning_table.AddRow(tuning_row);
  }

  std::cout << "\n(a) Access time (bytes) vs data availability\n";
  csv ? access_table.PrintCsv(std::cout) : access_table.Print(std::cout);
  std::cout << "\n(b) Tuning time (bytes) vs data availability\n";
  csv ? tuning_table.PrintCsv(std::cout) : tuning_table.Print(std::cout);
  std::cout << '\n';
  PrintTimingSummary(std::cout, experiment.timing());
  if (Status s = reporter.Finish(experiment.timing()); !s.ok()) {
    std::cerr << "json report failed: " << s.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace airindex

int main(int argc, char** argv) { return airindex::Main(argc, argv); }
