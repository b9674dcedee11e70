// Reproduces Figure 4 of the paper: access time (a) and tuning time (b)
// versus the number of broadcast data records, for flat broadcast,
// distributed indexing, simple hashing and signature indexing — both the
// simulated series "(S)" and the analytical series "(A)".
//
// Usage: fig4_schemes_vs_records [--quick] [--csv] [--jobs N]
//                                [--records N] [--json PATH] [--shard I/N]
// (shared bench flags — see bench/bench_main.h; every one applies but
// --fleet-size. With --shard the JSON output is a partial report for
// tools/bench_merge.)

#include <iostream>
#include <string>
#include <vector>

#include "analytical/models.h"
#include "bench_main.h"
#include "core/report.h"
#include "core/testbed_config.h"

namespace airindex {
namespace {

struct SchemeUnderTest {
  SchemeKind kind;
  const char* label;
};

constexpr SchemeUnderTest kSchemes[] = {
    {SchemeKind::kFlat, "flat"},
    {SchemeKind::kDistributed, "distributed"},
    {SchemeKind::kHashing, "hashing"},
    {SchemeKind::kSignature, "signature"},
};

AnalyticalEstimate SchemeModel(const TestbedConfig& config) {
  const int num_records = config.num_records;
  switch (config.scheme) {
    case SchemeKind::kFlat:
      return FlatModel(num_records, config.geometry);
    case SchemeKind::kDistributed:
      return DistributedModelExact(
          num_records, config.geometry,
          DistributedOptimalRExact(num_records, config.geometry));
    case SchemeKind::kHashing: {
      const int allocated = num_records;  // Na = Nr at factor 1.0
      return HashingModel(
          num_records, allocated,
          static_cast<int>(ExpectedHashCollisions(num_records, allocated)),
          config.geometry);
    }
    case SchemeKind::kSignature:
      return SignatureModel(
          num_records, config.geometry,
          TheoreticalFalseDropRate(
              config.geometry, config.params.signature_bits_per_attribute,
              config.num_attributes));
    default:
      return {};
  }
}

void Print(const std::vector<SweepCell>& cells, const SweepResults& results,
           const RunTiming& timing, bool csv) {
  std::cout << "Figure 4: access/tuning time vs number of data records\n"
            << "Table 1 settings: 500 B records, 25 B keys, availability "
               "100%, exponential arrivals, confidence 0.99 / accuracy 0.01\n";
  std::vector<std::string> columns = {"records"};
  std::vector<std::string> throughput_columns = {"records"};
  for (const auto& scheme : kSchemes) {
    columns.push_back(std::string(scheme.label) + " (S)");
    columns.push_back(std::string(scheme.label) + " (A)");
    throughput_columns.push_back(scheme.label);
  }
  ReportTable access_table(columns);
  ReportTable tuning_table(columns);
  ReportTable throughput_table(throughput_columns);
  for (std::size_t first = 0; first < cells.size();
       first += std::size(kSchemes)) {
    const std::string records = cells[first].labels.front().second;
    std::vector<std::string> access_row = {records};
    std::vector<std::string> tuning_row = {records};
    std::vector<std::string> throughput_row = {records};
    for (std::size_t cell = first; cell < first + std::size(kSchemes);
         ++cell) {
      const SimulationResult& sim = results[cell];
      const AnalyticalEstimate model = SchemeModel(cells[cell].config);
      access_row.push_back(FormatDouble(sim.access.mean(), 0));
      access_row.push_back(FormatDouble(model.access_time, 0));
      tuning_row.push_back(FormatDouble(sim.tuning.mean(), 0));
      tuning_row.push_back(FormatDouble(model.tuning_time, 0));
      const double cell_wall = timing.cell_wall_seconds[cell];
      throughput_row.push_back(
          cell_wall > 0.0
              ? FormatDouble(static_cast<double>(sim.requests) / cell_wall, 0)
              : "-");
    }
    access_table.AddRow(access_row);
    tuning_table.AddRow(tuning_row);
    throughput_table.AddRow(throughput_row);
  }
  std::cout << "\n(a) Access time (bytes) vs number of data records\n";
  PrintTable(access_table, csv);
  std::cout << "\n(b) Tuning time (bytes) vs number of data records\n";
  PrintTable(tuning_table, csv);
  std::cout << "\n(c) Merged requests per second of each cell's wall time "
               "(wall-clock, console only)\n";
  PrintTable(throughput_table, csv);
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  // The 2000/5000 points sit either side of 17^3 = 4913 records, where
  // the index tree gains a level — the single step the paper observes in
  // distributed indexing's tuning time "somewhere between 5000 and 10000
  // data records".
  std::vector<int> record_counts =
      options.quick ? std::vector<int>{7000, 16000, 25000}
                    : std::vector<int>{2000, 5000, 7000, 11500, 16000,
                                       20500, 25000, 29500, 34000};
  if (options.records > 0) record_counts = {options.records};
  std::string counts;
  for (const int n : record_counts) {
    if (!counts.empty()) counts += ",";
    counts += std::to_string(n);
  }

  SweepBench bench{.name = "fig4_schemes_vs_records",
                   .applied = kTestbedFlags,
                   .config = {{"record_counts", counts}}};
  for (const int num_records : record_counts) {
    for (const auto& scheme : kSchemes) {
      TestbedConfig config;
      config.scheme = scheme.kind;
      config.num_records = num_records;
      config.seed = 42 + static_cast<std::uint64_t>(num_records);
      ApplyMultiChannelOptions(options, &config);
      ApplyWorkloadOptions(options, &config);
      ApplyQuickRounds(options, &config);
      bench.cells.push_back({config,
                             {{"records", std::to_string(num_records)},
                              {"scheme", scheme.label}}});
    }
  }
  bench.print = Print;
  return SweepMain(options, bench);
}

}  // namespace
}  // namespace airindex

int main(int argc, char** argv) { return airindex::Main(argc, argv); }
