// Reproduces Figure 6 of the paper: access time (a) and tuning time (b)
// versus the record/key ratio (record size fixed at 500 bytes, key size
// 500/ratio), at 100% data availability, for plain broadcast, signature
// indexing, (1,m) indexing, distributed indexing and simple hashing.
// As in the paper, plain broadcast appears only in the access panel.
//
// Usage: fig6_record_key_ratio [--quick] [--csv] [--jobs N]
//                              [--records N] [--json PATH]
//                              [--shard I/N]
// (shared bench flags — see bench/bench_main.h; every one applies but
// --fleet-size. With --shard the JSON output is a partial report for
// tools/bench_merge.)

#include <iostream>
#include <string>
#include <vector>

#include "bench_main.h"
#include "core/report.h"
#include "core/testbed_config.h"

namespace airindex {
namespace {

struct SchemeUnderTest {
  SchemeKind kind;
  const char* label;
  bool in_tuning_panel;
};

constexpr SchemeUnderTest kSchemes[] = {
    {SchemeKind::kFlat, "plain", false},
    {SchemeKind::kSignature, "signature", true},
    {SchemeKind::kOneM, "(1,m)", true},
    {SchemeKind::kDistributed, "distributed", true},
    {SchemeKind::kHashing, "hashing", true},
};

void Print(const std::vector<SweepCell>& cells, const SweepResults& results,
           const RunTiming& /*timing*/, bool csv) {
  std::cout << "Figure 6: access/tuning time vs record/key ratio\n"
            << "Nr = " << cells.front().config.num_records
            << ", 500 B records, key = 500/ratio bytes, availability 100%\n";
  std::vector<std::string> access_columns = {"record/key"};
  std::vector<std::string> tuning_columns = {"record/key"};
  for (const auto& scheme : kSchemes) {
    access_columns.push_back(scheme.label);
    if (scheme.in_tuning_panel) tuning_columns.push_back(scheme.label);
  }
  ReportTable access_table(access_columns);
  ReportTable tuning_table(tuning_columns);
  for (std::size_t first = 0; first < cells.size();
       first += std::size(kSchemes)) {
    const std::string axis_value = cells[first].labels.front().second;
    std::vector<std::string> access_row = {axis_value};
    std::vector<std::string> tuning_row = {axis_value};
    for (std::size_t s = 0; s < std::size(kSchemes); ++s) {
      const SimulationResult& sim = results[first + s];
      access_row.push_back(FormatDouble(sim.access.mean(), 0));
      if (kSchemes[s].in_tuning_panel) {
        tuning_row.push_back(FormatDouble(sim.tuning.mean(), 0));
      }
    }
    access_table.AddRow(access_row);
    tuning_table.AddRow(tuning_row);
  }
  std::cout << "\n(a) Access time (bytes) vs record/key ratio\n";
  PrintTable(access_table, csv);
  std::cout << "\n(b) Tuning time (bytes) vs record/key ratio\n";
  PrintTable(tuning_table, csv);
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  const int num_records = options.records > 0 ? options.records : 5000;
  const std::vector<int> ratios =
      options.quick
          ? std::vector<int>{5, 20, 100}
          : std::vector<int>{5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100};

  SweepBench bench{.name = "fig6_record_key_ratio",
                   .applied = kTestbedFlags,
                   .config = {{"num_records", std::to_string(num_records)}}};
  for (const int ratio : ratios) {
    for (const auto& scheme : kSchemes) {
      TestbedConfig config;
      config.scheme = scheme.kind;
      config.num_records = num_records;
      config.geometry.key_bytes = 500 / ratio;
      config.seed = 2000 + static_cast<std::uint64_t>(ratio);
      ApplyMultiChannelOptions(options, &config);
      ApplyWorkloadOptions(options, &config);
      ApplyQuickRounds(options, &config);
      bench.cells.push_back({config,
                             {{"ratio", std::to_string(ratio)},
                              {"scheme", scheme.label}}});
    }
  }
  bench.print = Print;
  return SweepMain(options, bench);
}

}  // namespace
}  // namespace airindex

int main(int argc, char** argv) { return airindex::Main(argc, argv); }
