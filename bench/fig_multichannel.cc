// Multichannel scaling: access time (a) and tuning time (b) versus the
// number of broadcast channels, for the three channel-allocation
// strategies of schemes/multichannel.h — data-partitioned (1,m),
// data-partitioned distributed indexing, index-on-one and
// replicated-index — with the simulated series "(S)" next to the
// analytical series "(A)". The 1-channel column is the paper's original
// single-channel testbed (the multichannel engine is bypassed there).
//
// Usage: fig_multichannel [--quick] [--csv] [--jobs N] [--records N]
//                         [--switch-cost B] [--program-cache DIR]
//                         [--json PATH] [--shard I/N]
// (shared bench flags — see bench/bench_main.h. Channel count and
// allocation are this bench's sweep axes; any other shared flag exits 2.
// With --shard the JSON output is a partial report for
// tools/bench_merge.)

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "analytical/models.h"
#include "bench_main.h"
#include "core/report.h"
#include "core/testbed_config.h"
#include "schemes/multichannel.h"

namespace airindex {
namespace {

struct SeriesUnderTest {
  SchemeKind kind;
  ChannelAllocation allocation;
  const char* label;
};

AnalyticalEstimate SingleChannelModel(SchemeKind kind, int num_records,
                                      const BucketGeometry& geometry) {
  if (kind == SchemeKind::kDistributed) {
    return DistributedModelExact(
        num_records, geometry,
        DistributedOptimalRExact(num_records, geometry));
  }
  return OneMModelExact(num_records, geometry,
                        OneMOptimalMExact(num_records, geometry));
}

AnalyticalEstimate SeriesModel(const SeriesUnderTest& series, int num_records,
                               int channels, const BucketGeometry& geometry,
                               Bytes switch_cost) {
  if (channels == 1) {
    return SingleChannelModel(series.kind, num_records, geometry);
  }
  switch (series.allocation) {
    case ChannelAllocation::kDataPartitioned: {
      const int per_partition = static_cast<int>(std::llround(
          static_cast<double>(num_records) / static_cast<double>(channels)));
      return DataPartitionedModel(
          SingleChannelModel(series.kind, per_partition, geometry), channels,
          geometry, switch_cost);
    }
    case ChannelAllocation::kIndexOnOne:
      return IndexOnOneModel(num_records, geometry, channels, switch_cost);
    case ChannelAllocation::kReplicatedIndex:
      return ReplicatedIndexModel(num_records, geometry, channels,
                                  switch_cost);
  }
  return {};
}

constexpr SeriesUnderTest kSeries[] = {
    {SchemeKind::kOneM, ChannelAllocation::kDataPartitioned, "(1,m) part"},
    {SchemeKind::kDistributed, ChannelAllocation::kDataPartitioned,
     "dist part"},
    {SchemeKind::kOneM, ChannelAllocation::kIndexOnOne, "index-on-one"},
    {SchemeKind::kOneM, ChannelAllocation::kReplicatedIndex,
     "replicated-index"},
};

void Print(const std::vector<SweepCell>& cells, const SweepResults& results,
           const RunTiming& /*timing*/, bool csv) {
  const int num_records = cells.front().config.num_records;
  const Bytes switch_cost =
      cells.front().config.multichannel.switch_cost_bytes;
  std::cout << "Multichannel: access/tuning time vs number of channels\n"
            << num_records << " records, switch cost " << switch_cost
            << " B/hop, Table 1 settings otherwise\n";
  std::vector<std::string> columns = {"channels"};
  for (const auto& series : kSeries) {
    columns.push_back(std::string(series.label) + " (S)");
    columns.push_back(std::string(series.label) + " (A)");
  }
  ReportTable access_table(columns);
  ReportTable tuning_table(columns);
  for (std::size_t first = 0; first < cells.size();
       first += std::size(kSeries)) {
    const int channels = cells[first].config.multichannel.num_channels;
    std::vector<std::string> access_row = {std::to_string(channels)};
    std::vector<std::string> tuning_row = {std::to_string(channels)};
    for (std::size_t s = 0; s < std::size(kSeries); ++s) {
      const SimulationResult& sim = results[first + s];
      const AnalyticalEstimate model =
          SeriesModel(kSeries[s], num_records, channels,
                      cells[first + s].config.geometry, switch_cost);
      access_row.push_back(FormatDouble(sim.access.mean(), 0));
      access_row.push_back(FormatDouble(model.access_time, 0));
      tuning_row.push_back(FormatDouble(sim.tuning.mean(), 0));
      tuning_row.push_back(FormatDouble(model.tuning_time, 0));
    }
    access_table.AddRow(access_row);
    tuning_table.AddRow(tuning_row);
  }
  std::cout << "\n(a) Access time (bytes) vs number of channels\n";
  PrintTable(access_table, csv);
  std::cout << "\n(b) Tuning time (bytes) vs number of channels\n";
  PrintTable(tuning_table, csv);
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  const std::vector<int> channel_counts =
      options.quick ? std::vector<int>{1, 2, 3, 4}
                    : std::vector<int>{1, 2, 3, 4, 6, 8};
  const int num_records = options.records > 0 ? options.records : 7000;
  const Bytes switch_cost = options.multichannel.switch_cost_bytes;
  std::string counts;
  for (const int n : channel_counts) {
    if (!counts.empty()) counts += ",";
    counts += std::to_string(n);
  }

  SweepBench bench{
      .name = "fig_multichannel",
      .applied = {"--switch-cost", "--program-cache", "--shard"},
      .config = {{"channel_counts", counts},
                 {"records", std::to_string(num_records)},
                 {"switch_cost_bytes", std::to_string(switch_cost)}}};
  for (const int channels : channel_counts) {
    for (const auto& series : kSeries) {
      TestbedConfig config;
      config.scheme = series.kind;
      config.num_records = num_records;
      config.multichannel.num_channels = channels;
      config.multichannel.switch_cost_bytes = switch_cost;
      config.multichannel.allocation = series.allocation;
      config.seed = 4242 + static_cast<std::uint64_t>(num_records);
      config.program_cache_dir = options.program_cache_dir;
      ApplyQuickRounds(options, &config);
      bench.cells.push_back({config,
                             {{"channels", std::to_string(channels)},
                              {"series", series.label}}});
    }
  }
  bench.print = Print;
  return SweepMain(options, bench);
}

}  // namespace
}  // namespace airindex

int main(int argc, char** argv) { return airindex::Main(argc, argv); }
