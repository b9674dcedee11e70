// Skew-aware scheduling: simulated expected access time versus the
// square-root-rule lower bound (Ammar & Wong), across workload skew θ,
// disk count and scheduler — the flat single-slot layout, the planned
// square-root broadcast disks, and the online re-tiering loop that
// re-assigns records to disks from the observed request stream. The
// "(A)" column next to each sqrt series is the exact closed-form
// expectation over the planned slot schedule (ScheduledScanAccessModel);
// "bound (A)" is the fractional lower bound no schedule can beat.
//
// Usage: fig_scheduling [--quick] [--csv] [--jobs N] [--records N]
//                       [--program-cache DIR] [--json PATH] [--shard I/N]
// (shared bench flags — see bench/bench_main.h. Skew, scheduler and disk
// count are this bench's sweep axes; any other shared flag exits 2.)

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "analytical/models.h"
#include "bench_main.h"
#include "broadcast/schedule.h"
#include "core/report.h"
#include "core/testbed_config.h"

namespace airindex {
namespace {

struct SeriesUnderTest {
  SchedulerKind scheduler;
  int disks;  // ignored for kFlat
  const char* label;
};

/// Exact expected access time of the planned square-root schedule for
/// this cell — the series simulation must track (the online series may
/// drift off it as re-tiering reacts to the sampled stream).
double PlannedModel(int num_records, double theta, int disks,
                    const BucketGeometry& geometry) {
  const std::vector<double> popularity =
      ZipfRankPopularity(num_records, theta);
  const Result<DiskAssignment> assignment =
      SquareRootAssignment(popularity, disks);
  if (!assignment.ok()) return 0.0;
  const DiskLayout layout = BuildDiskLayout(assignment.value());
  return ScheduledScanAccessModel(
      layout.record_slots,
      static_cast<std::int64_t>(layout.slot_record.size()),
      geometry.data_bucket_bytes(), popularity);
}

constexpr double kThetas[] = {0.6, 0.95};
constexpr SeriesUnderTest kSeries[] = {
    {SchedulerKind::kFlat, 0, "flat"},
    {SchedulerKind::kSquareRoot, 4, "sqrt d4"},
    {SchedulerKind::kSquareRoot, 8, "sqrt d8"},
    {SchedulerKind::kOnline, 4, "online d4"},
    {SchedulerKind::kOnline, 8, "online d8"},
};

/// The square-root-rule lower bound at this cell's skew.
double Bound(const TestbedConfig& config) {
  return SquareRootRuleBound(
      ZipfRankPopularity(config.num_records, config.zipf_theta),
      config.geometry.data_bucket_bytes());
}

double CellModel(const TestbedConfig& config) {
  return PlannedModel(config.num_records, config.zipf_theta,
                      config.params.schedule.num_disks, config.geometry);
}

void AddModels(const SweepCell& cell, const SimulationResult& /*sim*/,
               BenchPoint* point) {
  point->metrics.emplace_back("sqrt_bound_bytes",
                              BenchMetricValue{Bound(cell.config), 0.0, false});
  if (cell.config.params.schedule.scheduler != SchedulerKind::kFlat) {
    point->metrics.emplace_back(
        "model_access_bytes",
        BenchMetricValue{CellModel(cell.config), 0.0, false});
  }
}

void Print(const std::vector<SweepCell>& cells, const SweepResults& results,
           const RunTiming& /*timing*/, bool csv) {
  std::cout << "Scheduling: access time vs skew, scheduler and disk count\n"
            << cells.front().config.num_records
            << " records, flat broadcast base, Table 1 settings otherwise\n";
  std::vector<std::string> columns = {"theta", "bound (A)"};
  for (const auto& series : kSeries) {
    columns.push_back(std::string(series.label) + " (S)");
    if (series.scheduler == SchedulerKind::kSquareRoot) {
      columns.push_back(std::string(series.label) + " (A)");
    }
  }
  ReportTable access_table(columns);
  for (std::size_t first = 0; first < cells.size();
       first += std::size(kSeries)) {
    const TestbedConfig& head = cells[first].config;
    std::vector<std::string> access_row = {FormatDouble(head.zipf_theta, 2),
                                           FormatDouble(Bound(head), 0)};
    for (std::size_t s = 0; s < std::size(kSeries); ++s) {
      access_row.push_back(FormatDouble(results[first + s].access.mean(), 0));
      if (kSeries[s].scheduler == SchedulerKind::kSquareRoot) {
        access_row.push_back(
            FormatDouble(CellModel(cells[first + s].config), 0));
      }
    }
    access_table.AddRow(access_row);
  }
  std::cout << "\nAccess time (bytes) vs skew: simulated schedulers against "
               "the square-root-rule bound\n";
  PrintTable(access_table, csv);
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  const int num_records = options.records > 0 ? options.records
                          : options.quick     ? 600
                                              : 800;

  SweepBench bench{.name = "fig_scheduling",
                   .applied = {"--program-cache", "--shard"},
                   .config = {{"records", std::to_string(num_records)},
                              {"thetas", "0.6,0.95"},
                              {"schedulers", "flat,sqrt,online"}}};
  for (const double theta : kThetas) {
    for (const auto& series : kSeries) {
      TestbedConfig config;
      config.scheme = SchemeKind::kFlat;
      config.num_records = num_records;
      config.zipf_theta = theta;
      config.params.schedule.scheduler = series.scheduler;
      if (series.scheduler != SchedulerKind::kFlat) {
        config.params.schedule.num_disks = series.disks;
      }
      config.seed = 4242 + static_cast<std::uint64_t>(num_records);
      config.program_cache_dir = options.program_cache_dir;
      ApplyQuickRounds(options, &config);
      bench.cells.push_back(
          {config,
           {{"theta", FormatDouble(theta, 2)}, {"series", series.label}}});
    }
  }
  bench.extras = AddModels;
  bench.print = Print;
  return SweepMain(options, bench);
}

}  // namespace
}  // namespace airindex

int main(int argc, char** argv) { return airindex::Main(argc, argv); }
