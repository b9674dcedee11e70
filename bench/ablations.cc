// Ablations A1–A8 (DESIGN.md §5): one-parameter sweeps of the testbed
// that check the rules the paper inherits (optimal m and r, signature
// width) and extend its comparison (signature family, broadcast disks,
// lossy channels, hybrid index, deadlines). Each ablation is one row of
// kPresets: it builds its grid of cells and prints its tables from the
// results; the sweep harness (SweepMain, bench/bench_main.h) runs the
// whole grid as one sweep, adds the points in grid order and writes the
// report.
//
// Usage: ablations <preset> [--records N] [--csv] [--jobs N]
//                           [--quick] [--json PATH]
//        ablations --list
// (shared bench flags — see bench/bench_main.h). No preset changes its
// grid under --quick; the report still records the flag. The presets
// apply no other shared flag, so any other one given is rejected (exit
// 2) rather than recorded in a report it did not shape.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analytical/models.h"
#include "bench/bench_main.h"
#include "core/report.h"
#include "core/simulator.h"
#include "core/testbed_config.h"
#include "data/dataset.h"
#include "schemes/signature.h"

namespace airindex {
namespace {

/// A cell of `kind` over `num_records` records with the ablations'
/// stopping bounds (30..120 replications).
TestbedConfig CellConfig(SchemeKind kind, int num_records,
                         std::uint64_t seed) {
  TestbedConfig config;
  config.scheme = kind;
  config.num_records = num_records;
  config.min_rounds = 30;
  config.max_rounds = 120;
  config.seed = seed;
  return config;
}

// A1: distributed indexing's sensitivity to the number of replicated
// levels r, and whether the optimal-r rule the paper inherits from
// Imielinski et al. picks the simulated access minimum.

std::vector<SweepCell> DistributedRGrid(int num_records) {
  const BTreeLevelCounts levels =
      ComputeBTreeLevels(num_records, BucketGeometry{}.index_fanout());
  std::vector<SweepCell> cells;
  for (int r = 0; r < levels.height; ++r) {
    TestbedConfig config =
        CellConfig(SchemeKind::kDistributed, num_records,
                   7000 + static_cast<std::uint64_t>(r));
    config.params.distributed_r = r;
    cells.push_back({config, {{"r", std::to_string(r)}}});
  }
  return cells;
}

void PrintDistributedR(int num_records, const std::vector<SweepCell>& cells,
                       const SweepResults& results, bool csv) {
  const BucketGeometry geometry;
  const BTreeLevelCounts levels =
      ComputeBTreeLevels(num_records, geometry.index_fanout());
  const int optimal = DistributedOptimalRExact(num_records, geometry);
  std::cout << "Ablation: distributed indexing replicated levels r\n"
            << "Nr = " << num_records << ", fanout = "
            << geometry.index_fanout() << ", tree height = " << levels.height
            << ", model-optimal r = " << optimal << "\n\n";

  ReportTable table({"r", "segments", "index buckets", "access (S)",
                     "access (A)", "tuning (S)", "optimal?"});
  double best_access = 0.0;
  int best_r = -1;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int r = cells[i].config.params.distributed_r;
    const SimulationResult& sim = results[i];
    const AnalyticalEstimate model =
        DistributedModelExact(num_records, geometry, r);
    if (best_r < 0 || sim.access.mean() < best_access) {
      best_access = sim.access.mean();
      best_r = r;
    }
    table.AddRow({std::to_string(r),
                  std::to_string(levels.count_at_depth[
                      static_cast<std::size_t>(r)]),
                  std::to_string(sim.num_index_buckets),
                  FormatDouble(sim.access.mean(), 0),
                  FormatDouble(model.access_time, 0),
                  FormatDouble(sim.tuning.mean(), 0),
                  r == optimal ? "model-optimal" : ""});
  }
  PrintTable(table, csv);
  std::cout << "\nsimulated best r = " << best_r
            << (best_r == optimal
                    ? " (matches the model-optimal choice)\n"
                    : " (model-optimal differs; see access columns)\n");
}

// A2: (1,m) indexing's sensitivity to the index replication count m
// around the analytical optimum m* = sqrt(Nr/I).

std::vector<SweepCell> OneMGrid(int num_records) {
  const int optimal = OneMOptimalMExact(num_records, BucketGeometry{});
  std::vector<int> ms = {1, 2, optimal, 2 * optimal, 4 * optimal,
                         8 * optimal};
  std::sort(ms.begin(), ms.end());
  ms.erase(std::unique(ms.begin(), ms.end()), ms.end());
  std::vector<SweepCell> cells;
  for (const int m : ms) {
    TestbedConfig config = CellConfig(SchemeKind::kOneM, num_records,
                                      8000 + static_cast<std::uint64_t>(m));
    config.params.one_m_m = m;
    cells.push_back({config, {{"m", std::to_string(m)}}});
  }
  return cells;
}

void PrintOneM(int num_records, const std::vector<SweepCell>& cells,
               const SweepResults& results, bool csv) {
  const BucketGeometry geometry;
  const int optimal = OneMOptimalMExact(num_records, geometry);
  std::cout << "Ablation: (1,m) indexing replication count m\n"
            << "Nr = " << num_records << ", model-optimal m* = " << optimal
            << "\n\n";

  ReportTable table({"m", "cycle buckets", "access (S)", "access (A)",
                     "tuning (S)", "optimal?"});
  double best_access = 0.0;
  int best_m = -1;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int m = cells[i].config.params.one_m_m;
    const SimulationResult& sim = results[i];
    const AnalyticalEstimate model =
        OneMModelExact(num_records, geometry, m);
    if (best_m < 0 || sim.access.mean() < best_access) {
      best_access = sim.access.mean();
      best_m = m;
    }
    table.AddRow({std::to_string(m), std::to_string(sim.num_buckets),
                  FormatDouble(sim.access.mean(), 0),
                  FormatDouble(model.access_time, 0),
                  FormatDouble(sim.tuning.mean(), 0),
                  m == optimal ? "model-optimal" : ""});
  }
  PrintTable(table, csv);
  std::cout << "\nsimulated best m = " << best_m
            << (best_m == optimal ? " (matches m*)\n" : "\n");
}

// A3: the two tradeoffs the paper states for signature indexing (Section
// 2.3): signature length vs tuning time, and access vs tuning time. Sweeps
// the signature bucket size It with the measured false-drop rate.

std::vector<SweepCell> SignatureWidthGrid(int num_records) {
  std::vector<SweepCell> cells;
  for (const Bytes width : {2, 4, 8, 16, 32, 64}) {
    TestbedConfig config =
        CellConfig(SchemeKind::kSignature, num_records,
                   9000 + static_cast<std::uint64_t>(width));
    config.geometry.signature_bytes = width;
    cells.push_back({config, {{"signature_bytes", std::to_string(width)}}});
  }
  return cells;
}

void PrintSignatureWidth(int num_records, const std::vector<SweepCell>& cells,
                         const SweepResults& results, bool csv) {
  std::cout << "Ablation: signature width It vs false drops\n"
            << "Nr = " << num_records
            << "; smaller signatures shorten the cycle (better access) but "
               "collide more (worse tuning)\n\n";

  ReportTable table({"It bytes", "false-drop rate", "access (S)",
                     "tuning (S)", "tuning (A)"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const TestbedConfig& config = cells[i].config;
    const SimulationResult& sim = results[i];
    // Measure the realized false-drop rate on the actual channel: the
    // dataset the simulation broadcast, drawn from the config's seed.
    const std::shared_ptr<const Dataset> dataset =
        BuildTestbedDataset(config).value();
    const SignatureIndexing scheme =
        SignatureIndexing::Build(dataset, config.geometry).value();
    const double measured_rate = scheme.MeasureFalseDropRate(200, 11);

    const AnalyticalEstimate model =
        SignatureModel(num_records, config.geometry, measured_rate);
    table.AddRow({std::to_string(config.geometry.signature_bytes),
                  FormatDouble(measured_rate, 6),
                  FormatDouble(sim.access.mean(), 0),
                  FormatDouble(sim.tuning.mean(), 0),
                  FormatDouble(model.tuning_time, 0)});
  }
  PrintTable(table, csv);
}

// A4 and A7 sweep schemes of the signature family across group sizes;
// the seed base tells the two grids apart.

std::vector<SweepCell> GroupCells(
    int num_records, std::uint64_t seed_base,
    const std::vector<std::pair<SchemeKind, int>>& runs) {
  std::vector<SweepCell> cells;
  for (const auto& [kind, group] : runs) {
    TestbedConfig config =
        CellConfig(kind, num_records,
                   seed_base + static_cast<std::uint64_t>(group));
    config.params.signature_group_size = group;
    cells.push_back({config,
                     {{"scheme", SchemeKindToString(kind)},
                      {"group", std::to_string(group)}}});
  }
  return cells;
}

// A4: the Lee & Lee signature family — simple vs integrated vs
// multi-level — across group sizes. The paper compares only simple
// signature indexing; this quantifies what the two extensions buy
// (tuning) and cost (access) on the same workload.

std::vector<SweepCell> SignatureFamilyGrid(int num_records) {
  return GroupCells(num_records, 11000,
                    {{SchemeKind::kSignature, 0},
                     {SchemeKind::kIntegratedSignature, 4},
                     {SchemeKind::kIntegratedSignature, 16},
                     {SchemeKind::kIntegratedSignature, 64},
                     {SchemeKind::kMultiLevelSignature, 4},
                     {SchemeKind::kMultiLevelSignature, 16},
                     {SchemeKind::kMultiLevelSignature, 64}});
}

void PrintSignatureFamily(int num_records, const std::vector<SweepCell>& cells,
                          const SweepResults& results, bool csv) {
  std::cout << "Ablation: signature family (simple / integrated / "
               "multi-level)\n"
            << "Nr = " << num_records
            << "; group signatures auto-widen with the group size\n\n";

  ReportTable table({"scheme", "group", "cycle bytes", "access (S)",
                     "tuning (S)", "false drops/req"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SchemeKind kind = cells[i].config.scheme;
    const SimulationResult& sim = results[i];
    table.AddRow({SchemeKindToString(kind),
                  kind == SchemeKind::kSignature
                      ? "-"
                      : std::to_string(
                            cells[i].config.params.signature_group_size),
                  std::to_string(sim.cycle_bytes),
                  FormatDouble(sim.access.mean(), 0),
                  FormatDouble(sim.tuning.mean(), 0),
                  FormatDouble(static_cast<double>(sim.false_drops) /
                                   static_cast<double>(sim.requests),
                               3)});
  }
  PrintTable(table, csv);
}

// A5: broadcast disks vs flat broadcast under skewed request popularity.
// Broadcast disks should cross below flat broadcast as the Zipf skew
// grows (the Acharya et al. result), while at theta = 0 their longer
// cycle makes them strictly worse.

std::vector<SweepCell> BroadcastDisksGrid(int num_records) {
  std::vector<SweepCell> cells;
  for (const double theta : {0.0, 0.4, 0.8, 1.0, 1.2}) {
    for (const SchemeKind kind :
         {SchemeKind::kFlat, SchemeKind::kBroadcastDisks}) {
      TestbedConfig config =
          CellConfig(kind, num_records,
                     12000 + static_cast<std::uint64_t>(100 * theta));
      config.zipf_theta = theta;
      config.min_rounds = 40;
      config.max_rounds = 150;
      cells.push_back({config,
                       {{"theta", FormatDouble(theta, 1)},
                        {"scheme", SchemeKindToString(kind)}}});
    }
  }
  return cells;
}

void PrintBroadcastDisks(int num_records, const std::vector<SweepCell>& cells,
                         const SweepResults& results, bool csv) {
  std::cout << "Ablation: broadcast disks vs flat broadcast under Zipf "
               "request skew\n"
            << "Nr = " << num_records
            << "; disks = {10% hot @4x, 30% warm @2x, 60% cold @1x}\n\n";

  ReportTable table({"zipf theta", "flat access", "disks access",
                     "disks/flat", "disks cycle/flat cycle"});
  // Cells come in (flat, disks) pairs per theta.
  for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
    const SimulationResult& flat = results[i];
    const SimulationResult& disks = results[i + 1];
    table.AddRow({FormatDouble(cells[i].config.zipf_theta, 1),
                  FormatDouble(flat.access.mean(), 0),
                  FormatDouble(disks.access.mean(), 0),
                  FormatDouble(disks.access.mean() / flat.access.mean(), 3),
                  FormatDouble(static_cast<double>(disks.cycle_bytes) /
                                   static_cast<double>(flat.cycle_bytes),
                               3)});
  }
  PrintTable(table, csv);
  std::cout << "\n(ratios below 1.0 mean the multi-disk schedule wins)\n";
}

/// Columns of a rate × scheme table: the row axis, then one per scheme.
std::vector<std::string> SchemeColumns(const std::string& axis,
                                       std::span<const SchemeKind> kinds) {
  std::vector<std::string> columns = {axis};
  for (const SchemeKind kind : kinds) {
    columns.push_back(SchemeKindToString(kind));
  }
  return columns;
}

// A6: scheme robustness on an error-prone channel (the regime of the
// paper's reference [9]). Schemes whose protocols read more buckets
// (flat, signature) degrade faster than the few-probe schemes (hashing,
// distributed).

constexpr SchemeKind kErrorRateSchemes[] = {
    SchemeKind::kFlat, SchemeKind::kDistributed, SchemeKind::kHashing,
    SchemeKind::kSignature};

std::vector<SweepCell> ErrorRateGrid(int num_records) {
  std::vector<SweepCell> cells;
  for (const double rate : {0.0, 1e-5, 1e-4, 1e-3, 1e-2}) {
    for (const SchemeKind kind : kErrorRateSchemes) {
      TestbedConfig config =
          CellConfig(kind, num_records,
                     13000 + static_cast<std::uint64_t>(1e6 * rate));
      config.error_model.bucket_error_rate = rate;
      cells.push_back({config,
                       {{"error_rate", FormatDouble(rate, 5)},
                        {"scheme", SchemeKindToString(kind)}}});
    }
  }
  return cells;
}

void PrintErrorRate(int num_records, const std::vector<SweepCell>& cells,
                    const SweepResults& results, bool csv) {
  std::cout << "Ablation: access-time inflation on an error-prone channel\n"
            << "Nr = " << num_records
            << "; cells show mean access relative to the lossless run\n\n";

  const std::vector<std::string> columns =
      SchemeColumns("error rate", kErrorRateSchemes);
  ReportTable access_table(columns);
  ReportTable tuning_table(columns);
  ReportTable found_table(columns);
  // Each row of the grid holds one cell per scheme; the first row is the
  // lossless run that every row is scaled by.
  const std::size_t width = std::size(kErrorRateSchemes);
  for (std::size_t first = 0; first < cells.size(); first += width) {
    const std::string rate = FormatDouble(
        cells[first].config.error_model.bucket_error_rate, 5);
    std::vector<std::string> access_row = {rate};
    std::vector<std::string> tuning_row = {rate};
    std::vector<std::string> found_row = {rate};
    for (std::size_t s = 0; s < width; ++s) {
      const SimulationResult& sim = results[first + s];
      access_row.push_back(
          FormatDouble(sim.access.mean() / results[s].access.mean(), 3));
      tuning_row.push_back(
          FormatDouble(sim.tuning.mean() / results[s].tuning.mean(), 3));
      found_row.push_back(FormatDouble(sim.found_rate(), 3));
    }
    access_table.AddRow(access_row);
    tuning_table.AddRow(tuning_row);
    found_table.AddRow(found_row);
  }
  std::cout << "access-time inflation (x lossless):\n";
  PrintTable(access_table, csv);
  std::cout << "\ntuning-time inflation (x lossless; wasted listening):\n";
  PrintTable(tuning_table, csv);
  std::cout << "\nfound rate (retry budget 64):\n";
  PrintTable(found_table, csv);
}

// A7: the hybrid index + signature scheme (paper refs [3,4]) against its
// two parents. A group-level tree is ~G times smaller than (1,m)'s
// record-level tree (shorter cycle, better access), while in-group
// signature sifting keeps tuning near the tree schemes instead of the
// signature scheme's linear scan.

std::vector<SweepCell> HybridGrid(int num_records) {
  return GroupCells(num_records, 14000,
                    {{SchemeKind::kOneM, 0},
                     {SchemeKind::kDistributed, 0},
                     {SchemeKind::kSignature, 0},
                     {SchemeKind::kHybrid, 4},
                     {SchemeKind::kHybrid, 16},
                     {SchemeKind::kHybrid, 64}});
}

void PrintHybrid(int num_records, const std::vector<SweepCell>& cells,
                 const SweepResults& results, bool csv) {
  std::cout << "Hybrid index+signature vs its parents\n"
            << "Nr = " << num_records << ", Table 1 geometry\n\n";

  ReportTable table({"scheme", "group", "index buckets", "cycle bytes",
                     "access (S)", "tuning (S)"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SchemeKind kind = cells[i].config.scheme;
    const SimulationResult& sim = results[i];
    table.AddRow({SchemeKindToString(kind),
                  kind == SchemeKind::kHybrid
                      ? std::to_string(
                            cells[i].config.params.signature_group_size)
                      : "-",
                  std::to_string(sim.num_index_buckets),
                  std::to_string(sim.cycle_bytes),
                  FormatDouble(sim.access.mean(), 0),
                  FormatDouble(sim.tuning.mean(), 0)});
  }
  PrintTable(table, csv);
}

// A8: client impatience. Sweeps the access deadline, in multiples of the
// flat cycle Nr * 500, and reports each scheme's success rate — the
// fraction of requests answered before the client gives up. Schemes with
// shorter cycles (flat, signature) succeed at tighter deadlines; hashing's
// longer cycle hurts it.

constexpr SchemeKind kDeadlineSchemes[] = {
    SchemeKind::kFlat, SchemeKind::kOneM, SchemeKind::kDistributed,
    SchemeKind::kHashing, SchemeKind::kSignature};
constexpr double kDeadlineFractions[] = {0.1, 0.25, 0.5, 1.0, 2.0};

Bytes FlatCycle(int num_records) {
  return static_cast<Bytes>(num_records) * 500;
}

std::vector<SweepCell> DeadlineGrid(int num_records) {
  const Bytes flat_cycle = FlatCycle(num_records);
  std::vector<SweepCell> cells;
  for (const double fraction : kDeadlineFractions) {
    for (const SchemeKind kind : kDeadlineSchemes) {
      TestbedConfig config =
          CellConfig(kind, num_records,
                     15000 + static_cast<std::uint64_t>(100 * fraction));
      config.deadline.access_deadline_bytes =
          static_cast<Bytes>(fraction * static_cast<double>(flat_cycle));
      cells.push_back({config,
                       {{"deadline_fraction", FormatDouble(fraction, 2)},
                        {"scheme", SchemeKindToString(kind)}}});
    }
  }
  return cells;
}

void AddFoundRate(const SweepCell& /*cell*/, const SimulationResult& sim,
                  BenchPoint* point) {
  point->metrics.emplace_back(
      "found_rate", BenchMetricValue{sim.found_rate(), 0.0, false});
}

void PrintDeadline(int num_records, const std::vector<SweepCell>& cells,
                   const SweepResults& results, bool csv) {
  std::cout << "Ablation: success rate vs access deadline\n"
            << "Nr = " << num_records
            << "; deadlines as fractions of the flat cycle ("
            << FlatCycle(num_records) << " bytes)\n\n";

  ReportTable table(SchemeColumns("deadline/cycle", kDeadlineSchemes));
  const std::size_t width = std::size(kDeadlineSchemes);
  for (std::size_t first = 0; first < cells.size(); first += width) {
    std::vector<std::string> row = {
        FormatDouble(kDeadlineFractions[first / width], 2)};
    for (std::size_t s = 0; s < width; ++s) {
      row.push_back(FormatDouble(results[first + s].found_rate(), 3));
    }
    table.AddRow(row);
  }
  PrintTable(table, csv);
}

/// One ablation. `name` is the report's `bench` field.
struct Preset {
  const char* name;
  int default_records;
  std::vector<SweepCell> (*grid)(int num_records);
  /// Prints the title, tables and footer; results[i] is cells[i]'s run.
  void (*print)(int num_records, const std::vector<SweepCell>& cells,
                const SweepResults& results, bool csv);
  /// Attaches metrics beyond access and tuning to a cell's point; null
  /// for none.
  void (*extras)(const SweepCell& cell, const SimulationResult& sim,
                 BenchPoint* point);
};

constexpr Preset kPresets[] = {
    {"ablation_distributed_r", 5000, DistributedRGrid, PrintDistributedR,
     nullptr},
    {"ablation_one_m", 5000, OneMGrid, PrintOneM, nullptr},
    {"ablation_signature_width", 5000, SignatureWidthGrid,
     PrintSignatureWidth, nullptr},
    {"ablation_signature_family", 5000, SignatureFamilyGrid,
     PrintSignatureFamily, nullptr},
    {"ablation_broadcast_disks", 5000, BroadcastDisksGrid,
     PrintBroadcastDisks, nullptr},
    {"ablation_error_rate", 2000, ErrorRateGrid, PrintErrorRate, nullptr},
    {"hybrid_comparison", 5000, HybridGrid, PrintHybrid, nullptr},
    {"ablation_deadline", 2000, DeadlineGrid, PrintDeadline, AddFoundRate},
};

void PrintPresetNames(std::ostream& os) {
  for (const Preset& preset : kPresets) os << preset.name << "\n";
}

int Main(int argc, char** argv) {
  const char* name = argc >= 2 ? argv[1] : "";
  if (std::strcmp(name, "--list") == 0) {
    PrintPresetNames(std::cout);
    return 0;
  }
  const Preset* preset = nullptr;
  for (const Preset& candidate : kPresets) {
    if (std::strcmp(name, candidate.name) == 0) preset = &candidate;
  }
  if (preset == nullptr) {
    if (argc >= 2) std::cerr << "ablations: unknown preset " << name << "\n";
    std::cerr << "usage: ablations <preset> [--records N] [--csv] "
                 "[--jobs N] [--quick] [--json PATH]\n"
                 "       ablations --list\n"
                 "presets:\n";
    PrintPresetNames(std::cerr);
    return 2;
  }
  const BenchOptions options = ParseBenchOptions(argc, argv);
  const int num_records =
      options.records > 0 ? options.records : preset->default_records;
  SweepBench bench{.name = preset->name,
                   .config = {{"num_records", std::to_string(num_records)}},
                   .cells = preset->grid(num_records),
                   .extras = preset->extras};
  bench.print = [&](const std::vector<SweepCell>& cells,
                    const SweepResults& results, const RunTiming& /*timing*/,
                    bool csv) {
    preset->print(num_records, cells, results, csv);
  };
  return SweepMain(options, bench);
}

}  // namespace
}  // namespace airindex

int main(int argc, char** argv) { return airindex::Main(argc, argv); }
