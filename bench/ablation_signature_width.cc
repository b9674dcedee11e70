// Ablation A3 (DESIGN.md): the two tradeoffs the paper states for
// signature indexing (Section 2.3): (1) signature length vs tuning time
// and (2) access time vs tuning time. Sweeps the signature bucket size It
// and reports the measured false-drop rate alongside both metrics.
//
// Usage: ablation_signature_width [--records N] [--csv] [--jobs N]
//                                 [--quick] [--json PATH]
// (shared bench flags — see bench/bench_main.h).

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analytical/models.h"
#include "bench_main.h"
#include "core/experiment.h"
#include "core/report.h"
#include "core/simulator.h"
#include "core/testbed_config.h"
#include "data/dataset.h"
#include "schemes/signature.h"

namespace airindex {
namespace {

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  const int num_records = options.records > 0 ? options.records : 5000;
  const bool csv = options.csv;
  ParallelExperiment experiment({.jobs = options.jobs});

  BenchReporter reporter("ablation_signature_width", options);
  reporter.AddConfig("num_records", std::to_string(num_records));

  std::cout << "Ablation: signature width It vs false drops\n"
            << "Nr = " << num_records
            << "; smaller signatures shorten the cycle (better access) but "
               "collide more (worse tuning)\n\n";

  ReportTable table({"It bytes", "false-drop rate", "access (S)",
                     "tuning (S)", "tuning (A)"});
  for (const Bytes width : {2, 4, 8, 16, 32, 64}) {
    TestbedConfig config;
    config.scheme = SchemeKind::kSignature;
    config.num_records = num_records;
    config.geometry.signature_bytes = width;
    config.min_rounds = 30;
    config.max_rounds = 120;
    config.seed = 9000 + static_cast<std::uint64_t>(width);
    const Result<SimulationResult> run = experiment.Run(config);
    if (!run.ok()) {
      std::cerr << "simulation failed: " << run.status().ToString() << "\n";
      return 1;
    }
    const SimulationResult& sim = run.value();
    reporter.AddSimulationPoint(
        {{"signature_bytes", std::to_string(width)}}, sim);

    // Measure the realized false-drop rate on the actual channel: the
    // dataset the simulation broadcast, drawn from the config's seed.
    const std::shared_ptr<const Dataset> dataset =
        BuildTestbedDataset(config).value();
    const SignatureIndexing scheme =
        SignatureIndexing::Build(dataset, config.geometry).value();
    const double measured_rate = scheme.MeasureFalseDropRate(200, 11);

    const AnalyticalEstimate model =
        SignatureModel(num_records, config.geometry, measured_rate);
    table.AddRow({std::to_string(width), FormatDouble(measured_rate, 6),
                  FormatDouble(sim.access.mean(), 0),
                  FormatDouble(sim.tuning.mean(), 0),
                  FormatDouble(model.tuning_time, 0)});
  }
  csv ? table.PrintCsv(std::cout) : table.Print(std::cout);
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
