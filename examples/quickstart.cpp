// Quickstart: build a broadcast program, run a few client accesses by
// hand, then let the testbed measure a scheme to the paper's confidence
// targets.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart

#include <iostream>
#include <memory>

#include "core/simulator.h"
#include "core/testbed_config.h"
#include "data/dataset.h"
#include "schemes/scheme.h"

int main() {
  using namespace airindex;

  // 1. A data source: 2000 synthetic dictionary records, 500-byte
  //    records with 25-byte keys (the paper's Table 1 shape).
  DatasetConfig dataset_config;
  dataset_config.num_records = 2000;
  dataset_config.key_width = 25;
  Result<Dataset> dataset_result = Dataset::Generate(dataset_config);
  if (!dataset_result.ok()) {
    std::cerr << dataset_result.status().ToString() << "\n";
    return 1;
  }
  auto dataset =
      std::make_shared<const Dataset>(std::move(dataset_result).value());

  // 2. A broadcast program: distributed indexing over that data.
  BucketGeometry geometry;  // 500 B buckets, 25 B keys by default
  Result<std::unique_ptr<BroadcastScheme>> scheme_result =
      BuildScheme(SchemeKind::kDistributed, dataset, geometry);
  if (!scheme_result.ok()) {
    std::cerr << scheme_result.status().ToString() << "\n";
    return 1;
  }
  const std::unique_ptr<BroadcastScheme> scheme =
      std::move(scheme_result).value();

  std::cout << "Broadcast cycle: " << scheme->view().num_buckets()
            << " buckets, " << scheme->view().cycle_bytes()
            << " bytes (" << scheme->view().num_index_buckets()
            << " index buckets)\n\n";

  // 3. A mobile client tunes in at an arbitrary moment and asks for a
  //    key. Access() walks the paper's protocol and reports both
  //    metrics in bytes.
  const std::string_view key = dataset->record(1234).key;
  for (const Bytes tune_in : {Bytes{0}, Bytes{400000}, Bytes{999999}}) {
    const AccessResult result = scheme->Access(key, tune_in);
    std::cout << "tune in at byte " << tune_in << ": "
              << (result.found ? "found" : "missed") << " after "
              << result.access_time << " bytes elapsed, listened to "
              << result.tuning_time << " bytes in " << result.probes
              << " probes\n";
  }

  // A key that is not on air: the index proves absence in a few probes.
  const AccessResult miss = scheme->Access(dataset->AbsentKey(999), 5000);
  std::cout << "absent key: concluded in " << miss.probes
            << " probes, listened to " << miss.tuning_time << " bytes\n\n";

  // 4. The full testbed: exponential request arrivals, rounds of 500,
  //    stop at 99% confidence / 1% accuracy (the paper's settings).
  TestbedConfig config;
  config.scheme = SchemeKind::kDistributed;
  config.num_records = 2000;
  const Result<SimulationResult> run = RunTestbed(config);
  if (!run.ok()) {
    std::cerr << run.status().ToString() << "\n";
    return 1;
  }
  const SimulationResult& sim = run.value();
  std::cout << "testbed: " << sim.requests << " requests over " << sim.rounds
            << " rounds (converged: " << (sim.converged ? "yes" : "no")
            << ")\n"
            << "  mean access time: " << sim.access.mean() << " bytes\n"
            << "  mean tuning time: " << sim.tuning.mean() << " bytes\n";
  return 0;
}
