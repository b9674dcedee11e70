// Trace explorer: watch a distributed-indexing client work the channel.
//
// Builds the paper's Figure 1 configuration (81 records, fanout 3, two
// replicated levels), prints the head of the broadcast cycle, then
// replays three annotated protocol walks: a lookup that descends
// straight down, a lookup whose record already passed (the
// next-broadcast rule), and a key that is not on air.
//
// Run: ./build/examples/trace_explorer

#include <iostream>
#include <memory>

#include "data/dataset.h"
#include "schemes/distributed.h"
#include "schemes/trace.h"

int main() {
  using namespace airindex;

  DatasetConfig dataset_config;
  dataset_config.num_records = 81;
  dataset_config.key_width = 6;
  auto dataset = std::make_shared<const Dataset>(
      Dataset::Generate(dataset_config).value());

  BucketGeometry geometry;
  geometry.record_bytes = 30;  // fanout 30/10 = 3, like the paper's Figure 1
  geometry.key_bytes = 6;
  const Result<DistributedIndexing> built =
      DistributedIndexing::Build(dataset, geometry, /*r=*/2);
  if (!built.ok()) {
    std::cerr << built.status().ToString() << "\n";
    return 1;
  }
  const DistributedIndexing& scheme = built.value();

  std::cout << "The paper's Figure 1 as a broadcast cycle (r = 2, "
            << scheme.num_segments() << " data segments):\n\n";
  DescribeChannel(scheme.view(), std::cout, 12);

  const auto replay = [&](const char* title, const std::string& key,
                          Bytes tune_in) {
    std::cout << "\n--- " << title << " (key " << key << ", tune in at byte "
              << tune_in << ") ---\n";
    AccessTrace trace;
    const AccessResult result = scheme.AccessTraced(key, tune_in, &trace);
    PrintTrace(trace, scheme.view(), std::cout);
    std::cout << (result.found ? "FOUND" : "NOT ON AIR") << " — access "
              << result.access_time << " bytes, tuning "
              << result.tuning_time << " bytes, " << result.probes
              << " probes\n";
  };

  // 1. Tune in at the start of the cycle, ask for a record far ahead:
  //    the client climbs via the control index, then descends.
  replay("lookup ahead of the tune-in point", dataset->record(62).key, 0);

  // 2. Ask for a record whose data segment has already passed: the
  //    "key below the last broadcast key" rule restarts at the next cycle.
  replay("lookup behind the tune-in point", dataset->record(3).key,
         scheme.view().cycle_bytes() / 2);

  // 3. A key that is not on the broadcast at all: the descent proves
  //    absence at the leaf level in a handful of probes.
  replay("key that is not on air", dataset->AbsentKey(40), 1234);
  return 0;
}
