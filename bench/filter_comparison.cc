// Capability bench: attribute filtering ("power efficient filtering of
// data on air") — signature sifting vs the flat-broadcast baseline, the
// query class B+-tree air indexes cannot serve. Sweeps signature width.
//
// Usage: filter_comparison [--records N] [--csv] [--json PATH]
// (--quick and --jobs are accepted but have no effect here: the filter
// walk is deterministic; any other shared flag exits 2).

#include <iostream>
#include <memory>
#include <string>

#include "bench_main.h"
#include "core/report.h"
#include "data/dataset.h"
#include "des/random.h"
#include "schemes/flat.h"
#include "schemes/signature.h"

namespace airindex {
namespace {

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  if (!CheckUnappliedFlags(options, "filter_comparison")) return 2;
  const int num_records = options.records > 0 ? options.records : 5000;
  const bool csv = options.csv;

  BenchReporter reporter("filter_comparison", options);
  reporter.AddConfig("num_records", std::to_string(num_records));

  DatasetConfig dataset_config;
  dataset_config.num_records = num_records;
  dataset_config.key_width = 25;
  dataset_config.num_attributes = 8;
  dataset_config.attribute_width = 4;  // values repeat across records
  auto dataset = std::make_shared<const Dataset>(
      Dataset::Generate(dataset_config).value());

  std::cout << "Attribute filtering: signature sifting vs flat baseline\n"
            << "Nr = " << num_records
            << "; tuning averaged over 200 attribute-value queries\n\n";

  BucketGeometry geometry;
  const FlatBroadcast flat = FlatBroadcast::Build(dataset, geometry).value();

  ReportTable table({"It bytes", "sig tuning", "flat tuning", "sig/flat",
                     "false drops/query", "matches/query"});
  for (const Bytes width : {4, 8, 16, 32, 64}) {
    BucketGeometry sig_geometry = geometry;
    sig_geometry.signature_bytes = width;
    const SignatureIndexing signature =
        SignatureIndexing::Build(dataset, sig_geometry).value();

    Rng rng(99);
    double sig_tuning = 0;
    double flat_tuning = 0;
    double drops = 0;
    double matches = 0;
    constexpr int kQueries = 200;
    for (int q = 0; q < kQueries; ++q) {
      const int record = static_cast<int>(
          rng.NextBounded(static_cast<std::uint64_t>(num_records)));
      const int attr = static_cast<int>(rng.NextBounded(8));
      const std::string& value =
          dataset->record(record).attributes[static_cast<std::size_t>(attr)];
      const Bytes tune_in = static_cast<Bytes>(rng.NextBounded(10000000));
      const FilterResult sig_result = signature.Filter(value, tune_in);
      const FilterResult flat_result = flat.Filter(value, tune_in);
      sig_tuning += static_cast<double>(sig_result.tuning_time);
      flat_tuning += static_cast<double>(flat_result.tuning_time);
      drops += sig_result.false_drops;
      matches += static_cast<double>(sig_result.matches.size());
    }
    table.AddRow({std::to_string(width),
                  FormatDouble(sig_tuning / kQueries, 0),
                  FormatDouble(flat_tuning / kQueries, 0),
                  FormatDouble(sig_tuning / flat_tuning, 4),
                  FormatDouble(drops / kQueries, 2),
                  FormatDouble(matches / kQueries, 2)});

    BenchPoint point;
    point.labels = {{"signature_bytes", std::to_string(width)}};
    point.metrics = {
        {"sig_tuning_bytes",
         BenchMetricValue{sig_tuning / kQueries, 0.0, false}},
        {"flat_tuning_bytes",
         BenchMetricValue{flat_tuning / kQueries, 0.0, false}},
        {"false_drops_per_query",
         BenchMetricValue{drops / kQueries, 0.0, false}},
    };
    point.replications = 1;
    point.requests = kQueries;
    reporter.AddPoint(std::move(point));
  }
  PrintTable(table, csv);
  if (Status s = reporter.Finish(RunTiming{}); !s.ok()) {
    std::cerr << "json report failed: " << s.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace airindex

int main(int argc, char** argv) { return airindex::Main(argc, argv); }
