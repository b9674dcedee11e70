// Micro-benchmarks (google-benchmark) for the building blocks: channel
// construction per scheme, program restore, snapshot load and write,
// dataset generation, key lookup, the dataset fingerprint, client access
// walks (single- and multichannel), whole replications, a small engine
// sweep from snapshots, Zipf draws, and the RNG. These measure
// *implementation* speed (wall clock), unlike the figure benches, which
// measure *simulated* bytes.
//
// Accepts google-benchmark's own flags plus --json PATH, which emits the
// shared bench-report schema with one walltime point per benchmark.

#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_main.h"
#include "broadcast/snapshot.h"
#include "client/fleet.h"
#include "core/experiment.h"
#include "core/program_cache.h"
#include "core/request_generator.h"
#include "core/simulator.h"
#include "data/dataset.h"
#include "des/random.h"
#include "des/zipf.h"
#include "dynamic/dynamic_program.h"
#include "schemes/multichannel.h"
#include "schemes/scheme.h"

namespace airindex {
namespace {

std::shared_ptr<const Dataset> BenchDataset(int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 25;
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

void BM_ChannelBuild(benchmark::State& state, SchemeKind kind) {
  const auto dataset = BenchDataset(static_cast<int>(state.range(0)));
  const BucketGeometry geometry;
  for (auto _ : state) {
    auto scheme = BuildScheme(kind, dataset, geometry);
    benchmark::DoNotOptimize(scheme);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// Full program construction: build + flatten into an arena — the cold
/// path of the program cache. Compare against BM_ProgramRestore to see
/// what a warm cache saves per sweep cell.
void BM_ProgramBuild(benchmark::State& state, SchemeKind kind) {
  const auto dataset = BenchDataset(static_cast<int>(state.range(0)));
  const BucketGeometry geometry;
  for (auto _ : state) {
    auto scheme = BuildScheme(kind, dataset, geometry).value();
    auto arena = FlattenSchemeProgram(kind, *scheme, 1, 2);
    benchmark::DoNotOptimize(arena);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// The warm path: restore a ready-to-query scheme from an existing
/// arena (bind the arena as the scheme's view + cheap deterministic aux
/// rebuild).
void BM_ProgramRestore(benchmark::State& state, SchemeKind kind) {
  const auto dataset = BenchDataset(static_cast<int>(state.range(0)));
  const BucketGeometry geometry;
  auto scheme = BuildScheme(kind, dataset, geometry).value();
  auto arena = std::make_shared<const ProgramArena>(
      FlattenSchemeProgram(kind, *scheme, 1, 2).value());
  for (auto _ : state) {
    auto restored =
        RestoreSchemeFromArena(arena, dataset, geometry, SchemeParams());
    benchmark::DoNotOptimize(restored);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// The warm path's disk half: LoadFile of one program snapshot (read,
/// checksum, validate), here a distributed program written to a temporary
/// directory. Items processed = records.
void BM_SnapshotLoad(benchmark::State& state) {
  const auto dataset = BenchDataset(static_cast<int>(state.range(0)));
  auto scheme =
      BuildScheme(SchemeKind::kDistributed, dataset, BucketGeometry()).value();
  const std::string path =
      (std::filesystem::temp_directory_path() / "bm_snapshot_load.snap")
          .string();
  if (!ProgramSnapshot::WriteFile(
           path, FlattenSchemeProgram(SchemeKind::kDistributed, *scheme, 1, 2)
                     .value())
           .ok()) {
    state.SkipWithError("cannot write the snapshot");
    return;
  }
  for (auto _ : state) {
    auto loaded = ProgramSnapshot::LoadFile(path);
    benchmark::DoNotOptimize(loaded);
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// The cold path's disk half: WriteFile of the program BM_SnapshotLoad
/// reads (checksum, temporary file, rename). Items processed = records.
void BM_SnapshotWrite(benchmark::State& state) {
  const auto dataset = BenchDataset(static_cast<int>(state.range(0)));
  auto scheme =
      BuildScheme(SchemeKind::kDistributed, dataset, BucketGeometry()).value();
  const ProgramArena arena =
      FlattenSchemeProgram(SchemeKind::kDistributed, *scheme, 1, 2).value();
  const std::string path =
      (std::filesystem::temp_directory_path() / "bm_snapshot_write.snap")
          .string();
  for (auto _ : state) {
    if (!ProgramSnapshot::WriteFile(path, arena).ok()) {
      state.SkipWithError("cannot write the snapshot");
      break;
    }
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// The program cache's dataset key: DatasetFingerprint over every key and
/// attribute of a generated dataset. Items processed = records.
void BM_DatasetFingerprint(benchmark::State& state) {
  const auto dataset = BenchDataset(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DatasetFingerprint(*dataset));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// Dataset::Generate at the paper's 25-byte keys: records, attributes and
/// the query-side helpers (absent keys, key lookup). Items processed =
/// records.
void BM_DatasetGenerate(benchmark::State& state) {
  DatasetConfig config;
  config.num_records = static_cast<int>(state.range(0));
  config.key_width = 25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dataset::Generate(config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// Dataset::FindIndex over keys drawn as RequestGenerator draws them at
/// data availability 0.5: uniform present keys and interleaved absent
/// keys. Items processed = lookups.
void BM_FindIndex(benchmark::State& state) {
  const auto dataset = BenchDataset(static_cast<int>(state.range(0)));
  RequestGenerator generator(dataset.get(), 0.5, 1000.0, Rng(1));
  std::vector<std::string_view> keys(4096);
  for (std::string_view& key : keys) key = generator.NextQuery().key;
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dataset->FindIndex(keys[next]));
    next = (next + 1) % keys.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Access(benchmark::State& state, SchemeKind kind) {
  const int n = static_cast<int>(state.range(0));
  const auto dataset = BenchDataset(n);
  const BucketGeometry geometry;
  auto scheme = BuildScheme(kind, dataset, geometry).value();
  Rng rng(1);
  Bytes t = 0;
  for (auto _ : state) {
    const int record = static_cast<int>(
        rng.NextBounded(static_cast<std::uint64_t>(n)));
    t += 12345;
    benchmark::DoNotOptimize(scheme->Access(dataset->record(record).key, t));
  }
  state.SetItemsProcessed(state.iterations());
}

/// One multichannel walk over a (1,m) base at 4 channels with BM_Access's
/// draw loop: the index descent, the leaf hop to a data channel, or the
/// directory read and the home partition's own walk, all over the
/// channels' arena views. Items processed = walks.
void BM_MultiChannelAccess(benchmark::State& state,
                           ChannelAllocation allocation) {
  const int n = static_cast<int>(state.range(0));
  const auto dataset = BenchDataset(n);
  MultiChannelParams multichannel;
  multichannel.num_channels = 4;
  multichannel.switch_cost_bytes = 120;
  multichannel.allocation = allocation;
  auto program =
      MultiChannelProgram::Build(SchemeKind::kOneM, dataset, BucketGeometry(),
                                 SchemeParams(), multichannel)
          .value();
  Rng rng(1);
  Bytes t = 0;
  for (auto _ : state) {
    const int record = static_cast<int>(
        rng.NextBounded(static_cast<std::uint64_t>(n)));
    t += 12345;
    benchmark::DoNotOptimize(program->Access(dataset->record(record).key, t));
  }
  state.SetItemsProcessed(state.iterations());
}

/// One Zipf(0.9) rank draw over n ranks (the guide-table lookup plus
/// its NextDouble) — the request generator's, the MutationLog's and the
/// fleet's skewed draw. Items processed = draws.
void BM_ZipfSample(benchmark::State& state) {
  const ZipfDistribution zipf(static_cast<int>(state.range(0)), 0.9);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
  state.SetItemsProcessed(state.iterations());
}

/// End-to-end hot path: one full replication (requests_per_round arrivals
/// through the request draws and access walks, then the completion fold
/// into the accumulators) against a pre-built channel. Items processed =
/// requests, so google-benchmark's items/s column reads directly as
/// requests per second.
void BM_RunReplication(benchmark::State& state, SchemeKind kind) {
  TestbedConfig config;
  config.scheme = kind;
  config.num_records = static_cast<int>(state.range(0));
  config.requests_per_round = 200;
  config.seed = 7;
  const auto dataset = BuildTestbedDataset(config).value();
  const auto server =
      BroadcastServer::Create(kind, dataset, config.geometry, config.params)
          .value();
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunReplication(server, *dataset, config, ReplicationSeed(7, id++)));
  }
  state.SetItemsProcessed(state.iterations() * config.requests_per_round);
}

/// One engine sweep over flat, distributed, hashing and signature at
/// 7000 records, each cell's program restored from a warm snapshot
/// directory, at jobs 2: the per-cell set-up (dataset, restore, Zipf
/// table) and the replications it runs beside. A fresh engine per
/// iteration, so every iteration restores from the files. Counters: the
/// pool's worker utilization and the coordinator's set-up seconds, per
/// sweep.
void BM_SweepFromSnapshots(benchmark::State& state) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "bm_sweep_from_snapshots";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<TestbedConfig> configs;
  std::unique_ptr<ProgramCache> warm;
  for (const SchemeKind kind : {SchemeKind::kFlat, SchemeKind::kDistributed,
                                SchemeKind::kHashing, SchemeKind::kSignature}) {
    TestbedConfig config;
    config.scheme = kind;
    config.num_records = 7000;
    config.requests_per_round = 200;
    config.min_rounds = 20;
    config.seed = 7;
    config.program_cache_dir = dir.string();
    if (!BuildTestbedServer(config, &warm).ok()) {
      state.SkipWithError("cannot warm the snapshot directory");
      return;
    }
    configs.push_back(config);
  }
  double utilization = 0.0;
  double setup_seconds = 0.0;
  for (auto _ : state) {
    ParallelExperiment experiment({.jobs = 2});
    std::vector<Result<SimulationResult>> results =
        experiment.RunSweep(configs);
    benchmark::DoNotOptimize(results);
    utilization += experiment.timing().worker_utilization();
    setup_seconds += experiment.timing().setup_seconds;
  }
  const double sweeps = static_cast<double>(state.iterations());
  state.counters["worker_utilization"] = utilization / sweeps;
  state.counters["setup_seconds"] = setup_seconds / sweeps;
  std::filesystem::remove_all(dir);
}

/// Fleet hot path: one shard of the struct-of-arrays population engine
/// (client/fleet.h) advanced through all of its queries against a
/// pre-built (1,m) channel. Items processed = clients, so
/// google-benchmark's items/s column reads directly as clients per
/// second — the figure to hold against BM_RunReplication's requests/s
/// when sizing a fleet sweep.
void BM_FleetShard(benchmark::State& state) {
  TestbedConfig config;
  config.scheme = SchemeKind::kOneM;
  config.num_records = 4000;
  config.seed = 7;
  const auto dataset = BuildTestbedDataset(config).value();
  const auto server =
      BroadcastServer::Create(config.scheme, dataset, config.geometry,
                              config.params)
          .value();
  FleetParams params;
  params.fleet_size = state.range(0);
  params.queries_per_client = 8;
  params.cache_capacity = 64;
  params.session_length = 4;
  params.repeat_probability = 0.25;
  params.zipf_theta = 0.9;
  params.seed = 7;
  const ZipfDistribution zipf(dataset->size(), params.zipf_theta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunFleetShard(server.scheme(), *dataset, params,
                                           0, params.fleet_size, &zipf));
  }
  state.SetItemsProcessed(state.iterations() * params.fleet_size);
}

/// One epoch of incremental maintenance per iteration: the runtime
/// draws rate * N mutations and patches each into the live (1,m)
/// program in place as it is drawn (free-list recycling, no rebuild).
/// Items processed = mutations, so google-benchmark's items/s column
/// reads directly as patches per second. Hold against BM_FullRebuild:
/// the rebuild's per-epoch cost is flat in the update rate while
/// patching is linear, so the break-even update rate is where the two
/// items/s figures cross. `update_zipf` skews the mutation targets; the
/// 7,000-record Zipf 0.7 case is the draw mix of perfbench's
/// skew_cache_updates workload.
void BM_IncrementalPatch(benchmark::State& state, double update_zipf) {
  const int n = static_cast<int>(state.range(0));
  const auto dataset = BenchDataset(n);
  const BucketGeometry geometry;
  auto scheme = BuildScheme(SchemeKind::kOneM, dataset, geometry).value();
  const Bytes epoch = scheme->view().cycle_bytes();
  DynamicRuntime runtime;
  DynamicRuntime::Params params;
  params.kind = SchemeKind::kOneM;
  params.universe = dataset;
  params.geometry = geometry;
  params.update_rate = 4.0;
  params.update_zipf = update_zipf;
  params.compact_every = 0;
  params.seed = 7;
  params.epoch_bytes = epoch;
  params.base_scheme = scheme.get();
  if (!runtime.Start(std::move(params)).ok()) {
    state.SkipWithError("runtime start failed");
    return;
  }
  Bytes now = 1;
  for (auto _ : state) {
    now += epoch;
    runtime.AdvanceTo(now);
    benchmark::DoNotOptimize(runtime.counters().mutations);
  }
  state.SetItemsProcessed(runtime.counters().mutations);
}

/// The alternative discipline: every epoch materializes the live dataset
/// and rebuilds the whole program from scratch (the compaction path).
/// Items processed = mutations absorbed, as in BM_IncrementalPatch. The
/// 7,000-record argument is the cell size of perfbench's
/// skew_cache_updates workload.
void BM_FullRebuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto dataset = BenchDataset(n);
  const BucketGeometry geometry;
  auto scheme = BuildScheme(SchemeKind::kOneM, dataset, geometry).value();
  const Bytes epoch = scheme->view().cycle_bytes();
  DynamicRuntime runtime;
  DynamicRuntime::Params params;
  params.kind = SchemeKind::kOneM;
  params.universe = dataset;
  params.geometry = geometry;
  params.update_rate = 4.0;
  params.compact_every = 0;  // compaction forced below, every epoch
  params.seed = 7;
  params.epoch_bytes = epoch;
  params.base_scheme = scheme.get();
  if (!runtime.Start(std::move(params)).ok()) {
    state.SkipWithError("runtime start failed");
    return;
  }
  Bytes now = 1;
  for (auto _ : state) {
    now += epoch;
    runtime.AdvanceTo(now);
    if (!runtime.ForceCompact()) {
      state.SkipWithError("compaction failed");
      return;
    }
  }
  state.SetItemsProcessed(runtime.counters().mutations);
}

void BM_RngUint64(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextUint64());
  }
}

void BM_RngExponential(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextExponential(500.0));
  }
}

BENCHMARK_CAPTURE(BM_ChannelBuild, flat, SchemeKind::kFlat)->Arg(34000);
BENCHMARK_CAPTURE(BM_ChannelBuild, one_m, SchemeKind::kOneM)->Arg(34000);
BENCHMARK_CAPTURE(BM_ChannelBuild, distributed, SchemeKind::kDistributed)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_ChannelBuild, hashing, SchemeKind::kHashing)->Arg(34000);
BENCHMARK_CAPTURE(BM_ChannelBuild, signature, SchemeKind::kSignature)
    ->Arg(34000);

BENCHMARK_CAPTURE(BM_ProgramBuild, flat, SchemeKind::kFlat)->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramBuild, one_m, SchemeKind::kOneM)->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramBuild, distributed, SchemeKind::kDistributed)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramBuild, hashing, SchemeKind::kHashing)->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramBuild, signature, SchemeKind::kSignature)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramBuild, integrated_signature,
                  SchemeKind::kIntegratedSignature)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramBuild, multilevel_signature,
                  SchemeKind::kMultiLevelSignature)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramBuild, broadcast_disks,
                  SchemeKind::kBroadcastDisks)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramBuild, hybrid, SchemeKind::kHybrid)->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramRestore, flat, SchemeKind::kFlat)->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramRestore, one_m, SchemeKind::kOneM)->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramRestore, distributed, SchemeKind::kDistributed)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramRestore, hashing, SchemeKind::kHashing)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramRestore, signature, SchemeKind::kSignature)
    ->Arg(34000);
BENCHMARK(BM_SnapshotLoad)->Arg(34000);
BENCHMARK(BM_SnapshotWrite)->Arg(34000);
BENCHMARK(BM_DatasetFingerprint)->Arg(34000);
BENCHMARK(BM_DatasetGenerate)->Arg(4000)->Arg(34000);
BENCHMARK(BM_FindIndex)->Arg(2000)->Arg(34000);

BENCHMARK_CAPTURE(BM_Access, flat, SchemeKind::kFlat)->Arg(34000);
BENCHMARK_CAPTURE(BM_Access, one_m, SchemeKind::kOneM)->Arg(34000);
BENCHMARK_CAPTURE(BM_Access, distributed, SchemeKind::kDistributed)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_Access, hashing, SchemeKind::kHashing)->Arg(34000);
BENCHMARK_CAPTURE(BM_Access, signature, SchemeKind::kSignature)->Arg(34000);
BENCHMARK_CAPTURE(BM_Access, broadcast_disks, SchemeKind::kBroadcastDisks)
    ->Arg(34000);

BENCHMARK_CAPTURE(BM_MultiChannelAccess, index_on_one,
                  ChannelAllocation::kIndexOnOne)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_MultiChannelAccess, data_partitioned,
                  ChannelAllocation::kDataPartitioned)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_MultiChannelAccess, replicated_index,
                  ChannelAllocation::kReplicatedIndex)
    ->Arg(34000);

BENCHMARK_CAPTURE(BM_RunReplication, flat, SchemeKind::kFlat)->Arg(7000);
BENCHMARK_CAPTURE(BM_RunReplication, distributed, SchemeKind::kDistributed)
    ->Arg(7000);
BENCHMARK_CAPTURE(BM_RunReplication, signature, SchemeKind::kSignature)
    ->Arg(7000);

BENCHMARK(BM_SweepFromSnapshots)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_FleetShard)->Arg(1000)->Arg(10000);

BENCHMARK_CAPTURE(BM_IncrementalPatch, uniform, 0.0)->Arg(34000);
BENCHMARK_CAPTURE(BM_IncrementalPatch, zipf_0_7, 0.7)->Arg(7000);
BENCHMARK(BM_FullRebuild)->Arg(7000)->Arg(34000);

BENCHMARK(BM_ZipfSample)->Arg(4000)->Arg(7000)->Arg(34000);
BENCHMARK(BM_RngUint64);
BENCHMARK(BM_RngExponential);

/// Console reporter that also captures each run's name and per-iteration
/// wall time, so --json can emit them in the shared report schema.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Run {
    std::string name;
    double real_ns_per_iter;
    std::int64_t iterations;
  };

  bool ReportContext(const Context& context) override {
    return benchmark::ConsoleReporter::ReportContext(context);
  }

  void ReportRuns(const std::vector<benchmark::BenchmarkReporter::Run>& runs)
      override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      runs_.push_back({run.benchmark_name(),
                       run.GetAdjustedRealTime(),
                       static_cast<std::int64_t>(run.iterations)});
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

int Main(int argc, char** argv) {
  // Split off --json before handing the rest to google-benchmark (it
  // rejects flags it does not know).
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int passthrough_argc = static_cast<int>(passthrough.size());

  benchmark::Initialize(&passthrough_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(passthrough_argc,
                                             passthrough.data())) {
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (json_path.empty()) return 0;
  BenchReport report;
  report.bench = "micro_benchmarks";
  for (const CapturingReporter::Run& run : reporter.runs()) {
    BenchPoint point;
    point.labels = {{"benchmark", run.name}};
    point.metrics = {{"real_ns_per_iter",
                      BenchMetricValue{run.real_ns_per_iter, 0.0, true}}};
    point.replications = 1;
    point.requests = run.iterations;
    report.points.push_back(std::move(point));
  }
  if (Status s = WriteJsonFile(json_path, BenchReportToJson(report));
      !s.ok()) {
    std::cerr << "json report failed: " << s.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace airindex

int main(int argc, char** argv) { return airindex::Main(argc, argv); }
