// airbench — measurement program of the repository benchmark.
//
// Runs one named workload of the testbed from a single process and prints
// one JSON report line for run.py, which checks the simulated outputs and
// formats the result (perfbench/README.md):
//
//  - untraced (--trace 0): set-up is timed several times — dataset
//    generation plus a cold program build for every cell, each time into
//    a fresh snapshot directory — then the sweep (ParallelExperiment::
//    RunSweep or FleetExperiment::Run, pointed at the last directory so it
//    restores programs instead of building them) repeats until --seconds
//    have elapsed;
//  - traced (--trace 1): one set-up, one untraced reference sweep, then
//    traced passes that call the layers' public entry points inside spans
//    until --seconds have elapsed.
//
// Every timing is host time taken around calls into the library; the
// program under test is used only through its public headers.
//
// Usage: airbench --workload NAME --work-dir DIR [--seed N] [--seconds S]
//                 [--trace 0|1] [--jobs N] [--toy] [--spans-out PATH]

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "broadcast/snapshot.h"
#include "client/fleet.h"
#include "client/session_client.h"
#include "core/broadcast_server.h"
#include "core/deadline.h"
#include "core/experiment.h"
#include "core/fleet_runner.h"
#include "core/program_cache.h"
#include "core/request_generator.h"
#include "core/simulator.h"
#include "core/testbed_config.h"
#include "core/thread_pool.h"
#include "des/random.h"
#include "des/zipf.h"
#include "dynamic/dynamic_program.h"
#include "schemes/scheme.h"

namespace airindex::perfbench {
namespace {

// ------------------------------------------------------------------ clocks

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kProcessStart)
      .count();
}

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// User plus system CPU seconds of the whole process (every thread).
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

/// Resident-set high-water mark of the process (Linux reports KiB).
double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Nearest-rank percentile; 0 when there are no samples.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// -------------------------------------------------------------------- JSON

std::string Quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// %.17g round-trips a double exactly, so run.py compares the same bits.
std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Int(std::int64_t value) { return std::to_string(value); }

/// An ordered JSON object assembled from already-encoded values.
class JsonObject {
 public:
  JsonObject& Add(std::string_view key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += Quote(key) + ":" + value;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

// --------------------------------------------------------------- workloads

/// The schemes the workloads use, in per-layer metric order.
constexpr SchemeKind kNamedSchemes[] = {
    SchemeKind::kFlat, SchemeKind::kOneM, SchemeKind::kDistributed,
    SchemeKind::kHashing, SchemeKind::kSignature};
const char* const kSchemeNames[] = {"flat", "one_m", "distributed", "hashing",
                                    "signature"};
constexpr int kNumNamedSchemes = 5;
constexpr std::uint8_t kNoTag = 0xff;

std::uint8_t SchemeSlot(SchemeKind kind) {
  for (int i = 0; i < kNumNamedSchemes; ++i) {
    if (kNamedSchemes[i] == kind) return static_cast<std::uint8_t>(i);
  }
  return kNoTag;
}

std::string SchemeLabel(SchemeKind kind) {
  return kSchemeNames[SchemeSlot(kind)];
}

struct Workload {
  std::string name;
  /// Worker threads of the replication or fleet engine. Each engine is a
  /// closed loop that keeps its own in-flight window over these workers.
  int jobs = 2;
  std::vector<TestbedConfig> cells;
  std::vector<std::string> labels;
  bool fleet = false;
  FleetOptions fleet_options;
  /// Cheap cells rerun with one worker, to check that outputs do not
  /// depend on the worker count.
  std::vector<std::size_t> check_cells;
  /// Replication ids of each cell in one traced pass.
  int traced_replications = 4;
  /// Clients whose request streams the traced fleet pass walks.
  int mirrored_clients = 2000;
};

/// Adaptive-stop settings of the toy workloads (self-test only).
void MakeToy(TestbedConfig* config) {
  config->requests_per_round = 100;
  config->min_rounds = 3;
  config->max_rounds = 6;
}

std::optional<Workload> MakeWorkload(const std::string& name,
                                     std::uint64_t seed, bool toy) {
  Workload w;
  w.name = name;
  // Every cell's master seed — and with it the generated dataset, the
  // request streams and the mutation streams — derives from --seed.
  const std::uint64_t base = seed * 100003ULL;
  if (name == "paper_fig4") {
    // Figure 4 at Table 1 settings: the paper's stateless client, uniform
    // requests, adaptive stop after at least 100 rounds of 500 requests.
    const std::vector<int> records =
        toy ? std::vector<int>{2000, 5000}
            : std::vector<int>{2000,  5000,  7000,  11500, 16000,
                               20500, 25000, 29500, 34000};
    for (const int n : records) {
      for (const SchemeKind kind :
           {SchemeKind::kFlat, SchemeKind::kDistributed, SchemeKind::kHashing,
            SchemeKind::kSignature}) {
        TestbedConfig config;
        config.scheme = kind;
        config.num_records = n;
        config.seed = base + static_cast<std::uint64_t>(n);
        if (toy) MakeToy(&config);
        if (n == records.front()) w.check_cells.push_back(w.cells.size());
        w.cells.push_back(config);
        w.labels.push_back(SchemeLabel(kind) + "/" + std::to_string(n));
      }
    }
    w.traced_replications = toy ? 2 : 4;
  } else if (name == "skew_cache_updates") {
    // Reads beside writes: Zipf requests through a session cache while
    // the server mutates records and compacts every 4 epochs.
    const int n = toy ? 1000 : 7000;
    for (const SchemeKind kind : {SchemeKind::kOneM, SchemeKind::kDistributed,
                                  SchemeKind::kHashing}) {
      for (const int rate : {1, 4}) {
        TestbedConfig config;
        config.scheme = kind;
        config.num_records = n;
        config.zipf_theta = 0.9;
        config.client.cache_capacity = 64;
        config.client.cache_policy = CachePolicy::kLru;
        config.client.session_length = 8;
        config.client.repeat_probability = 0.25;
        config.client.update_rate = rate;
        config.client.update_zipf = 0.7;
        config.client.compact_every = 4;
        config.seed = base + static_cast<std::uint64_t>(n);
        // A fixed 50 rounds of 500 requests per cell: the adaptive stop
        // would let the seed shift the mix between cheap rate-1 and
        // costly rate-4 cells (paper_fig4 keeps the adaptive stop).
        config.min_rounds = 50;
        config.max_rounds = 50;
        if (toy) MakeToy(&config);
        if (rate == 1 && kind != SchemeKind::kDistributed) {
          w.check_cells.push_back(w.cells.size());
        }
        w.cells.push_back(config);
        w.labels.push_back(SchemeLabel(kind) + "/rate" + std::to_string(rate));
      }
    }
    w.traced_replications = toy ? 2 : 8;
  } else if (name == "fleet_population") {
    // fig_fleet's large cell: one (1,m) cycle shared by a million cached
    // clients, arrivals spread over several cycles.
    TestbedConfig config;
    config.scheme = SchemeKind::kOneM;
    config.num_records = toy ? 1000 : 4000;
    config.zipf_theta = 0.9;
    config.client.cache_capacity = 64;
    config.client.session_length = 4;
    config.client.repeat_probability = 0.25;
    config.mean_request_interval_bytes = 10'000'000.0;
    config.seed = base + static_cast<std::uint64_t>(config.num_records);
    w.cells.push_back(config);
    w.labels.push_back("one_m/fleet");
    w.check_cells.push_back(0);
    w.fleet = true;
    w.fleet_options.fleet_size = toy ? 5000 : 1'000'000;
    w.fleet_options.queries_per_client = 8;
    w.fleet_options.shards = 64;
    w.mirrored_clients = toy ? 200 : 2000;
  } else {
    return std::nullopt;
  }
  return w;
}

// ----------------------------------------------------------------- outputs

std::string MetricsJson(const MetricsRegistry& metrics) {
  JsonObject out;
  for (const MetricsRegistry::Entry& entry : metrics.entries()) {
    out.Add(entry.name, Int(entry.value));
  }
  return out.str();
}

/// The simulated outputs of one replication-engine cell that the
/// committed reference pins.
std::string SimulationOutputs(const SimulationResult& sim) {
  return JsonObject()
      .Add("requests", Int(sim.requests))
      .Add("rounds", Int(sim.rounds))
      .Add("converged", sim.converged ? "true" : "false")
      .Add("access_mean", Num(sim.access.mean()))
      .Add("tuning_mean", Num(sim.tuning.mean()))
      .Add("probes_mean", Num(sim.probes.mean()))
      .Add("access_p99", Int(sim.access_histogram.p99()))
      .Add("tuning_p99", Int(sim.tuning_histogram.p99()))
      .Add("found", Int(sim.found))
      .Add("abandoned", Int(sim.abandoned))
      .Add("false_drops", Int(sim.false_drops))
      .Add("anomalies", Int(sim.anomalies))
      .Add("outcome_mismatches", Int(sim.outcome_mismatches))
      .Add("cycle_bytes", Int(sim.cycle_bytes))
      .Add("num_buckets", Int(sim.num_buckets))
      .Add("metrics", MetricsJson(sim.metrics))
      .str();
}

std::string FleetOutputs(const FleetRunResult& run) {
  const FleetShardResult& t = run.totals;
  return JsonObject()
      .Add("clients", Int(t.clients))
      .Add("queries", Int(t.queries))
      .Add("found", Int(t.found))
      .Add("cache_hits", Int(t.cache_hits))
      .Add("cache_misses", Int(t.cache_misses))
      .Add("access_bytes", Int(t.access_bytes))
      .Add("tuning_bytes", Int(t.tuning_bytes))
      .Add("index_probes", Int(t.index_probes))
      .Add("bucket_probes", Int(t.bucket_probes))
      .Add("wake_events", Int(t.wake_events))
      .Add("cycle_bytes", Int(run.cycle_bytes))
      .Add("num_buckets", Int(run.num_buckets))
      .Add("metrics", MetricsJson(run.metrics))
      .str();
}

/// Client-visible fleet totals, which do not depend on the shard count.
bool SameClientTotals(const FleetShardResult& a, const FleetShardResult& b) {
  return a.clients == b.clients && a.queries == b.queries &&
         a.found == b.found && a.cache_hits == b.cache_hits &&
         a.cache_misses == b.cache_misses &&
         a.access_bytes == b.access_bytes &&
         a.tuning_bytes == b.tuning_bytes &&
         a.index_probes == b.index_probes &&
         a.bucket_probes == b.bucket_probes && a.wake_events == b.wake_events;
}

// ----------------------------------------------------------------- tracing

enum SpanName : std::uint8_t {
  kSetup,
  kDataGenerate,
  kSchemesBuild,
  kBroadcastFlatten,
  kBroadcastSnapshotWrite,
  kBroadcastRestore,
  kCoreSweep,
  kCoreTracedPass,
  kCoreReplication,
  kSchemesAccess,
  kClientSessionAccess,
  kDynamicAccess,
  kDynamicAdvance,
  kDynamicCompact,
  kFleetRun,
  kFleetShard,
  kFleetMirror,
  kNumSpanNames,
};

const char* const kSpanNames[kNumSpanNames] = {
    "setup",           "data.generate",        "schemes.build",
    "broadcast.flatten", "broadcast.snapshot_write", "broadcast.restore",
    "core.sweep",      "core.traced_pass",     "core.replication",
    "schemes.access",  "client.session_access", "dynamic.access",
    "dynamic.advance", "dynamic.compact",      "fleet.run",
    "fleet.shard",     "fleet.mirror",
};

/// One timed call into a layer. `parent` is the span that caused it (0:
/// none); `group` is shared by the spans of one replication or fleet
/// shard. A `mirror` span replays part of its parent's work right after
/// the parent ended — the replication's walks, driven with the same
/// request stream — so it is the parent's logical child but lies outside
/// the parent's interval.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint32_t group = 0;
  SpanName name = kSetup;
  /// Scheme slot of walk, build and replication spans.
  std::uint8_t tag = kNoTag;
  bool mirror = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Units of work inside the span (epochs, for dynamic.advance).
  std::int64_t work = 1;
};

/// Spans of the whole run, kept in memory until the run ends.
class Tracer {
 public:
  std::uint32_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  void Commit(std::vector<Span>* spans) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), spans->begin(), spans->end());
    spans->clear();
  }

  /// Every committed span; read after the workers have finished.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::atomic<std::uint32_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// One thread's span list, handed to the tracer when it goes out of scope.
class SpanBuffer {
 public:
  explicit SpanBuffer(Tracer* tracer) : tracer_(tracer) {}
  ~SpanBuffer() { tracer_->Commit(&spans_); }
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  Span Open(SpanName name, std::uint32_t parent, std::uint32_t group,
            bool mirror = false, std::uint8_t tag = kNoTag) {
    Span span;
    span.id = tracer_->NextId();
    span.parent = parent;
    span.group = group;
    span.name = name;
    span.tag = tag;
    span.mirror = mirror;
    span.start_ns = NowNs();
    return span;
  }

  void Close(Span span) {
    span.end_ns = NowNs();
    spans_.push_back(span);
  }

 private:
  Tracer* tracer_;
  std::vector<Span> spans_;
};

/// Walk spans beyond this many are left out of the spans file (they are
/// leaves, so no written span loses its parent); the metrics use all.
constexpr std::size_t kMaxWrittenWalkSpans = 200000;

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "id\tparent\tgroup\tname\ttag\tmirror\tstart_ns\tend_ns"
                     "\twork\n");
  std::size_t walks = 0;
  for (const Span& s : spans) {
    if (s.name == kSchemesAccess && ++walks > kMaxWrittenWalkSpans) continue;
    std::fprintf(file, "%u\t%u\t%u\t%s\t%d\t%d\t%lld\t%lld\t%lld\n", s.id,
                 s.parent, s.group, kSpanNames[s.name],
                 s.tag == kNoTag ? -1 : static_cast<int>(s.tag),
                 s.mirror ? 1 : 0, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.work));
  }
  return std::fclose(file) == 0;
}

// ------------------------------------------------------------------- setup

/// Gives every cell its dataset. Cells with the same generation inputs
/// share one, generated here through BuildTestbedDataset; the program
/// receives the generated data through TestbedConfig::dataset. With a
/// span buffer, each generation is a data.generate span under `parent`.
Status GenerateDatasets(std::vector<TestbedConfig>* cells,
                        SpanBuffer* spans = nullptr,
                        std::uint32_t parent = 0) {
  for (std::size_t i = 0; i < cells->size(); ++i) {
    TestbedConfig& cell = (*cells)[i];
    cell.dataset = nullptr;
    for (std::size_t j = 0; j < i; ++j) {
      const TestbedConfig& other = (*cells)[j];
      if (other.num_records == cell.num_records && other.seed == cell.seed &&
          other.geometry.key_bytes == cell.geometry.key_bytes &&
          other.num_attributes == cell.num_attributes &&
          other.attribute_width == cell.attribute_width) {
        cell.dataset = other.dataset;
        break;
      }
    }
    if (cell.dataset != nullptr) continue;
    std::optional<Span> span;
    if (spans != nullptr) span = spans->Open(kDataGenerate, parent, 0);
    Result<std::shared_ptr<const Dataset>> dataset = BuildTestbedDataset(cell);
    if (span) spans->Close(*span);
    if (!dataset.ok()) return dataset.status();
    cell.dataset = std::move(dataset).value();
  }
  return Status::Ok();
}

/// One untraced set-up: dataset generation plus a cold program build of
/// every cell into the empty snapshot directory `dir`. Returns seconds.
Result<double> TimedSetup(std::vector<TestbedConfig>* cells,
                          const std::string& dir) {
  const std::int64_t start = NowNs();
  if (Status s = GenerateDatasets(cells); !s.ok()) return s;
  ProgramCache cache(dir);
  for (const TestbedConfig& cell : *cells) {
    Result<std::unique_ptr<BroadcastScheme>> scheme = cache.GetOrBuild(
        cell.scheme, cell.dataset, cell.geometry, ResolvedSchemeParams(cell));
    if (!scheme.ok()) return scheme.status();
  }
  return SecondsSince(start);
}

/// The traced set-up: the steps of a cold ProgramCache::GetOrBuild —
/// build, flatten, snapshot write — called one by one inside spans, then
/// a snapshot load and restore of each distinct program. It writes the
/// files GetOrBuild would, so later sweeps restore from `dir`.
Status TracedSetup(std::vector<TestbedConfig>* cells, const std::string& dir,
                   Tracer* tracer, double* arena_bytes) {
  SpanBuffer spans(tracer);
  const Span setup = spans.Open(kSetup, 0, 0);
  if (Status s = GenerateDatasets(cells, &spans, setup.id); !s.ok()) return s;
  const ProgramCache cache(dir);
  std::vector<std::string> written;
  for (const TestbedConfig& cell : *cells) {
    const SchemeParams params = ResolvedSchemeParams(cell);
    const std::uint64_t dataset_fp = DatasetFingerprint(*cell.dataset);
    const std::uint64_t params_fp =
        ProgramParamsFingerprint(cell.scheme, cell.geometry, params);
    const std::string path =
        cache.SnapshotPath(cell.scheme, dataset_fp, params_fp);
    if (std::find(written.begin(), written.end(), path) != written.end()) {
      continue;
    }
    written.push_back(path);
    const std::uint8_t slot = SchemeSlot(cell.scheme);

    Span span = spans.Open(kSchemesBuild, setup.id, 0, false, slot);
    Result<std::unique_ptr<BroadcastScheme>> built =
        BuildScheme(cell.scheme, cell.dataset, cell.geometry, params);
    spans.Close(span);
    if (!built.ok()) return built.status();

    span = spans.Open(kBroadcastFlatten, setup.id, 0, false, slot);
    Result<ProgramArena> arena =
        FlattenSchemeProgram(cell.scheme, *built.value(), dataset_fp,
                             params_fp);
    spans.Close(span);
    if (!arena.ok()) return arena.status();
    *arena_bytes += static_cast<double>(arena.value().bytes().size());

    span = spans.Open(kBroadcastSnapshotWrite, setup.id, 0, false, slot);
    const Status status = ProgramSnapshot::WriteFile(path, arena.value());
    spans.Close(span);
    if (!status.ok()) return status;

    span = spans.Open(kBroadcastRestore, setup.id, 0, false, slot);
    Result<ProgramArena> loaded = ProgramSnapshot::LoadFile(path);
    if (!loaded.ok()) return loaded.status();
    Result<std::unique_ptr<BroadcastScheme>> restored = RestoreSchemeFromArena(
        std::make_shared<const ProgramArena>(std::move(loaded).value()),
        cell.dataset, cell.geometry, params);
    spans.Close(span);
    if (!restored.ok()) return restored.status();
  }
  spans.Close(setup);
  return Status::Ok();
}

// ------------------------------------------------------------------- sweep

struct CellRun {
  bool ok = false;
  std::string error;
  /// JSON object of the cell's simulated outputs.
  std::string outputs;
  std::int64_t queries = 0;
  /// Queries with a protocol anomaly or an outcome mismatch.
  std::int64_t failed_queries = 0;
};

struct SweepPass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Queries in merged replications (fleet: every fleet query).
  std::int64_t queries = 0;
  std::vector<CellRun> cells;
  RunTiming timing;
  MetricsRegistry program_cache;
  /// Telemetry counters summed over the cells.
  MetricsRegistry counters;
  std::int64_t signature_queries = 0;
  FleetShardResult fleet_totals;
};

/// Runs the cells `indices` once through the engine with `jobs` workers,
/// restoring their programs from the snapshot directory `dir`.
SweepPass RunSweepPass(const Workload& w,
                       const std::vector<std::size_t>& indices,
                       const std::string& dir, int jobs) {
  std::vector<TestbedConfig> configs;
  for (const std::size_t i : indices) {
    configs.push_back(w.cells[i]);
    configs.back().program_cache_dir = dir;
  }
  SweepPass pass;
  const double cpu_start = CpuSeconds();
  const std::int64_t start = NowNs();
  if (w.fleet) {
    FleetExperiment experiment({.jobs = jobs});
    Result<FleetRunResult> run =
        experiment.Run(configs.front(), w.fleet_options);
    pass.wall_s = SecondsSince(start);
    pass.cpu_s = CpuSeconds() - cpu_start;
    CellRun cell;
    if (run.ok()) {
      cell.ok = true;
      cell.outputs = FleetOutputs(run.value());
      cell.queries = run.value().totals.queries;
      pass.fleet_totals = run.value().totals;
      pass.counters = run.value().metrics;
    } else {
      cell.error = run.status().ToString();
    }
    pass.cells.push_back(std::move(cell));
    pass.timing = experiment.timing();
    if (experiment.program_cache() != nullptr) {
      pass.program_cache = experiment.program_cache()->MetricsSnapshot();
    }
  } else {
    ParallelExperiment experiment({.jobs = jobs});
    const std::vector<Result<SimulationResult>> runs =
        experiment.RunSweep(configs);
    pass.wall_s = SecondsSince(start);
    pass.cpu_s = CpuSeconds() - cpu_start;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      CellRun cell;
      if (runs[k].ok()) {
        const SimulationResult& sim = runs[k].value();
        cell.ok = true;
        cell.outputs = SimulationOutputs(sim);
        cell.queries = sim.requests;
        cell.failed_queries = sim.anomalies + sim.outcome_mismatches;
        pass.counters.Merge(sim.metrics);
        if (configs[k].scheme == SchemeKind::kSignature) {
          pass.signature_queries += sim.requests;
        }
      } else {
        cell.error = runs[k].status().ToString();
      }
      pass.cells.push_back(std::move(cell));
    }
    pass.timing = experiment.timing();
    if (experiment.program_cache() != nullptr) {
      pass.program_cache = experiment.program_cache()->MetricsSnapshot();
    }
  }
  for (const CellRun& cell : pass.cells) pass.queries += cell.queries;
  return pass;
}

std::string CellsJson(const Workload& w,
                      const std::vector<std::size_t>& indices,
                      const SweepPass& pass) {
  std::vector<std::string> items;
  for (std::size_t k = 0; k < pass.cells.size(); ++k) {
    const CellRun& cell = pass.cells[k];
    JsonObject item;
    item.Add("label", Quote(w.labels[indices[k]]))
        .Add("ok", cell.ok ? "true" : "false")
        .Add("queries", Int(cell.queries))
        .Add("failed_queries", Int(cell.failed_queries));
    if (cell.ok) {
      item.Add("outputs", cell.outputs);
    } else {
      item.Add("error", Quote(cell.error));
    }
    items.push_back(item.str());
  }
  return JsonArray(items);
}

// ------------------------------------------------------------ traced pass

/// Miss path of the mirrored session client, as the simulator's fetcher:
/// the dynamic overlay when updates are on, the plain walk otherwise.
class MirrorFetcher final : public RecordFetcher {
 public:
  MirrorFetcher(const BroadcastServer* server, const TestbedConfig* config,
                DynamicRuntime* dynamic, SpanBuffer* spans,
                std::uint32_t group, std::uint8_t slot)
      : server_(server),
        config_(config),
        dynamic_(dynamic),
        spans_(spans),
        group_(group),
        slot_(slot) {}

  /// Starts one session query; its fetches nest under span `parent`.
  void BeginQuery(std::uint32_t parent) {
    parent_ = parent;
    fetched_ = false;
  }
  bool fetched() const { return fetched_; }

  AccessResult Fetch(std::string_view key, Bytes tune_in) override {
    fetched_ = true;
    if (dynamic_->active()) {
      const Span span = spans_->Open(kDynamicAccess, parent_, group_);
      const AccessResult result =
          ApplyDeadline(dynamic_->Access(key, tune_in), config_->deadline);
      spans_->Close(span);
      return result;
    }
    const Span span =
        spans_->Open(kSchemesAccess, parent_, group_, false, slot_);
    const AccessResult result =
        ApplyDeadline(server_->Listen(key, tune_in), config_->deadline);
    spans_->Close(span);
    return result;
  }

 private:
  const BroadcastServer* server_;
  const TestbedConfig* config_;
  DynamicRuntime* dynamic_;
  SpanBuffer* spans_;
  std::uint32_t group_;
  std::uint8_t slot_;
  std::uint32_t parent_ = 0;
  bool fetched_ = false;
};

class MirrorVersions final : public DynamicVersionSource {
 public:
  explicit MirrorVersions(DynamicRuntime* runtime) : runtime_(runtime) {}
  std::int64_t Version(int record_index, Bytes now) override {
    return runtime_->VersionAt(record_index, now);
  }

 private:
  DynamicRuntime* runtime_;
};

struct MirrorTotals {
  std::int64_t requests = 0;
  std::int64_t found = 0;
  double access_sum = 0.0;
  double tuning_sum = 0.0;
  std::int64_t cache_hits = 0;
  DynamicCounters dynamic;
  bool started = true;
};

/// Replays one replication outside RunReplication: the same request
/// stream (same RNG splits, same arrival clock) driven through the walk,
/// session and dynamic entry points, each call a mirror span under
/// `replication_span`. The session and mutation seeds are the ones
/// core/simulator.cc derives. The returned totals let the caller check
/// the replay against the replication it mirrors.
MirrorTotals MirrorReplication(const BroadcastServer& server,
                               const std::shared_ptr<const Dataset>& dataset,
                               const TestbedConfig& config,
                               std::uint64_t replication_seed,
                               const ZipfDistribution* zipf,
                               SpanBuffer* spans,
                               std::uint32_t replication_span,
                               std::uint32_t group) {
  const std::uint8_t slot = SchemeSlot(config.scheme);
  Rng master(replication_seed);
  RequestGenerator generator(
      dataset.get(), config.data_availability,
      config.mean_request_interval_bytes, master.Split(), config.zipf_theta,
      zipf,
      SessionWorkload{config.client.session_length,
                      config.client.repeat_probability});

  MirrorTotals totals;
  std::uint32_t advance_span = 0;
  DynamicRuntime dynamic;
  if (config.client.update_rate > 0.0) {
    DynamicRuntime::Params params;
    params.kind = config.scheme;
    params.universe = dataset;
    params.geometry = config.geometry;
    params.scheme_params = ResolvedSchemeParams(config);
    params.update_rate = config.client.update_rate;
    params.update_zipf = config.client.update_zipf;
    params.compact_every = config.client.compact_every;
    params.seed = Mix64(replication_seed ^ 0xdc2a5ee0ULL);
    params.epoch_bytes = server.channel().cycle_bytes();
    params.base_scheme = &server.scheme();
    // Compaction rebuilds happen inside AdvanceTo; the hook times each one
    // as a child of the advance span that triggered it.
    params.builder = [spans, &advance_span, group, slot](
                         SchemeKind kind,
                         std::shared_ptr<const Dataset> data,
                         const BucketGeometry& geometry,
                         const SchemeParams& scheme_params) {
      const Span span =
          spans->Open(kDynamicCompact, advance_span, group, false, slot);
      Result<std::unique_ptr<BroadcastScheme>> built =
          BuildScheme(kind, std::move(data), geometry, scheme_params);
      spans->Close(span);
      return built;
    };
    totals.started = dynamic.Start(std::move(params)).ok();
  }

  MirrorFetcher fetcher(&server, &config, &dynamic, spans, group, slot);
  MirrorVersions versions(&dynamic);
  std::optional<SessionClient> session;
  if (config.client.cache_capacity > 0) {
    SessionClientParams params;
    params.cache_capacity = config.client.cache_capacity;
    params.cache_policy = config.client.cache_policy;
    if (config.client.update_rate > 0.0) {
      params.update_period = std::max<Bytes>(
          1, static_cast<Bytes>(std::llround(
                 static_cast<double>(server.channel().cycle_bytes()) /
                 config.client.update_rate)));
      params.update_seed = Mix64(config.seed ^ 0xc11e47caULL);
      params.validation_bytes = config.geometry.signature_bytes;
    }
    if (dynamic.active()) params.versions = &versions;
    session.emplace(dataset.get(), params, std::vector<double>{}, &fetcher);
  }

  Bytes now = 0;
  for (int i = 0; i < config.requests_per_round; ++i) {
    now += generator.NextInterArrival();
    const Query query = generator.NextQuery();
    if (dynamic.active()) {
      // Advance the mutation clock first, so epoch work and compactions
      // land in their own span; the calls below find it already at `now`.
      const std::int64_t before = dynamic.counters().cycles;
      Span span = spans->Open(kDynamicAdvance, replication_span, group, true);
      advance_span = span.id;
      dynamic.AdvanceTo(now);
      span.work = dynamic.counters().cycles - before;
      if (span.work > 0) spans->Close(span);
    }
    AccessResult access;
    if (session) {
      const Span span =
          spans->Open(kClientSessionAccess, replication_span, group, true);
      fetcher.BeginQuery(span.id);
      access = session->Access(query.key, now);
      spans->Close(span);
      if (fetcher.fetched() && dynamic.active()) {
        // The overlay's inner walk cannot be timed from outside, so the
        // live program's walk for the fetched key is timed once more on
        // its own (no parent) for the per-scheme walk percentiles.
        const Span probe = spans->Open(kSchemesAccess, 0, group, false, slot);
        static_cast<void>(dynamic.live_scheme().Access(query.key, now));
        spans->Close(probe);
      }
    } else if (dynamic.active()) {
      const Span span =
          spans->Open(kDynamicAccess, replication_span, group, true);
      access = ApplyDeadline(dynamic.Access(query.key, now), config.deadline);
      spans->Close(span);
    } else {
      const Span span =
          spans->Open(kSchemesAccess, replication_span, group, true, slot);
      access = ApplyDeadline(server.scheme().Access(query.key, now),
                             config.deadline);
      spans->Close(span);
    }
    if (dynamic.active()) {
      dynamic.ExpectedOnAir(query.on_air, query.key, now);
    }
    ++totals.requests;
    if (access.found) ++totals.found;
    totals.access_sum += static_cast<double>(access.access_time);
    totals.tuning_sum += static_cast<double>(access.tuning_time);
  }
  if (session) totals.cache_hits = session->hits();
  totals.dynamic = dynamic.counters();
  return totals;
}

bool MirrorMatches(const MirrorTotals& m, const ReplicationResult& r,
                   const TestbedConfig& config) {
  const auto close = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
  };
  if (!m.started || m.requests != r.requests || m.found != r.found ||
      !close(m.access_sum, r.access.sum()) ||
      !close(m.tuning_sum, r.tuning.sum())) {
    return false;
  }
  if (config.client.cache_capacity > 0 &&
      m.cache_hits != r.metrics.Get("client.cache_hits")) {
    return false;
  }
  if (config.client.update_rate > 0.0) {
    const DynamicCounters& d = m.dynamic;
    return d.cycles == r.metrics.Get("dynamic.cycles") &&
           d.rebuilt_cycles == r.metrics.Get("dynamic.rebuilt_cycles") &&
           d.queries == r.metrics.Get("dynamic.queries") &&
           d.dirty_queries == r.metrics.Get("dynamic.dirty_queries") &&
           d.delta_reads == r.metrics.Get("dynamic.delta_reads");
  }
  return true;
}

struct TracedRun {
  /// Queries executed by the traced engine calls.
  std::int64_t queries = 0;
  /// Wall seconds of the traced passes, mirrors included.
  double wall_s = 0.0;
  /// Replays or shard sets that disagreed with the untraced engine.
  int mismatches = 0;
};

/// Bounds the spans one traced run keeps in memory.
constexpr int kMaxTracedPasses = 64;

/// Traced passes of a replication workload: each pass runs replication
/// ids [pass * R, (pass + 1) * R) of every cell through RunReplication
/// (seed ReplicationSeed(cell seed, id)) in a core.replication span on a
/// pool of `jobs` workers, then mirrors it.
TracedRun TraceReplications(const Workload& w, const std::string& dir,
                            double seconds, Tracer* tracer,
                            std::vector<std::string>* errors) {
  TracedRun run;
  ProgramCache cache(dir);
  std::vector<BroadcastServer> servers;
  std::vector<std::shared_ptr<const ZipfDistribution>> zipfs;
  for (const TestbedConfig& cell : w.cells) {
    Result<BroadcastServer> server = BroadcastServer::Create(
        cell.scheme, cell.dataset, cell.geometry, ResolvedSchemeParams(cell),
        cell.multichannel, &cache);
    if (!server.ok()) {
      errors->push_back("traced server: " + server.status().ToString());
      return run;
    }
    servers.push_back(std::move(server).value());
    zipfs.push_back(cell.zipf_theta > 0.0
                        ? std::make_shared<const ZipfDistribution>(
                              cell.dataset->size(), cell.zipf_theta)
                        : nullptr);
  }

  ThreadPool pool(w.jobs);
  std::atomic<int> mismatches{0};
  std::atomic<std::int64_t> queries{0};
  std::uint32_t next_group = 0;
  const std::int64_t start = NowNs();
  int pass = 0;
  do {
    SpanBuffer root(tracer);
    const Span pass_span = root.Open(kCoreTracedPass, 0, 0);
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
      for (int k = 0; k < w.traced_replications; ++k) {
        const int id = pass * w.traced_replications + k;
        const std::uint32_t group = ++next_group;
        const std::uint32_t parent = pass_span.id;
        pool.Submit([&, c, id, group, parent]() {
          const TestbedConfig& config = w.cells[c];
          const std::uint64_t seed =
              ReplicationSeed(config.seed, static_cast<std::uint64_t>(id));
          SpanBuffer spans(tracer);
          const Span span = spans.Open(kCoreReplication, parent, group, false,
                                       SchemeSlot(config.scheme));
          const ReplicationResult result = RunReplication(
              servers[c], *config.dataset, config, seed, zipfs[c].get());
          spans.Close(span);
          const MirrorTotals mirror =
              MirrorReplication(servers[c], config.dataset, config, seed,
                                zipfs[c].get(), &spans, span.id, group);
          if (!MirrorMatches(mirror, result, config)) mismatches.fetch_add(1);
          queries.fetch_add(result.requests);
        });
      }
    }
    pool.Wait();
    root.Close(pass_span);
    ++pass;
  } while (SecondsSince(start) < seconds && pass < kMaxTracedPasses);
  run.wall_s = SecondsSince(start);
  run.queries = queries.load();
  run.mismatches = mismatches.load();
  return run;
}

/// Traced passes of the fleet workload: the fleet engine's shard loop
/// called shard by shard (RunFleetShard, one span each, with more shards
/// than the untraced run so the p90 has ten samples beyond it), checked
/// against the untraced totals, then the (1,m) walk timed over the first
/// clients' request streams.
TracedRun TraceFleet(const Workload& w, const std::string& dir,
                     double seconds, const FleetShardResult& expected,
                     Tracer* tracer, std::vector<std::string>* errors) {
  TracedRun run;
  const TestbedConfig& config = w.cells.front();
  ProgramCache cache(dir);
  Result<BroadcastServer> server_result = BroadcastServer::Create(
      config.scheme, config.dataset, config.geometry,
      ResolvedSchemeParams(config), config.multichannel, &cache);
  if (!server_result.ok()) {
    errors->push_back("traced server: " + server_result.status().ToString());
    return run;
  }
  const BroadcastServer server = std::move(server_result).value();
  std::optional<ZipfDistribution> zipf;
  if (config.zipf_theta > 0.0) {
    zipf.emplace(config.dataset->size(), config.zipf_theta);
  }
  const ZipfDistribution* zipf_table = zipf ? &*zipf : nullptr;

  FleetParams params;
  params.fleet_size = w.fleet_options.fleet_size;
  params.queries_per_client = w.fleet_options.queries_per_client;
  params.cache_capacity = config.client.cache_capacity;
  params.session_length = config.client.session_length;
  params.repeat_probability = config.client.repeat_probability;
  params.data_availability = config.data_availability;
  params.mean_request_interval_bytes = config.mean_request_interval_bytes;
  params.zipf_theta = config.zipf_theta;
  params.seed = config.seed;

  constexpr std::int64_t kTracedShards = 128;
  const std::int64_t shards =
      std::min<std::int64_t>(kTracedShards, params.fleet_size);
  const auto shard_begin = [&](std::int64_t k) {
    return k * (params.fleet_size / shards) +
           std::min<std::int64_t>(k, params.fleet_size % shards);
  };
  const std::uint8_t slot = SchemeSlot(config.scheme);
  const std::int64_t mirrored =
      std::min<std::int64_t>(w.mirrored_clients, params.fleet_size);

  ThreadPool pool(w.jobs);
  const std::int64_t start = NowNs();
  int pass = 0;
  do {
    SpanBuffer root(tracer);
    const Span pass_span = root.Open(kCoreTracedPass, 0, 0);
    const Span fleet_span = root.Open(kFleetRun, pass_span.id, 0);
    std::vector<FleetShardResult> results(static_cast<std::size_t>(shards));
    ParallelFor(pool, results.size(), [&](std::size_t k) {
      const auto shard = static_cast<std::int64_t>(k);
      SpanBuffer spans(tracer);
      const Span span =
          spans.Open(kFleetShard, fleet_span.id,
                     static_cast<std::uint32_t>(k + 1), false, slot);
      results[k] = RunFleetShard(server.scheme(), *config.dataset, params,
                                 shard_begin(shard), shard_begin(shard + 1),
                                 zipf_table);
      spans.Close(span);
    });
    root.Close(fleet_span);
    FleetShardResult totals;
    for (const FleetShardResult& result : results) totals.Merge(result);
    if (!SameClientTotals(totals, expected)) ++run.mismatches;
    run.queries += totals.queries;

    const Span mirror_span = root.Open(kFleetMirror, pass_span.id, 0);
    for (std::int64_t client = 0; client < mirrored; ++client) {
      Rng master(ReplicationSeed(config.seed,
                                 static_cast<std::uint64_t>(client)));
      RequestGenerator generator(
          config.dataset.get(), config.data_availability,
          config.mean_request_interval_bytes, master.Split(),
          config.zipf_theta, zipf_table,
          SessionWorkload{config.client.session_length,
                          config.client.repeat_probability});
      Bytes now = 0;
      for (int q = 0; q < params.queries_per_client; ++q) {
        now += generator.NextInterArrival();
        const Query query = generator.NextQuery();
        const Span walk =
            root.Open(kSchemesAccess, mirror_span.id,
                      static_cast<std::uint32_t>(client + 1), false, slot);
        static_cast<void>(server.scheme().Access(query.key, now));
        root.Close(walk);
      }
    }
    root.Close(mirror_span);
    root.Close(pass_span);
    ++pass;
  } while (SecondsSince(start) < seconds && pass < kMaxTracedPasses);
  run.wall_s = SecondsSince(start);
  return run;
}

/// Per-layer metrics of a traced run, as a JSON object of
/// {"value": ..., "unit": ...} entries in a fixed order.
std::string LayerMetrics(const Workload& w, const SweepPass& ref,
                         double setup_s, const TracedRun& traced,
                         const std::vector<Span>& spans,
                         double arena_bytes) {
  // Self time is a span's duration minus the part of its interval that
  // its children cover (children may run in parallel, so overlaps count
  // once). Mirror children lie outside the interval; they only enter the
  // replication self-time estimate below.
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      child_intervals;
  std::unordered_map<std::uint32_t, std::int64_t> mirror_ns;
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    if (s.mirror) {
      mirror_ns[s.parent] += s.end_ns - s.start_ns;
    } else {
      child_intervals[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  const auto covered_ns = [&](const Span& s) {
    std::int64_t ns = 0;
    if (auto it = child_intervals.find(s.id); it != child_intervals.end()) {
      std::sort(it->second.begin(), it->second.end());
      std::int64_t reach = s.start_ns;
      for (const auto& [from, to] : it->second) {
        const std::int64_t lo = std::max(from, reach);
        const std::int64_t hi = std::min(to, s.end_ns);
        if (hi > lo) ns += hi - lo;
        reach = std::max(reach, hi);
      }
    }
    return static_cast<double>(ns);
  };
  double total_s[kNumSpanNames] = {};
  double self_s[kNumSpanNames] = {};
  std::vector<double> walk_ns[kNumNamedSchemes];
  double build_ms[kNumNamedSchemes] = {};
  std::vector<double> session_ns, dynamic_ns, advance_us, compact_ms,
      shard_ms, replication_ms, replication_self_ms;
  for (const Span& s : spans) {
    const auto duration = static_cast<double>(s.end_ns - s.start_ns);
    const double self = duration - covered_ns(s);
    total_s[s.name] += duration * 1e-9;
    self_s[s.name] += self * 1e-9;
    switch (s.name) {
      case kSchemesAccess:
        if (s.tag < kNumNamedSchemes) walk_ns[s.tag].push_back(duration);
        break;
      case kSchemesBuild:
        if (s.tag < kNumNamedSchemes) build_ms[s.tag] += duration * 1e-6;
        break;
      case kClientSessionAccess:
        session_ns.push_back(duration);
        break;
      case kDynamicAccess:
        dynamic_ns.push_back(duration);
        break;
      case kDynamicAdvance:
        advance_us.push_back(duration * 1e-3 /
                             static_cast<double>(std::max<std::int64_t>(
                                 1, s.work)));
        break;
      case kDynamicCompact:
        compact_ms.push_back(duration * 1e-6);
        break;
      case kFleetShard:
        shard_ms.push_back(duration * 1e-6);
        break;
      case kCoreReplication: {
        // The replication minus its replayed walks, session and dynamic
        // calls: an estimate of the event loop, request generator and
        // accumulators, and noisy where the replay is most of the work.
        const auto mirrored = mirror_ns.find(s.id);
        replication_ms.push_back(duration * 1e-6);
        replication_self_ms.push_back(
            (duration - (mirrored == mirror_ns.end()
                             ? 0.0
                             : static_cast<double>(mirrored->second))) *
            1e-6);
        break;
      }
      default:
        break;
    }
  }

  JsonObject layers;
  const auto add = [&layers](const std::string& name, double value,
                             const char* unit) {
    layers.Add(name, JsonObject()
                         .Add("value", Num(value))
                         .Add("unit", Quote(unit))
                         .str());
  };
  const MetricsRegistry& c = ref.counters;
  const FleetShardResult& f = ref.fleet_totals;
  const auto queries = static_cast<double>(ref.queries);
  const auto get = [&c](const char* name) {
    return static_cast<double>(c.Get(name));
  };

  add("data.generate_s", total_s[kDataGenerate], "s");
  add("schemes.build_s", total_s[kSchemesBuild], "s");
  for (int i = 0; i < kNumNamedSchemes; ++i) {
    add(std::string("schemes.build_ms.") + kSchemeNames[i], build_ms[i],
        "ms");
  }
  add("broadcast.flatten_s", total_s[kBroadcastFlatten], "s");
  add("broadcast.restore_s", total_s[kBroadcastRestore], "s");
  add("broadcast.arena_mb", arena_bytes / (1024.0 * 1024.0), "MiB");
  std::size_t walk_samples = 0;
  for (int i = 0; i < kNumNamedSchemes; ++i) {
    add(std::string("schemes.access_ns_p50.") + kSchemeNames[i],
        Percentile(walk_ns[i], 0.50), "ns");
    walk_samples += walk_ns[i].size();
  }
  for (int i = 0; i < kNumNamedSchemes; ++i) {
    add(std::string("schemes.access_ns_p99.") + kSchemeNames[i],
        Percentile(walk_ns[i], 0.99), "ns");
  }
  add("des.events_per_query", Ratio(get("sim.events_processed"), queries),
      "events/query");
  add("client.session_access_ns_p50", Percentile(session_ns, 0.50), "ns");
  add("client.session_access_ns_p99", Percentile(session_ns, 0.99), "ns");
  add("client.cache_hit_ratio",
      Ratio(get("client.cache_hits"), get("client.session_queries")),
      "ratio");
  add("dynamic.access_ns_p50", Percentile(dynamic_ns, 0.50), "ns");
  add("dynamic.advance_us_p50", Percentile(advance_us, 0.50), "us");
  add("dynamic.compact_ms_p50", Percentile(compact_ms, 0.50), "ms");
  add("dynamic.dirty_ratio",
      Ratio(get("dynamic.dirty_queries"), get("dynamic.queries")), "ratio");
  add("dynamic.rebuilt_share",
      Ratio(get("dynamic.rebuilt_cycles"), get("dynamic.cycles")), "ratio");
  add("fleet.shard_ms_p50", Percentile(shard_ms, 0.50), "ms");
  add("fleet.shard_ms_p90", Percentile(shard_ms, 0.90), "ms");
  const auto fleet_queries = static_cast<double>(f.queries);
  add("fleet.wake_events_per_query",
      Ratio(static_cast<double>(f.wake_events), fleet_queries),
      "events/query");
  add("fleet.slots_scanned_per_query",
      Ratio(static_cast<double>(f.slots_scanned), fleet_queries),
      "slots/query");
  add("fleet.cache_hit_ratio",
      Ratio(static_cast<double>(f.cache_hits), fleet_queries), "ratio");
  add("core.replication_ms_p50", Percentile(replication_ms, 0.50), "ms");
  add("core.replication_ms_p99", Percentile(replication_ms, 0.99), "ms");
  add("core.replication_self_ms_p50", Percentile(replication_self_ms, 0.50),
      "ms");
  const RunTiming& t = ref.timing;
  add("core.worker_utilization", t.worker_utilization(), "ratio");
  add("core.idle_s", t.idle_seconds, "s");
  add("core.merged_ratio",
      Ratio(static_cast<double>(t.replications_merged),
            static_cast<double>(t.replications_run)),
      "ratio");
  add("core.program_cache.snapshot_hits",
      static_cast<double>(ref.program_cache.Get("program.snapshot_hits")),
      "count");
  // Traffic shape of the untraced sweep; every query share has the same
  // base, share.base_queries.
  add("share.base_queries", queries, "count");
  add("share.signature_queries",
      Ratio(static_cast<double>(ref.signature_queries), queries), "ratio");
  add("share.cache_hit_queries",
      Ratio(w.fleet ? static_cast<double>(f.cache_hits)
                    : get("client.cache_hits"),
            queries),
      "ratio");
  // Delta reads are a subset of dirty queries (docs/METRICS.md).
  add("share.dirty_or_delta_queries",
      Ratio(get("dynamic.dirty_queries"), queries), "ratio");
  add("share.setup_of_total", Ratio(setup_s, setup_s + ref.wall_s),
      "ratio");
  const double traced_qps =
      Ratio(static_cast<double>(traced.queries), traced.wall_s);
  const double untraced_qps = Ratio(queries, ref.wall_s);
  add("trace.overhead_pct", 100.0 * (1.0 - Ratio(traced_qps, untraced_qps)),
      "%");
  add("trace.spans", static_cast<double>(spans.size()), "count");
  add("trace.walk_samples", static_cast<double>(walk_samples), "count");
  add("core.replication_samples",
      static_cast<double>(replication_ms.size()), "count");
  add("fleet.shard_samples", static_cast<double>(shard_ms.size()), "count");
  for (int n = 0; n < kNumSpanNames; ++n) {
    add(std::string(kSpanNames[n]) + ".total_s", total_s[n], "s");
    add(std::string(kSpanNames[n]) + ".self_s", self_s[n], "s");
  }
  return layers.str();
}

// -------------------------------------------------------------------- main

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// 0 keeps the workload's own worker count.
  int jobs = 0;
  bool toy = false;
  std::string work_dir;
  std::string spans_out;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--toy") {
      options->toy = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options->seconds = std::stod(value);
    } else if (arg == "--trace") {
      options->trace = value == "1";
    } else if (arg == "--jobs") {
      options->jobs = std::stoi(value);
    } else if (arg == "--work-dir") {
      options->work_dir = value;
    } else if (arg == "--spans-out") {
      options->spans_out = value;
    } else {
      return false;
    }
  }
  return !options->workload.empty() && !options->work_dir.empty();
}

/// Untraced set-up repeats at least kMinSetups times and until
/// kMinSetupSeconds have passed, so a cheap set-up is still a median of
/// many samples.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kMinSetupSeconds = 1.5;
constexpr std::size_t kMaxPasses = 1000;

int Main(int argc, char** argv) {
  Options options;
  bool parsed = false;
  try {
    parsed = ParseOptions(argc, argv, &options);
  } catch (const std::exception&) {
    parsed = false;
  }
  if (!parsed) {
    std::cerr << "usage: airbench --workload NAME --work-dir DIR [--seed N] "
                 "[--seconds S] [--trace 0|1] [--jobs N] [--toy] "
                 "[--spans-out PATH]\n";
    return 2;
  }
  std::optional<Workload> made =
      MakeWorkload(options.workload, options.seed, options.toy);
  if (!made) {
    std::cerr << "unknown workload: " << options.workload << "\n";
    return 2;
  }
  Workload& w = *made;
  if (options.jobs > 0) w.jobs = options.jobs;

  namespace fs = std::filesystem;
  std::vector<std::string> errors;
  std::vector<double> setup_samples;
  std::string dir;
  const auto fresh_dir = [&](const std::string& name) {
    if (!dir.empty()) fs::remove_all(dir);
    dir = options.work_dir + "/" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
  };

  // Set-up: untraced runs repeat it cold into fresh directories and keep
  // the last; the traced run times it once untraced (for the set-up
  // share), then once traced, which leaves the snapshots its sweeps
  // restore.
  const std::int64_t setup_start = NowNs();
  for (int k = 0; k < (options.trace ? 1 : kMaxSetups); ++k) {
    if (!options.trace && k >= kMinSetups &&
        SecondsSince(setup_start) >= kMinSetupSeconds) {
      break;
    }
    fresh_dir("snap-" + std::to_string(k));
    const Result<double> seconds = TimedSetup(&w.cells, dir);
    if (!seconds.ok()) {
      errors.push_back("setup: " + seconds.status().ToString());
      break;
    }
    setup_samples.push_back(seconds.value());
  }
  Tracer tracer;
  double arena_bytes = 0.0;
  if (options.trace && errors.empty()) {
    fresh_dir("snap-traced");
    if (Status s = TracedSetup(&w.cells, dir, &tracer, &arena_bytes);
        !s.ok()) {
      errors.push_back("traced setup: " + s.ToString());
    }
  }

  std::vector<std::size_t> all(w.cells.size());
  std::iota(all.begin(), all.end(), 0);
  std::vector<SweepPass> passes;
  if (errors.empty()) {
    const std::int64_t sweep_start = NowNs();
    do {
      SpanBuffer spans(&tracer);
      const Span span = spans.Open(kCoreSweep, 0, 0);
      passes.push_back(RunSweepPass(w, all, dir, w.jobs));
      spans.Close(span);
    } while (!options.trace && SecondsSince(sweep_start) < options.seconds &&
             passes.size() < kMaxPasses);
  }
  const double peak_rss_mb = PeakRssMiB();

  // Every pass restores every program from the set-up's snapshots and
  // computes the same outputs.
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const MetricsRegistry& cache = passes[p].program_cache;
    if (cache.Get("program.builds") != 0 ||
        cache.Get("program.snapshot_hits") +
                cache.Get("program.memory_hits") !=
            static_cast<std::int64_t>(w.cells.size())) {
      errors.push_back("pass " + std::to_string(p) +
                       ": the sweep did not restore every program from the "
                       "set-up snapshots");
    }
    for (std::size_t c = 0; c < w.cells.size() && p > 0; ++c) {
      if (passes[p].cells[c].outputs != passes[0].cells[c].outputs) {
        errors.push_back("pass " + std::to_string(p) + ": outputs of " +
                         w.labels[c] + " changed between passes");
      }
    }
  }

  std::vector<std::string> setup_items;
  for (const double s : setup_samples) setup_items.push_back(Num(s));
  std::vector<std::string> pass_items;
  for (const SweepPass& pass : passes) {
    pass_items.push_back(JsonObject()
                             .Add("wall_s", Num(pass.wall_s))
                             .Add("cpu_s", Num(pass.cpu_s))
                             .Add("queries", Int(pass.queries))
                             .str());
  }
  JsonObject report;
  report.Add("workload", Quote(w.name))
      .Add("seed", Int(static_cast<std::int64_t>(options.seed)))
      .Add("jobs", Int(w.jobs))
      .Add("trace", options.trace ? "true" : "false")
      .Add("setup_s", JsonArray(setup_items))
      .Add("peak_rss_mb", Num(peak_rss_mb))
      .Add("passes", JsonArray(pass_items));

  if (!passes.empty()) {
    report.Add("cells", CellsJson(w, all, passes.front()));
    // Outputs must not depend on the worker count: rerun the cheap check
    // cells with one worker.
    const SweepPass check = RunSweepPass(w, w.check_cells, dir, 1);
    report.Add("check_cells", CellsJson(w, w.check_cells, check));

    if (options.trace) {
      const TracedRun traced =
          w.fleet ? TraceFleet(w, dir, options.seconds,
                               passes.front().fleet_totals, &tracer, &errors)
                  : TraceReplications(w, dir, options.seconds, &tracer,
                                      &errors);
      if (traced.mismatches > 0) {
        errors.push_back(std::to_string(traced.mismatches) +
                         " traced replays disagreed with the engine");
      }
      report.Add("layers",
                 LayerMetrics(w, passes.front(),
                              setup_samples.empty() ? 0.0
                                                    : setup_samples.front(),
                              traced, tracer.spans(), arena_bytes));
      if (!options.spans_out.empty() &&
          !WriteSpans(options.spans_out, tracer.spans())) {
        errors.push_back("cannot write spans to " + options.spans_out);
      }
    }
  }
  if (!dir.empty()) fs::remove_all(dir);

  std::vector<std::string> error_items;
  for (const std::string& error : errors) error_items.push_back(Quote(error));
  report.Add("errors", JsonArray(error_items));
  std::cout << report.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace airindex::perfbench

int main(int argc, char** argv) {
  return airindex::perfbench::Main(argc, argv);
}
