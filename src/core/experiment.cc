#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/accuracy_controller.h"
#include "des/random.h"

namespace airindex {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Coordinator-side state of the streaming scheduler: workers park
/// completed replications here; the coordinator merges them in id order.
struct ReorderBuffer {
  std::mutex mu;
  std::condition_variable ready;
  /// Completed replications not yet merged, keyed by replication id.
  std::map<int, ReplicationResult> completed;
  /// High-water mark of `completed`.
  int peak = 0;
};

/// Fills a fresh `result`'s channel-shape block from the views of the
/// channels on air: the longest cycle, and bucket counts summed over
/// channels.
void FillChannelShape(const BroadcastServer& server,
                      SimulationResult* result) {
  result->num_channels = server.num_channels();
  for (int c = 0; c < server.num_channels(); ++c) {
    const ArenaChannelView& view = server.channel_view(c);
    result->cycle_bytes = std::max(result->cycle_bytes, view.cycle_bytes());
    result->num_buckets += static_cast<std::int64_t>(view.num_buckets());
    result->num_index_buckets +=
        static_cast<std::int64_t>(view.num_index_buckets());
    result->num_signature_buckets +=
        static_cast<std::int64_t>(view.num_signature_buckets());
    result->num_data_buckets +=
        static_cast<std::int64_t>(view.num_data_buckets());
  }
}

/// The raw merge state of replication `id` that bench_merge replays.
ReplicationPayload PayloadOf(int id, const ReplicationResult& replication) {
  ReplicationPayload payload;
  payload.id = id;
  payload.access_count = replication.access.count();
  payload.access_mean = replication.access.mean();
  payload.access_m2 = replication.access.m2();
  payload.tuning_count = replication.tuning.count();
  payload.tuning_mean = replication.tuning.mean();
  payload.tuning_m2 = replication.tuning.m2();
  payload.round_access_mean = replication.round_access_mean;
  payload.round_tuning_mean = replication.round_tuning_mean;
  payload.metrics = replication.metrics;
  return payload;
}

}  // namespace

Result<TestbedServer> BuildTestbedServer(
    const TestbedConfig& config,
    std::unique_ptr<ProgramCache>* program_cache) {
  Result<std::shared_ptr<const Dataset>> dataset = BuildTestbedDataset(config);
  if (!dataset.ok()) return dataset.status();
  ProgramCache* cache = nullptr;
  if (!config.program_cache_dir.empty()) {
    if (*program_cache == nullptr ||
        (*program_cache)->dir() != config.program_cache_dir) {
      *program_cache = std::make_unique<ProgramCache>(config.program_cache_dir);
    }
    cache = program_cache->get();
  }
  Result<BroadcastServer> server = BroadcastServer::Create(
      config.scheme, dataset.value(), config.geometry,
      ResolvedSchemeParams(config), config.multichannel, cache);
  if (!server.ok()) return server.status();
  return TestbedServer{std::move(dataset).value(), std::move(server).value()};
}

ParallelExperiment::ParallelExperiment(ParallelOptions options)
    : pool_(options.jobs),
      lookahead_(options.lookahead < 0 ? pool_.size() : options.lookahead),
      shard_(options.shard) {
  timing_.jobs = pool_.size();
  timing_.shard_index = shard_.index;
  timing_.shard_count = shard_.count;
}

std::shared_ptr<const ZipfDistribution> ParallelExperiment::ZipfFor(
    int n, double theta) {
  for (const auto& [key, table] : zipf_cache_) {
    if (key.first == n && key.second == theta) return table;
  }
  auto table = std::make_shared<const ZipfDistribution>(n, theta);
  zipf_cache_.emplace_back(std::make_pair(n, theta), table);
  return table;
}

Result<ParallelExperiment::PreparedCell> ParallelExperiment::Prepare(
    const TestbedConfig& config) {
  if (Status s = ValidateTestbedConfig(config); !s.ok()) return s;
  // Build the dataset and broadcast channel once; replications share them
  // read-only (the access protocols never mutate the channel).
  Result<TestbedServer> built = BuildTestbedServer(config, &program_cache_);
  if (!built.ok()) return built.status();
  PreparedCell cell{config, std::move(built).value(), nullptr};
  // Hoist the Zipf table out of the per-replication path.
  if (config.zipf_theta > 0.0) {
    cell.zipf = ZipfFor(cell.testbed.dataset->size(), config.zipf_theta);
  }
  return cell;
}

double ParallelExperiment::ChargeInterval(
    std::chrono::steady_clock::time_point* start, double* busy_before) {
  const auto now = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(now - *start).count();
  const double busy = pool_.busy_seconds();
  timing_.wall_seconds += wall;
  timing_.busy_seconds = busy;
  timing_.idle_seconds +=
      std::max(0.0, wall * pool_.size() - (busy - *busy_before));
  *start = now;
  *busy_before = busy;
  return wall;
}

Result<SimulationResult> ParallelExperiment::Run(const TestbedConfig& config) {
  auto start = std::chrono::steady_clock::now();
  double busy_before = pool_.busy_seconds();
  const Result<PreparedCell> cell = Prepare(config);
  timing_.setup_seconds += SecondsSince(start);
  Result<SimulationResult> result =
      cell.ok() ? RunCell(cell.value(), 0, config.max_rounds, nullptr, {})
                : cell.status();
  ChargeInterval(&start, &busy_before);
  return result;
}

Result<SimulationResult> ParallelExperiment::RunCell(
    const PreparedCell& cell, int lo, int hi,
    std::vector<ReplicationPayload>* payloads,
    const std::function<void()>& prepare_next) {
  const TestbedConfig& config = cell.config;
  const TestbedServer& testbed = cell.testbed;
  const ZipfDistribution* zipf = cell.zipf.get();

  // Streaming ordered merge: keep `jobs + lookahead` replications in
  // flight, merge strictly in replication-id order as results arrive,
  // and — unsharded — stop submitting the moment the rule fires on the
  // merged prefix. Replication `id` is a pure function of (config, id),
  // and the merged stream is the id-ordered prefix ending at the
  // stopping replication — so the statistics are bit-identical for every
  // jobs/lookahead value. A shard cannot know where the merged stream
  // stops, so it runs its whole slice; its ids are absolute, so
  // ReplicationSeed(config.seed, id) draws the stream a single process
  // would, and bench_merge's replay is bit-identical by construction.
  const bool adaptive = payloads == nullptr;
  AccuracyController accuracy(config.confidence_level,
                              config.confidence_accuracy);
  SimulationResult merged;
  ReorderBuffer buffer;
  const int window = pool_.size() + lookahead_;
  // The stopping rule cannot fire before min(min_rounds, max_rounds)
  // merged rounds, and a shard runs its whole slice: those replications
  // are guaranteed to merge. With a next cell to prepare they all go in
  // flight at once, so the workers run them while the coordinator
  // prepares, and none of them is speculative.
  int guaranteed = lo;
  if (prepare_next) {
    guaranteed =
        adaptive ? std::min(config.min_rounds, config.max_rounds) : hi;
  }
  int next_submit = lo;
  int next_merge = lo;
  bool stop = false;

  // Refill the in-flight window (never past hi: an unsharded run's hi is
  // max_rounds, and replications past it could never be merged).
  const auto refill = [&]() {
    while (next_submit < hi &&
           next_submit < std::max(next_merge + window, guaranteed)) {
      const int id = next_submit++;
      const std::uint64_t seed =
          ReplicationSeed(config.seed, static_cast<std::uint64_t>(id));
      pool_.Submit([&testbed, &config, &buffer, id, seed, zipf]() {
        ReplicationResult result = RunReplication(
            testbed.server, *testbed.dataset, config, seed, zipf);
        std::lock_guard<std::mutex> lock(buffer.mu);
        buffer.completed.emplace(id, std::move(result));
        buffer.peak =
            std::max(buffer.peak, static_cast<int>(buffer.completed.size()));
        buffer.ready.notify_one();
      });
    }
  };
  refill();
  if (prepare_next) prepare_next();

  while (!stop && next_merge < hi) {
    // Wait for the next id in merge order, then merge the contiguous
    // prefix that has arrived.
    std::vector<std::pair<int, ReplicationResult>> mergeable;
    {
      std::unique_lock<std::mutex> lock(buffer.mu);
      buffer.ready.wait(lock, [&]() {
        return buffer.completed.count(next_merge) != 0;
      });
      while (!buffer.completed.empty() &&
             buffer.completed.begin()->first == next_merge) {
        mergeable.emplace_back(next_merge,
                               std::move(buffer.completed.begin()->second));
        buffer.completed.erase(buffer.completed.begin());
        ++next_merge;
      }
    }

    for (auto& [id, replication] : mergeable) {
      if (payloads != nullptr) payloads->push_back(PayloadOf(id, replication));
      merged.access.Merge(replication.access);
      merged.tuning.Merge(replication.tuning);
      merged.probes.Merge(replication.probes);
      merged.access_histogram.Merge(replication.access_histogram);
      merged.tuning_histogram.Merge(replication.tuning_histogram);
      merged.found += replication.found;
      merged.abandoned += replication.abandoned;
      merged.false_drops += replication.false_drops;
      merged.anomalies += replication.anomalies;
      merged.outcome_mismatches += replication.outcome_mismatches;
      merged.metrics.Merge(replication.metrics);
      accuracy.AddRound(replication.round_access_mean,
                        replication.round_tuning_mean);
      if (adaptive &&
          accuracy.ShouldStop(config.min_rounds, config.max_rounds)) {
        // Cancellation point: later replications — in flight or already
        // parked in the buffer — are speculative waste from here on.
        stop = true;
        break;
      }
    }
    if (!stop) refill();
  }

  // Drain in-flight speculative replications; they only touch the
  // reorder buffer, never the merged statistics.
  pool_.Wait();
  const int rounds = accuracy.rounds();
  timing_.replications_run += next_submit - lo;
  timing_.replications_merged += rounds;
  timing_.replications_discarded += next_submit - lo - rounds;
  timing_.reorder_buffer_peak =
      std::max(timing_.reorder_buffer_peak, buffer.peak);

  merged.requests = merged.access.count();
  merged.rounds = rounds;
  merged.converged = accuracy.Satisfied();
  merged.access_check = accuracy.access_check();
  merged.tuning_check = accuracy.tuning_check();

  FillChannelShape(testbed.server, &merged);
  return merged;
}

std::vector<Result<SimulationResult>> ParallelExperiment::RunSweep(
    const std::vector<TestbedConfig>& configs) {
  auto start = std::chrono::steady_clock::now();
  double busy_before = pool_.busy_seconds();

  // One generated Dataset per distinct set of generation inputs: grid
  // cells that only vary the scheme (Figure 4's columns) share it. The
  // cache holds the exact object BuildTestbedDataset would produce, so
  // reuse is invisible to the statistics.
  struct DatasetKey {
    int num_records;
    Bytes key_bytes;
    int num_attributes;
    int attribute_width;
    std::uint64_t seed;
    bool operator==(const DatasetKey& other) const {
      return num_records == other.num_records &&
             key_bytes == other.key_bytes &&
             num_attributes == other.num_attributes &&
             attribute_width == other.attribute_width && seed == other.seed;
    }
  };
  std::vector<std::pair<DatasetKey, std::shared_ptr<const Dataset>>> cache;

  // Sharded sweeps split the flat replication-unit sequence across
  // processes (core/shard.h); each cell keeps its slice [lo, hi).
  std::vector<ShardRange> ranges;
  if (shard_.active()) {
    std::vector<int> caps;
    caps.reserve(configs.size());
    for (const TestbedConfig& config : configs) {
      caps.push_back(config.max_rounds);
    }
    ranges = PartitionSweep(caps, shard_);
    shard_cells_.clear();
    shard_cells_.reserve(configs.size());
  }

  // Cell c's set-up, or nothing for a shard's empty slice (nothing of
  // that cell is ours, so it skips the build entirely).
  const auto prepare =
      [&](std::size_t c) -> std::optional<Result<PreparedCell>> {
    if (shard_.active() && ranges[c].empty()) return std::nullopt;
    const auto setup_start = std::chrono::steady_clock::now();
    TestbedConfig config = configs[c];
    if (config.dataset == nullptr && ValidateTestbedConfig(config).ok()) {
      const DatasetKey key{config.num_records, config.geometry.key_bytes,
                           config.num_attributes, config.attribute_width,
                           config.seed};
      const auto hit =
          std::find_if(cache.begin(), cache.end(),
                       [&](const auto& entry) { return entry.first == key; });
      if (hit != cache.end()) {
        config.dataset = hit->second;
      } else {
        Result<std::shared_ptr<const Dataset>> built =
            BuildTestbedDataset(config);
        if (built.ok()) {
          config.dataset = std::move(built).value();
          cache.emplace_back(key, config.dataset);
        }
        // On failure fall through: Prepare reproduces the error.
      }
    }
    Result<PreparedCell> prepared = Prepare(config);
    timing_.setup_seconds += SecondsSince(setup_start);
    return prepared;
  };

  std::vector<Result<SimulationResult>> results;
  results.reserve(configs.size());
  std::optional<Result<PreparedCell>> next;
  if (!configs.empty()) next = prepare(0);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const TestbedConfig& config = configs[c];
    const std::optional<Result<PreparedCell>> cell = std::move(next);
    std::function<void()> prepare_next;
    if (c + 1 < configs.size()) {
      prepare_next = [&next, &prepare, c]() { next = prepare(c + 1); };
    }
    ShardCell shard_cell;
    if (shard_.active()) {
      shard_cell.min_rounds = config.min_rounds;
      shard_cell.max_rounds = config.max_rounds;
      shard_cell.confidence_level = config.confidence_level;
      shard_cell.confidence_accuracy = config.confidence_accuracy;
    }
    if (!cell.has_value() || !cell->ok()) {
      // No replications to hide the next cell's set-up behind. A shard's
      // empty slice emits a placeholder so point order stays aligned
      // across shards.
      if (prepare_next) prepare_next();
      results.push_back(cell.has_value()
                            ? Result<SimulationResult>(cell->status())
                            : SimulationResult{});
    } else if (shard_.active()) {
      results.push_back(RunCell(cell->value(), ranges[c].lo, ranges[c].hi,
                                &shard_cell.replications, prepare_next));
    } else {
      results.push_back(RunCell(cell->value(), 0, config.max_rounds, nullptr,
                                prepare_next));
    }
    if (shard_.active()) shard_cells_.push_back(std::move(shard_cell));
    timing_.cell_wall_seconds.push_back(ChargeInterval(&start, &busy_before));
  }
  return results;
}

}  // namespace airindex
