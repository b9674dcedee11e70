#ifndef AIRINDEX_CORE_TESTBED_CONFIG_H_
#define AIRINDEX_CORE_TESTBED_CONFIG_H_

#include <cstdint>
#include <memory>
#include <string>

#include "broadcast/geometry.h"
#include "client/air_walk.h"
#include "client/client_cache.h"
#include "data/dataset.h"
#include "schemes/multichannel.h"
#include "schemes/scheme.h"

namespace airindex {

/// Everything one simulation run needs — the testbed's "user input"
/// (paper Section 3) plus the Table 1 settings as defaults:
///
///   record size 500 B, key size 25 B, 7000–34000 records, >50000
///   requests (100 rounds x 500), confidence level 0.99, confidence
///   accuracy 0.01, exponential request inter-arrival times.
struct TestbedConfig {
  /// Data access method under evaluation.
  SchemeKind scheme = SchemeKind::kFlat;
  /// Channel byte sizes (record/key/offset/signature).
  BucketGeometry geometry;
  /// Scheme-specific knobs (optimal values by default).
  SchemeParams params;
  /// Multichannel broadcast (extension; see schemes/multichannel.h).
  /// The default single channel reproduces the paper's testbed exactly.
  MultiChannelParams multichannel;

  /// Directory for on-disk broadcast-program snapshots (see
  /// core/program_cache.h). Empty disables program caching. Caching
  /// never changes results — a restored program is observably identical
  /// to a freshly built one — so this knob is deliberately excluded from
  /// the program/params fingerprints and from bench reports.
  std::string program_cache_dir;

  /// Number of broadcast records (synthetic generator).
  int num_records = 7000;
  /// Optional externally supplied data (e.g., loaded via
  /// LoadDatasetFromFile). When set, it is broadcast as-is and
  /// num_records / num_attributes / attribute_width are ignored.
  std::shared_ptr<const Dataset> dataset;
  /// Non-key attributes per record (signature input).
  int num_attributes = 8;
  /// Width of each attribute value in characters.
  int attribute_width = 8;

  /// Probability that a requested key is actually on air (paper
  /// Section 5.1 sweeps this from 0% to 100%).
  double data_availability = 1.0;
  /// Mean of the exponential request inter-arrival distribution, in
  /// broadcast bytes.
  double mean_request_interval_bytes = 50000.0;
  /// Skew of the request popularity over records: 0 = uniform (the
  /// paper's workload); larger values draw present keys Zipf(theta) by
  /// record rank (extension; pairs naturally with kBroadcastDisks).
  double zipf_theta = 0.0;

  /// Requests per simulation round (paper: 500).
  int requests_per_round = 500;
  /// Confidence level of the stopping rule (paper: 0.99).
  double confidence_level = 0.99;
  /// Target relative half-width H/Y (paper: 0.01).
  double confidence_accuracy = 0.01;
  /// Never stop before this many rounds. The paper reports needing more
  /// than 100 rounds (> 50000 requests) for its settings.
  int min_rounds = 100;
  /// Hard cap on rounds, for runtime safety.
  int max_rounds = 400;

  /// Stateful-client extension (see client/client_cache.h): cache
  /// capacity/policy, session workload and server update rate. The
  /// default (cache_capacity 0) bypasses the session wrapper entirely
  /// and reproduces the paper's stateless client byte-identically.
  ClientSessionConfig client;

  /// Unreliable-channel model (extension; see client/air_walk.h).
  /// A zero error rate reproduces the paper's lossless channel.
  ErrorModel error_model;
  /// Client impatience (extension; see client/air_walk.h). Deadline 0
  /// reproduces the paper's patient clients.
  DeadlinePolicy deadline;

  /// Master seed; equal seeds give byte-identical runs.
  std::uint64_t seed = 42;
};

}  // namespace airindex

#endif  // AIRINDEX_CORE_TESTBED_CONFIG_H_
