// Tests for the probe-trace instrumentation of distributed indexing.

#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "broadcast/snapshot.h"
#include "des/random.h"
#include "schemes/distributed.h"
#include "schemes/scheme.h"
#include "schemes/trace.h"

namespace airindex {
namespace {

std::shared_ptr<const Dataset> MakeDataset(int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 6;
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

BucketGeometry SmallGeometry() {
  BucketGeometry geometry;
  geometry.record_bytes = 30;
  geometry.key_bytes = 6;
  return geometry;
}

TEST(Trace, TracedEqualsUntraced) {
  const auto dataset = MakeDataset(81);
  const DistributedIndexing scheme =
      DistributedIndexing::Build(dataset, SmallGeometry(), 2).value();
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    const bool present = rng.NextBernoulli(0.7);
    const std::string key =
        present ? dataset->record(static_cast<int>(rng.NextBounded(81))).key
                : dataset->AbsentKey(static_cast<int>(rng.NextBounded(82)));
    const Bytes tune_in =
        static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
            2 * scheme.view().cycle_bytes())));
    AccessTrace trace;
    const AccessResult traced = scheme.AccessTraced(key, tune_in, &trace);
    const AccessResult plain = scheme.Access(key, tune_in);
    ASSERT_EQ(traced.found, plain.found);
    ASSERT_EQ(traced.access_time, plain.access_time);
    ASSERT_EQ(traced.tuning_time, plain.tuning_time);
    ASSERT_EQ(traced.probes, plain.probes);
    ASSERT_EQ(traced.false_drops, plain.false_drops);
    ASSERT_EQ(traced.index_probes, plain.index_probes);
    ASSERT_EQ(traced.overflow_hops, plain.overflow_hops);
    ASSERT_EQ(traced.retries, plain.retries);
    ASSERT_EQ(traced.anomalies, plain.anomalies);
    ASSERT_EQ(traced.abandoned, plain.abandoned);
    ASSERT_EQ(traced.channel_hops, plain.channel_hops);
    ASSERT_EQ(traced.start_channel, plain.start_channel);
    ASSERT_EQ(traced.final_channel, plain.final_channel);
    ASSERT_EQ(traced.switch_bytes, plain.switch_bytes);
    ASSERT_EQ(traced.final_channel_tuning, plain.final_channel_tuning);
    ASSERT_FALSE(trace.empty());
  }
}

// PrintTrace text of the three examples/trace_explorer.cpp replays — a
// control-index climb, a next-broadcast restart and a key that is not on
// air — pinned event by event, so the traced walk cannot drift silently.
constexpr char kExplorerReplays[] = R"(t=         0  initial-wait  +       0  listen to the partial bucket
t=         0          read  +      30  bucket      0 (index L3)  first complete bucket: take next-index-segment offset
t=        30          doze  +     420  to the next index segment
t=       450          read  +      30  bucket     15 (index L2)  index probe, range [aaaaab..aaaacb]
t=       480         climb  +     810  control index: to the next occurrence of an ancestor
t=      1290          read  +      30  bucket     43 (index L3)  index probe, range [aaaaab..aaaagf]
t=      1320          doze  +    1290  descend to the child index bucket
t=      2610          read  +      30  bucket     87 (index L2)  index probe, range [aaaaef..aaaagf]
t=      2640          doze  +       0  descend to the child index bucket
t=      2640          read  +      30  bucket     88 (index L1)  index probe, range [aaaaef..aaaaev]
t=      2670          doze  +      60  descend to the child index bucket
t=      2730          read  +      30  bucket     91 (index L0)  index probe, range [aaaaer..aaaaev]
t=      2760          doze  +     240  to the data bucket
t=      3000      download  +      30  bucket    100 (data rec=62)  requested record
t=      3030      conclude  +       0  found
t=      1935  initial-wait  +      15  listen to the partial bucket
t=      1950          read  +      30  bucket     65 (data rec=38)  first complete bucket: take next-index-segment offset
t=      1980          doze  +     180  to the next index segment
t=      2160          read  +      30  bucket     72 (index L2)  index probe, range [aaaacd..aaaaed]
t=      2190       restart  +    1680  key already passed: wait for the next broadcast
t=      3870          read  +      30  bucket      0 (index L3)  index probe, range [aaaaab..aaaagf]
t=      3900          doze  +       0  descend to the child index bucket
t=      3900          read  +      30  bucket      1 (index L2)  index probe, range [aaaaab..aaaacb]
t=      3930          doze  +       0  descend to the child index bucket
t=      3930          read  +      30  bucket      2 (index L1)  index probe, range [aaaaab..aaaaar]
t=      3960          doze  +      30  descend to the child index bucket
t=      3990          read  +      30  bucket      4 (index L0)  index probe, range [aaaaah..aaaaal]
t=      4020          doze  +     120  to the data bucket
t=      4140      download  +      30  bucket      9 (data rec=3)  requested record
t=      4170      conclude  +       0  found
t=      1234  initial-wait  +      26  listen to the partial bucket
t=      1260          read  +      30  bucket     42 (data rec=26)  first complete bucket: take next-index-segment offset
t=      1290          doze  +       0  to the next index segment
t=      1290          read  +      30  bucket     43 (index L3)  index probe, range [aaaaab..aaaagf]
t=      1320          doze  +       0  descend to the child index bucket
t=      1320          read  +      30  bucket     44 (index L2)  index probe, range [aaaacd..aaaaed]
t=      1350          doze  +     420  descend to the child index bucket
t=      1770          read  +      30  bucket     59 (index L1)  index probe, range [aaaacv..aaaadl]
t=      1800          doze  +      30  descend to the child index bucket
t=      1830          read  +      30  bucket     61 (index L0)  index probe, range [aaaadb..aaaadf]
t=      1860      conclude  +       0  key falls in a gap between children: not on air
)";

std::string ExplorerReplays(const DistributedIndexing& scheme,
                            const Dataset& dataset) {
  std::ostringstream out;
  const auto replay = [&](const std::string& key, Bytes tune_in) {
    AccessTrace trace;
    scheme.AccessTraced(key, tune_in, &trace);
    PrintTrace(trace, scheme.view(), out);
  };
  replay(dataset.record(62).key, 0);
  replay(dataset.record(3).key, scheme.view().cycle_bytes() / 2);
  replay(dataset.AbsentKey(40), 1234);
  return out.str();
}

TEST(Trace, ExplorerReplaysMatchGolden) {
  const auto dataset = MakeDataset(81);
  const DistributedIndexing built =
      DistributedIndexing::Build(dataset, SmallGeometry(), 2).value();
  EXPECT_EQ(ExplorerReplays(built, *dataset), kExplorerReplays);

  // The same replays over the program restored from its snapshot bytes.
  const ProgramArena arena =
      FlattenSchemeProgram(SchemeKind::kDistributed, built, 0, 0).value();
  auto loaded = ProgramSnapshot::Deserialize(ProgramSnapshot::Serialize(arena));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SchemeParams params;
  params.distributed_r = 2;
  auto restored = RestoreSchemeFromArena(
      std::make_shared<const ProgramArena>(std::move(loaded).value()), dataset,
      SmallGeometry(), params);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const auto* scheme =
      dynamic_cast<const DistributedIndexing*>(restored.value().get());
  ASSERT_NE(scheme, nullptr);
  EXPECT_EQ(ExplorerReplays(*scheme, *dataset), kExplorerReplays);
}

TEST(Trace, EventsAreConsistentWithTheResult) {
  const auto dataset = MakeDataset(81);
  const DistributedIndexing scheme =
      DistributedIndexing::Build(dataset, SmallGeometry(), 2).value();
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string key =
        dataset->record(static_cast<int>(rng.NextBounded(81))).key;
    const Bytes tune_in = static_cast<Bytes>(rng.NextBounded(10000));
    AccessTrace trace;
    const AccessResult result = scheme.AccessTraced(key, tune_in, &trace);
    ASSERT_TRUE(result.found);

    // Events are contiguous in time and start at tune-in.
    ASSERT_EQ(trace.front().at, tune_in);
    Bytes t = tune_in;
    Bytes listened = 0;
    int reads = 0;
    for (const ProbeEvent& event : trace) {
      EXPECT_EQ(event.at, t);
      t += event.duration;
      switch (event.action) {
        case ProbeAction::kInitialWait:
          listened += event.duration;
          break;
        case ProbeAction::kRead:
        case ProbeAction::kDownload:
          listened += event.duration;
          ++reads;
          ASSERT_LT(event.bucket, scheme.view().num_buckets());
          EXPECT_EQ(event.duration, scheme.view().bucket(event.bucket).size());
          break;
        default:
          break;
      }
    }
    EXPECT_EQ(t - tune_in, result.access_time);
    EXPECT_EQ(listened, result.tuning_time);
    EXPECT_EQ(reads, result.probes);
    // A successful walk ends with download + conclude.
    EXPECT_EQ(trace.back().action, ProbeAction::kConclude);
    EXPECT_EQ(trace[trace.size() - 2].action, ProbeAction::kDownload);
  }
}

TEST(Trace, RestartRuleIsVisible) {
  const auto dataset = MakeDataset(81);
  const DistributedIndexing scheme =
      DistributedIndexing::Build(dataset, SmallGeometry(), 2).value();
  // Record 3 sits at the start of the cycle; tuning in half-way through
  // guarantees the "key already passed" restart.
  AccessTrace trace;
  const AccessResult result = scheme.AccessTraced(
      dataset->record(3).key, scheme.view().cycle_bytes() / 2, &trace);
  ASSERT_TRUE(result.found);
  bool saw_restart = false;
  for (const ProbeEvent& event : trace) {
    saw_restart = saw_restart || event.action == ProbeAction::kRestart;
  }
  EXPECT_TRUE(saw_restart);
}

TEST(Trace, PrintsReadably) {
  const auto dataset = MakeDataset(81);
  const DistributedIndexing scheme =
      DistributedIndexing::Build(dataset, SmallGeometry(), 2).value();
  AccessTrace trace;
  scheme.AccessTraced(dataset->record(40).key, 77, &trace);
  std::ostringstream out;
  PrintTrace(trace, scheme.view(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("initial-wait"), std::string::npos);
  EXPECT_NE(text.find("download"), std::string::npos);
  EXPECT_NE(text.find("conclude"), std::string::npos);
}

TEST(Trace, ActionNamesComplete) {
  for (const ProbeAction action :
       {ProbeAction::kInitialWait, ProbeAction::kRead, ProbeAction::kDoze,
        ProbeAction::kDownload, ProbeAction::kRestart, ProbeAction::kClimb,
        ProbeAction::kConclude}) {
    EXPECT_STRNE(ProbeActionToString(action), "unknown");
  }
}

}  // namespace
}  // namespace airindex
