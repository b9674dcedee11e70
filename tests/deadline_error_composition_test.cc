// Composition of the two client-side extension models: a walk over the
// unreliable channel truncated by an impatient client (both in
// client/air_walk.h). The composed result must stay
// self-consistent — a truncated request is never "found", never charges
// more bytes than the deadline allows, and keeps listening, dead air and
// channel accounting within the truncated budget.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "client/air_walk.h"
#include "des/random.h"
#include "schemes/multichannel.h"
#include "schemes/scheme.h"

namespace airindex {
namespace {

std::shared_ptr<const Dataset> MakeDataset(int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 8;
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

// Longest cycle over the program's channels: the period that bounds any
// phase-wait on any of them.
Bytes MaxCycleBytes(const MultiChannelProgram& program) {
  Bytes max_cycle = 0;
  for (int c = 0; c < program.num_channels(); ++c) {
    max_cycle = std::max(max_cycle, program.channel_view(c).cycle_bytes());
  }
  return max_cycle;
}

void CheckComposedWalk(const AccessResult& error_walk,
                       const AccessResult& composed,
                       const DeadlinePolicy& policy, Bytes switch_cost) {
  // Never more bytes than the deadline allows.
  ASSERT_LE(composed.access_time, policy.access_deadline_bytes);
  ASSERT_GE(composed.access_time, 0);
  ASSERT_GE(composed.tuning_time, 0);
  ASSERT_GE(composed.switch_bytes, 0);
  // Listening plus retune dead air fits inside the elapsed bytes.
  ASSERT_LE(composed.tuning_time + composed.switch_bytes,
            composed.access_time);
  if (error_walk.access_time > policy.access_deadline_bytes) {
    // Truncated: the client gave up, whatever the channel did.
    ASSERT_FALSE(composed.found);
    ASSERT_TRUE(composed.abandoned);
  } else {
    // The deadline never rewrites a walk that beat it.
    ASSERT_EQ(composed.found, error_walk.found);
    ASSERT_FALSE(composed.abandoned);
    ASSERT_EQ(composed.access_time, error_walk.access_time);
    ASSERT_EQ(composed.tuning_time, error_walk.tuning_time);
  }
  // Retries survive truncation (the corrupted attempts did happen).
  ASSERT_EQ(composed.retries, error_walk.retries);
  // Channel accounting stays self-consistent after both models.
  ASSERT_GE(composed.channel_hops, 0);
  ASSERT_LE(composed.channel_hops, error_walk.channel_hops);
  ASSERT_EQ(composed.switch_bytes,
            static_cast<Bytes>(composed.channel_hops) * switch_cost);
  if (composed.channel_hops == 0) {
    ASSERT_EQ(composed.final_channel, composed.start_channel);
    ASSERT_EQ(composed.final_channel_tuning, 0);
  }
  ASSERT_LE(composed.final_channel_tuning, composed.tuning_time);
}

class CompositionTest : public testing::Test {
 protected:
  // Deadlines from "almost nothing" to "nearly always met", exercising
  // both branches of ApplyDeadline against walks inflated by retries.
  std::vector<Bytes> DeadlineGrid(Bytes cycle) const {
    return {cycle / 16, cycle / 4, cycle / 2, cycle, 3 * cycle};
  }

  void RunComposition(const BroadcastScheme& scheme, const Dataset& dataset,
                      Bytes cycle, Bytes switch_cost) {
    const ErrorModel model{.bucket_error_rate = 0.15};
    Rng rng(777);
    int truncations = 0;
    int retried_walks = 0;
    for (const Bytes deadline : DeadlineGrid(cycle)) {
      const DeadlinePolicy policy{.access_deadline_bytes = deadline};
      SCOPED_TRACE("deadline " + std::to_string(deadline));
      for (int r = 0; r < dataset.size(); r += 3) {
        const Bytes tune_in = static_cast<Bytes>(
            rng.NextBounded(static_cast<std::uint64_t>(2 * cycle)));
        const AccessResult error_walk = AccessWithErrors(
            scheme, dataset.record(r).key, tune_in, model, &rng);
        const AccessResult composed = ApplyDeadline(error_walk, policy);
        SCOPED_TRACE("record " + std::to_string(r) + " tune_in " +
                     std::to_string(tune_in));
        CheckComposedWalk(error_walk, composed, policy, switch_cost);
        if (composed.abandoned) ++truncations;
        if (error_walk.retries > 0) ++retried_walks;
      }
    }
    // The grid must actually exercise the interesting region: corrupted
    // walks and truncations both occurred.
    EXPECT_GT(truncations, 0);
    EXPECT_GT(retried_walks, 0);
  }
};

TEST_F(CompositionTest, SingleChannelDistributed) {
  const auto dataset = MakeDataset(150);
  const auto scheme =
      BuildScheme(SchemeKind::kDistributed, dataset, BucketGeometry{})
          .value();
  RunComposition(*scheme, *dataset, scheme->view().cycle_bytes(),
                 /*switch_cost=*/0);
}

TEST_F(CompositionTest, SingleChannelSignature) {
  const auto dataset = MakeDataset(120);
  const auto scheme =
      BuildScheme(SchemeKind::kSignature, dataset, BucketGeometry{}).value();
  RunComposition(*scheme, *dataset, scheme->view().cycle_bytes(),
                 /*switch_cost=*/0);
}

TEST_F(CompositionTest, MultiChannelPartitioned) {
  constexpr Bytes kSwitchCost = 200;
  const auto dataset = MakeDataset(160);
  MultiChannelParams params;
  params.num_channels = 3;
  params.allocation = ChannelAllocation::kDataPartitioned;
  params.switch_cost_bytes = kSwitchCost;
  const auto program =
      MultiChannelProgram::Build(SchemeKind::kOneM, dataset,
                                 BucketGeometry{}, {}, params)
          .value();
  RunComposition(*program, *dataset, MaxCycleBytes(*program),
                 kSwitchCost);
}

TEST_F(CompositionTest, MultiChannelReplicatedIndex) {
  constexpr Bytes kSwitchCost = 120;
  const auto dataset = MakeDataset(140);
  MultiChannelParams params;
  params.num_channels = 4;
  params.allocation = ChannelAllocation::kReplicatedIndex;
  params.switch_cost_bytes = kSwitchCost;
  const auto program =
      MultiChannelProgram::Build(SchemeKind::kOneM, dataset,
                                 BucketGeometry{}, {}, params)
          .value();
  RunComposition(*program, *dataset, MaxCycleBytes(*program),
                 kSwitchCost);
}

}  // namespace
}  // namespace airindex
