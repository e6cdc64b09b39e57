// Accuracy on read: FATS training and replay passes never evaluate; a
// round's test accuracy is computed from its stored global model θ^(r) by
// StoredRoundAccuracies (metrics/evaluation.h). These tests pin that the
// value read equals what the trainer's own EvaluateTestAccuracy() returns
// right after a pass ending at that round, before and after an unlearning
// replay, and that reading leaves the trainer's model alone.

#include <gtest/gtest.h>

#include <vector>

#include "core/sample_unlearner.h"
#include "metrics/evaluation.h"
#include "test_workloads.h"

namespace fats {
namespace {

constexpr int64_t kClients = 6;
constexpr int64_t kSamples = 10;
constexpr int64_t kRounds = 5;
constexpr int64_t kLocalIters = 3;

// A noisier three-class task than the default, so the accuracy of the
// round models actually moves from round to round.
FederatedDataset Data() {
  return TinyImageData(kClients, kSamples, /*classes=*/3, /*dim=*/4,
                       /*seed=*/23);
}

FatsConfig Config() {
  return TinyFatsConfig(kClients, kSamples, kRounds, kLocalIters);
}

ModelSpec Spec() { return TinyModelSpec(/*classes=*/3, /*dim=*/4); }

TEST(AccuracyOnReadTest, StoredRoundsMatchATwinEvaluatingAsItTrains) {
  FederatedDataset data = Data();
  FederatedDataset twin_data = Data();
  FatsTrainer trainer(Spec(), Config(), &data);
  FatsTrainer twin(Spec(), Config(), &twin_data);
  trainer.Train();
  const Tensor model_before = trainer.global_params();

  const std::vector<double> accuracy = StoredRoundAccuracies(trainer);
  ASSERT_EQ(accuracy.size(), static_cast<size_t>(kRounds));
  bool moved = false;
  for (int64_t r = 1; r <= kRounds; ++r) {
    const size_t i = static_cast<size_t>(r - 1);
    EXPECT_EQ(trainer.log().records()[i].round, r);
    twin.TrainUntil(r * kLocalIters);
    EXPECT_EQ(accuracy[i], twin.EvaluateTestAccuracy()) << "round " << r;
    moved = moved || accuracy[i] != accuracy[0];
  }
  EXPECT_TRUE(moved) << "workload too easy: every round scores the same";
  // Reading never touches the trainer's own model.
  EXPECT_TRUE(trainer.global_params().BitwiseEquals(model_before));
  EXPECT_TRUE(StoredRoundAccuracies(trainer, kRounds).empty());
}

TEST(AccuracyOnReadTest, ReplayedRoundsMatchATwinAfterASampleRequest) {
  FederatedDataset data = Data();
  FederatedDataset twin_data = Data();
  FatsTrainer trainer(Spec(), Config(), &data);
  FatsTrainer twin(Spec(), Config(), &twin_data);
  trainer.Train();
  twin.Train();

  // The first used sample of the first round: its deletion replays (almost)
  // the whole history.
  const int64_t client = trainer.store().GetClientSelection(1)->front();
  const SampleRef target{client,
                         trainer.store().GetMinibatch(1, client)->front()};
  const int64_t t_request = Config().total_iters_t();
  SampleUnlearner unlearner(&trainer);
  SampleUnlearner twin_unlearner(&twin);
  Result<UnlearningOutcome> outcome = unlearner.Unlearn(target, t_request);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->recomputed);
  ASSERT_TRUE(twin_unlearner.Unlearn(target, t_request).ok());
  const Tensor model_before = trainer.global_params();

  // Records [0, R) name rounds 1..R, so they read the current history of
  // every round; the replayed records that follow read the same models.
  const std::vector<double> accuracy = StoredRoundAccuracies(trainer);
  const std::vector<RoundRecord>& records = trainer.log().records();
  ASSERT_GT(records.size(), static_cast<size_t>(kRounds));
  for (int64_t r = 1; r <= kRounds; ++r) {
    // A replay pass ending at round r leaves the twin holding θ^(r) of the
    // rewritten history.
    twin.ReplayFrom(1, r * kLocalIters);
    EXPECT_EQ(accuracy[static_cast<size_t>(r - 1)],
              twin.EvaluateTestAccuracy())
        << "round " << r;
  }
  for (size_t i = kRounds; i < records.size(); ++i) {
    EXPECT_TRUE(records[i].recomputation);
    EXPECT_EQ(accuracy[i], accuracy[static_cast<size_t>(records[i].round - 1)])
        << "record " << i;
  }
  EXPECT_TRUE(trainer.global_params().BitwiseEquals(model_before));
  EXPECT_TRUE(twin.global_params().BitwiseEquals(model_before));
}

}  // namespace
}  // namespace fats
