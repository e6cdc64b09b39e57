// Detailed behaviour of the FR² baseline's preconditioned recovery.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/fr2.h"
#include "test_workloads.h"

namespace fats {
namespace {

FedAvgOptions SmallOptions() {
  FedAvgOptions options;
  options.clients_per_round_k = 2;
  options.local_iters_e = 3;
  options.batch_b = 4;
  options.learning_rate = 0.1;
  options.seed = 11;
  return options;
}

double RecoveryDisplacement(const Fr2Options& fr2_options, uint64_t seed) {
  FederatedDataset data = TinyImageData(6, 12);
  FedAvgOptions options = SmallOptions();
  options.seed = seed;
  FedAvgTrainer trainer(TinyModelSpec(), options, &data);
  trainer.RunRounds(6);
  const Tensor before = trainer.global_params();
  Fr2Unlearner unlearner(&trainer, &data, fr2_options);
  FATS_CHECK(unlearner.UnlearnSamples({{0, 0}}).ok());
  Tensor delta = trainer.global_params();
  delta -= before;
  return std::sqrt(delta.SquaredNorm());
}

TEST(Fr2DetailsTest, HigherDampingMeansSmallerSteps) {
  Fr2Options gentle;
  gentle.recovery_rounds = 2;
  gentle.damping = 2.0;
  Fr2Options aggressive = gentle;
  aggressive.damping = 0.05;
  EXPECT_LT(RecoveryDisplacement(gentle, 5),
            RecoveryDisplacement(aggressive, 5));
}

TEST(Fr2DetailsTest, LrScaleControlsStepSize) {
  Fr2Options small;
  small.recovery_rounds = 2;
  small.lr_scale = 0.01;
  Fr2Options large = small;
  large.lr_scale = 0.5;
  EXPECT_LT(RecoveryDisplacement(small, 6), RecoveryDisplacement(large, 6));
}

TEST(Fr2DetailsTest, MoreRecoveryRoundsMoveFurther) {
  Fr2Options one;
  one.recovery_rounds = 1;
  Fr2Options four = one;
  four.recovery_rounds = 4;
  EXPECT_LT(RecoveryDisplacement(one, 7), RecoveryDisplacement(four, 7));
}

TEST(Fr2DetailsTest, RecoveryLogsFlaggedRounds) {
  FederatedDataset data = TinyImageData(6, 12);
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  trainer.RunRounds(4);
  Fr2Options options;
  options.recovery_rounds = 3;
  Fr2Unlearner unlearner(&trainer, &data, options);
  ASSERT_TRUE(unlearner.UnlearnClients({2}).ok());
  const auto& records = trainer.log().records();
  ASSERT_EQ(records.size(), 7u);
  for (size_t i = 4; i < records.size(); ++i) {
    EXPECT_TRUE(records[i].recomputation);
  }
  // Communication for recovery rounds is accounted.
  EXPECT_EQ(trainer.comm_stats().rounds(), 7);
}

TEST(Fr2DetailsTest, RecoveryRoundsReachTheRoundObserver) {
  // FR²'s recovery rounds run outside RunRounds; an accuracy curve still
  // sees each of them, with the recovered model in place.
  FederatedDataset data = TinyImageData(6, 12);
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  std::vector<int64_t> observed;
  Tensor last_seen;
  trainer.set_round_observer([&](const RoundRecord& record) {
    observed.push_back(record.round);
    last_seen = trainer.global_params();
  });
  trainer.RunRounds(4);
  Fr2Options options;
  options.recovery_rounds = 3;
  Fr2Unlearner unlearner(&trainer, &data, options);
  ASSERT_TRUE(unlearner.UnlearnClients({2}).ok());
  std::vector<int64_t> logged;
  for (const RoundRecord& record : trainer.log().records()) {
    logged.push_back(record.round);
  }
  EXPECT_EQ(observed, logged);
  EXPECT_TRUE(last_seen.BitwiseEquals(trainer.global_params()));
}

TEST(Fr2DetailsTest, ApproximateUnlearningRetainsInfluenceSignal) {
  // The defining limitation versus FATS: FR² does not reset the sampling
  // history — the deployed model still descends from the deleted data.
  // Proxy check: with zero effective recovery (lr_scale = 0), the model is
  // bit-identical to the pre-deletion model.
  FederatedDataset data = TinyImageData(6, 12);
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  trainer.RunRounds(6);
  const Tensor before = trainer.global_params();
  Fr2Options options;
  options.recovery_rounds = 1;
  options.lr_scale = 0.0;
  Fr2Unlearner unlearner(&trainer, &data, options);
  ASSERT_TRUE(unlearner.UnlearnSamples({{1, 1}}).ok());
  EXPECT_TRUE(trainer.global_params().BitwiseEquals(before))
      << "with a zero step the deleted sample's influence remains fully "
         "embedded — approximate unlearning has no erasure guarantee";
}

}  // namespace
}  // namespace fats
