#include "fl/fedavg.h"

#include <gtest/gtest.h>

#include "metrics/unlearning_metrics.h"
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

TEST(FedAvgTest, TrainingImprovesTestAccuracy) {
  FederatedDataset data = TinyImageData(6, 12);
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  const double before = trainer.EvaluateTestAccuracy();
  trainer.RunRounds(12);
  const double after = trainer.EvaluateTestAccuracy();
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.8);
}

TEST(FedAvgTest, LogRecordsEveryRound) {
  FederatedDataset data = TinyImageData(4, 10);
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  trainer.RunRounds(5);
  ASSERT_EQ(trainer.log().records().size(), 5u);
  EXPECT_EQ(trainer.log().records()[0].round, 1);
  EXPECT_EQ(trainer.log().records()[4].round, 5);
  EXPECT_FALSE(trainer.log().records()[0].recomputation);
  EXPECT_EQ(trainer.rounds_completed(), 5);
}

TEST(FedAvgTest, DeterministicInSeed) {
  FederatedDataset data_a = TinyImageData(4, 10);
  FederatedDataset data_b = TinyImageData(4, 10);
  FedAvgTrainer a(TinyModelSpec(), SmallOptions(), &data_a);
  FedAvgTrainer b(TinyModelSpec(), SmallOptions(), &data_b);
  a.RunRounds(4);
  b.RunRounds(4);
  EXPECT_TRUE(a.global_params().BitwiseEquals(b.global_params()));
}

TEST(FedAvgTest, DifferentSeedsDiverge) {
  FederatedDataset data_a = TinyImageData(4, 10);
  FederatedDataset data_b = TinyImageData(4, 10);
  FedAvgOptions options_b = SmallOptions();
  options_b.seed = 12;
  FedAvgTrainer a(TinyModelSpec(), SmallOptions(), &data_a);
  FedAvgTrainer b(TinyModelSpec(), options_b, &data_b);
  a.RunRounds(2);
  b.RunRounds(2);
  EXPECT_FALSE(a.global_params().BitwiseEquals(b.global_params()));
}

TEST(FedAvgTest, CommunicationAccounting) {
  FederatedDataset data = TinyImageData(4, 10);
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  trainer.RunRounds(3);
  const int64_t d = trainer.model()->NumParameters();
  EXPECT_EQ(trainer.comm_stats().rounds(), 3);
  EXPECT_EQ(trainer.comm_stats().downlink_bytes(), 3 * 2 * d * 4);
  EXPECT_EQ(trainer.comm_stats().uplink_bytes(), 3 * 2 * d * 4);
}

TEST(FedAvgTest, ResetModelRestartsRoundCounterKeepsLog) {
  FederatedDataset data = TinyImageData(4, 10);
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  trainer.RunRounds(3);
  trainer.ResetModel(99);
  EXPECT_EQ(trainer.rounds_completed(), 0);
  EXPECT_EQ(trainer.log().records().size(), 3u);
  trainer.RunRounds(2);
  EXPECT_EQ(trainer.log().records().size(), 5u);
}

TEST(FedAvgTest, RecomputationModeFlagsRecords) {
  FederatedDataset data = TinyImageData(4, 10);
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  trainer.RunRounds(1);
  trainer.set_recomputation_mode(true);
  trainer.RunRounds(2);
  const auto& records = trainer.log().records();
  EXPECT_FALSE(records[0].recomputation);
  EXPECT_TRUE(records[1].recomputation);
  EXPECT_TRUE(records[2].recomputation);
}

TEST(FedAvgTest, HandlesRemovedClientsAndSamples) {
  FederatedDataset data = TinyImageData(4, 10);
  ASSERT_TRUE(data.RemoveClient(0).ok());
  ASSERT_TRUE(data.RemoveSample({1, 3}).ok());
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  trainer.RunRounds(3);  // must not crash or select client 0
  EXPECT_EQ(trainer.log().records().size(), 3u);
}

TEST(FedAvgTest, ClampsKToActiveClients) {
  FederatedDataset data = TinyImageData(3, 10);
  ASSERT_TRUE(data.RemoveClient(0).ok());
  ASSERT_TRUE(data.RemoveClient(1).ok());
  FedAvgOptions options = SmallOptions();
  options.clients_per_round_k = 5;  // more than active
  FedAvgTrainer trainer(TinyModelSpec(), options, &data);
  trainer.RunRounds(2);
  EXPECT_EQ(trainer.log().records().size(), 2u);
}

TEST(FedAvgTest, WithReplacementModeRuns) {
  FederatedDataset data = TinyImageData(4, 10);
  FedAvgOptions options = SmallOptions();
  options.sample_clients_with_replacement = true;
  FedAvgTrainer trainer(TinyModelSpec(), options, &data);
  trainer.RunRounds(3);
  EXPECT_EQ(trainer.log().records().size(), 3u);
}

TEST(FedAvgTest, BumpGenerationChangesTrajectory) {
  FederatedDataset data_a = TinyImageData(4, 10);
  FederatedDataset data_b = TinyImageData(4, 10);
  FedAvgTrainer a(TinyModelSpec(), SmallOptions(), &data_a);
  FedAvgTrainer b(TinyModelSpec(), SmallOptions(), &data_b);
  b.BumpGeneration();
  a.RunRounds(2);
  b.RunRounds(2);
  EXPECT_FALSE(a.global_params().BitwiseEquals(b.global_params()));
}

TEST(TrainLogTest, RoundsToReachAndTrailingRecomputation) {
  TrainLog log;
  log.Append({1, 1.0, false});
  log.Append({2, 0.8, false});
  log.Append({3, 0.6, true});
  log.Append({4, 0.4, true});
  // The accuracy series lives beside the log, one value per record.
  const std::vector<double> accuracy = {0.2, 0.5, 0.7, 0.9};
  EXPECT_EQ(RoundsToReach(accuracy, 0.6, 0), 3);
  EXPECT_EQ(RoundsToReach(accuracy, 0.6, 2), 1);
  EXPECT_EQ(RoundsToReach(accuracy, 0.99, 0), -1);
  EXPECT_EQ(log.TrailingRecomputationRounds(), 2);
  EXPECT_NE(log.ToCsv().find("round,mean_local_loss"), std::string::npos);
}

TEST(FedAvgTest, RoundObserverSeesEveryRoundAndLeavesTheModelAlone) {
  FederatedDataset data_a = TinyImageData(4, 10);
  FederatedDataset data_b = TinyImageData(4, 10);
  FedAvgTrainer observed(TinyModelSpec(), SmallOptions(), &data_a);
  FedAvgTrainer plain(TinyModelSpec(), SmallOptions(), &data_b);
  std::vector<int64_t> rounds;
  std::vector<double> accuracy;
  observed.set_round_observer([&](const RoundRecord& record) {
    rounds.push_back(record.round);
    accuracy.push_back(observed.EvaluateTestAccuracy());
  });
  observed.RunRounds(3);
  for (int64_t r = 1; r <= 3; ++r) {
    plain.RunRounds(1);
    EXPECT_EQ(accuracy[static_cast<size_t>(r - 1)],
              plain.EvaluateTestAccuracy())
        << "round " << r;
  }
  EXPECT_EQ(rounds, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_TRUE(observed.global_params().BitwiseEquals(plain.global_params()));
}

}  // namespace
}  // namespace fats
