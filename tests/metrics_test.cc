#include <gtest/gtest.h>

#include "metrics/evaluation.h"
#include "metrics/unlearning_metrics.h"
#include "test_workloads.h"

namespace fats {
namespace {

TEST(EvaluationTest, ChunkedAccuracyMatchesSingleShot) {
  FederatedDataset data = TinyImageData(4, 10);
  Model model(TinyModelSpec(), 3);
  Batch test = data.global_test().AsBatch();
  const double single = model.EvaluateAccuracy(test.inputs, test.labels);
  EXPECT_DOUBLE_EQ(EvaluateAccuracyChunked(&model, test, 7), single);
  EXPECT_DOUBLE_EQ(EvaluateAccuracyChunked(&model, test, 1000), single);
  EXPECT_DOUBLE_EQ(EvaluateAccuracyChunked(&model, test, 1), single);
}

TEST(EvaluationTest, ChunkedLossMatchesSingleShot) {
  FederatedDataset data = TinyImageData(4, 10);
  Model model(TinyModelSpec(), 3);
  Batch test = data.global_test().AsBatch();
  const double single = model.ComputeLoss(test.inputs, test.labels);
  EXPECT_NEAR(EvaluateLossChunked(&model, test, 13), single, 1e-9);
}

TEST(EvaluationTest, EmptyBatchIsZero) {
  Model model(TinyModelSpec(), 3);
  Batch empty;
  EXPECT_EQ(EvaluateAccuracyChunked(&model, empty), 0.0);
  EXPECT_EQ(EvaluateLossChunked(&model, empty), 0.0);
}

TEST(RecoveryMetricsTest, ComputesDropAndRecovery) {
  // Accuracy 0.8 before unlearning; drops to 0.4; recovers at record 5.
  const std::vector<double> accuracy = {0.5, 0.8, 0.4, 0.6, 0.75, 0.81};
  RecoveryMetrics metrics = AnalyzeRecovery(accuracy, 2, 0.95);
  EXPECT_DOUBLE_EQ(metrics.accuracy_before, 0.8);
  EXPECT_DOUBLE_EQ(metrics.accuracy_after_drop, 0.4);
  EXPECT_DOUBLE_EQ(metrics.accuracy_drop, 0.4);
  // Target = 0.95*0.8 = 0.76; reached at index 5 -> 4 rounds after request.
  EXPECT_EQ(metrics.rounds_to_recover, 4);
  EXPECT_DOUBLE_EQ(metrics.final_accuracy, 0.81);
}

TEST(RecoveryMetricsTest, NeverRecoversIsMinusOne) {
  RecoveryMetrics metrics = AnalyzeRecovery({0.8, 0.3, 0.4}, 1, 0.95);
  EXPECT_EQ(metrics.rounds_to_recover, -1);
}

TEST(RecoveryMetricsTest, RequestAtEndHasNoDrop) {
  RecoveryMetrics metrics = AnalyzeRecovery({0.5, 0.7}, 2, 0.95);
  EXPECT_DOUBLE_EQ(metrics.accuracy_drop, 0.0);
}

TEST(RecoveryMetricsTest, DegenerateInputsReturnDefaults) {
  RecoveryMetrics metrics = AnalyzeRecovery({}, 0, 0.95);
  EXPECT_EQ(metrics.rounds_to_recover, -1);
  EXPECT_DOUBLE_EQ(metrics.accuracy_before, 0.0);
  metrics = AnalyzeRecovery({0.5}, 5, 0.95);  // out of range
  EXPECT_DOUBLE_EQ(metrics.accuracy_before, 0.0);
}

}  // namespace
}  // namespace fats
