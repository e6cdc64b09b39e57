#include "metrics/unlearning_metrics.h"

namespace fats {

int64_t RoundsToReach(const std::vector<double>& accuracy, double target,
                      size_t from_index) {
  for (size_t i = from_index; i < accuracy.size(); ++i) {
    if (accuracy[i] >= target) {
      return static_cast<int64_t>(i - from_index) + 1;
    }
  }
  return -1;
}

RecoveryMetrics AnalyzeRecovery(const std::vector<double>& accuracy,
                                size_t request_index,
                                double recovery_fraction) {
  RecoveryMetrics metrics;
  if (accuracy.empty() || request_index == 0 ||
      request_index > accuracy.size()) {
    return metrics;
  }
  metrics.accuracy_before = accuracy[request_index - 1];
  if (request_index < accuracy.size()) {
    metrics.accuracy_after_drop = accuracy[request_index];
  } else {
    metrics.accuracy_after_drop = metrics.accuracy_before;
  }
  metrics.accuracy_drop =
      metrics.accuracy_before - metrics.accuracy_after_drop;
  metrics.rounds_to_recover = RoundsToReach(
      accuracy, recovery_fraction * metrics.accuracy_before, request_index);
  metrics.final_accuracy = accuracy.back();
  return metrics;
}

}  // namespace fats
