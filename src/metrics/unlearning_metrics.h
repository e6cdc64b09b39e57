// Unlearning-specific evaluation metrics over per-record accuracy series.
//
// An accuracy series holds one test accuracy per TrainLog record, in record
// order. Trainers do not record accuracy; the series is computed on read
// (StoredRoundAccuracies in metrics/evaluation.h for FATS, a
// FedAvgTrainer round observer for the baselines).

#ifndef FATS_METRICS_UNLEARNING_METRICS_H_
#define FATS_METRICS_UNLEARNING_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fats {

struct RecoveryMetrics {
  /// Test accuracy just before the unlearning request.
  double accuracy_before = 0.0;
  /// Test accuracy at the first evaluation after the request.
  double accuracy_after_drop = 0.0;
  /// accuracy_before − accuracy_after_drop (the "utility drop").
  double accuracy_drop = 0.0;
  /// Rounds after the request until accuracy returns to
  /// `recovery_fraction` × accuracy_before; -1 if never within the series.
  int64_t rounds_to_recover = -1;
  /// Final accuracy at the end of the series.
  double final_accuracy = 0.0;
};

/// Rounds needed (counting from `from_index` in `accuracy`) until the
/// accuracy first reaches `target`. Returns -1 if never reached.
int64_t RoundsToReach(const std::vector<double>& accuracy, double target,
                      size_t from_index);

/// Analyzes a series whose entries up to index `request_index` (exclusive)
/// are pre-unlearning and whose remaining entries are post-unlearning.
RecoveryMetrics AnalyzeRecovery(const std::vector<double>& accuracy,
                                size_t request_index,
                                double recovery_fraction = 0.98);

}  // namespace fats

#endif  // FATS_METRICS_UNLEARNING_METRICS_H_
