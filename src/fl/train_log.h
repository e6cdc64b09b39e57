// Per-round training history shared by all trainers.
//
// A record holds what a round computes as part of training: its number, the
// mean local loss and whether it was an unlearning re-computation. Test
// accuracy is not recorded: it is an observation of the round's global
// model, computed on read by whoever plots it (metrics/evaluation.h for
// FATS, a FedAvgTrainer round observer for the baselines).

#ifndef FATS_FL_TRAIN_LOG_H_
#define FATS_FL_TRAIN_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace fats {

struct RoundRecord {
  int64_t round = 0;          // global round counter (1-based)
  double mean_local_loss = 0.0;
  /// True for rounds that were (re-)executed as part of unlearning
  /// re-computation rather than the original training pass.
  bool recomputation = false;
};

class TrainLog {
 public:
  void Append(RoundRecord record) { records_.push_back(record); }
  const std::vector<RoundRecord>& records() const { return records_; }
  bool empty() const { return records_.empty(); }
  void Clear() { records_.clear(); }

  /// Number of trailing records flagged as re-computation (the unlearning
  /// cost in rounds for the most recent request).
  int64_t TrailingRecomputationRounds() const;

  /// CSV rendering: round, mean_local_loss, recomputation.
  std::string ToCsv() const;

  /// Writes the ToCsv rendering to `path`, propagating write/flush failures
  /// (a full disk surfaces as kIoError, not a silently truncated file). A
  /// non-empty `test_accuracy` holds one value per record, computed on read
  /// by the caller, and is written as a test_accuracy column after round.
  Status WriteCsvFile(const std::string& path,
                      const std::vector<double>& test_accuracy = {}) const;

 private:
  std::vector<RoundRecord> records_;
};

}  // namespace fats

#endif  // FATS_FL_TRAIN_LOG_H_
