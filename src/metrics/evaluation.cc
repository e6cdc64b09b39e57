#include "metrics/evaluation.h"

#include <algorithm>

#include "util/logging.h"

namespace fats {

namespace {

Batch Slice(const Batch& batch, int64_t start, int64_t count) {
  const int64_t d = batch.inputs.dim(1);
  Batch out;
  out.inputs = Tensor({count, d});
  out.labels.assign(batch.labels.begin() + start,
                    batch.labels.begin() + start + count);
  const float* src = batch.inputs.data() + start * d;
  float* dst = out.inputs.data();
  std::copy(src, src + count * d, dst);
  return out;
}

}  // namespace

double EvaluateAccuracyChunked(Model* model, const Batch& batch,
                               int64_t chunk_size) {
  FATS_CHECK_GT(chunk_size, 0);
  const int64_t n = batch.size();
  if (n == 0) return 0.0;
  double correct = 0.0;
  for (int64_t start = 0; start < n; start += chunk_size) {
    const int64_t count = std::min(chunk_size, n - start);
    Batch chunk = Slice(batch, start, count);
    correct +=
        model->EvaluateAccuracy(chunk.inputs, chunk.labels) * count;
  }
  return correct / static_cast<double>(n);
}

double EvaluateLossChunked(Model* model, const Batch& batch,
                           int64_t chunk_size) {
  FATS_CHECK_GT(chunk_size, 0);
  const int64_t n = batch.size();
  if (n == 0) return 0.0;
  double total = 0.0;
  for (int64_t start = 0; start < n; start += chunk_size) {
    const int64_t count = std::min(chunk_size, n - start);
    Batch chunk = Slice(batch, start, count);
    total += model->ComputeLoss(chunk.inputs, chunk.labels) * count;
  }
  return total / static_cast<double>(n);
}

std::vector<double> StoredRoundAccuracies(const FatsTrainer& trainer,
                                          size_t from_index) {
  const std::vector<RoundRecord>& records = trainer.log().records();
  std::vector<double> accuracy;
  if (from_index >= records.size()) return accuracy;
  accuracy.reserve(records.size() - from_index);
  Model replica(trainer.spec(), trainer.config().seed);
  const Batch& test = trainer.test_batch();
  for (size_t i = from_index; i < records.size(); ++i) {
    const Tensor* theta = trainer.store().GetGlobalModel(records[i].round);
    FATS_CHECK(theta != nullptr)
        << "no stored global model for round " << records[i].round;
    replica.SetParameters(*theta);
    accuracy.push_back(replica.EvaluateAccuracy(test.inputs, test.labels));
  }
  return accuracy;
}

}  // namespace fats
