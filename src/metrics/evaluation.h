// Model evaluation helpers, including accuracy on read: FATS training and
// replay passes never evaluate (DESIGN.md §7.9); a round's test accuracy is
// computed from its stored global model θ^(r) when someone reads it.

#ifndef FATS_METRICS_EVALUATION_H_
#define FATS_METRICS_EVALUATION_H_

#include <cstdint>
#include <vector>

#include "core/fats_trainer.h"
#include "data/dataset.h"
#include "nn/model_zoo.h"

namespace fats {

/// Test accuracy over `batch`, evaluated in chunks of `chunk_size` rows to
/// bound activation memory on large evaluation sets.
double EvaluateAccuracyChunked(Model* model, const Batch& batch,
                               int64_t chunk_size = 128);

/// Mean loss over `batch`, chunked.
double EvaluateLossChunked(Model* model, const Batch& batch,
                           int64_t chunk_size = 128);

/// Accuracy on read: the test accuracy of the global model θ^(r) that
/// `trainer`'s history currently stores for the round r of each log record
/// from `from_index` on, in record order. Equals what the trainer's
/// EvaluateTestAccuracy() returns right after a pass that ends at round r.
/// A record whose round was later replayed reads the replayed model. A
/// private model replica does the evaluation, so the trainer's own model is
/// never touched.
std::vector<double> StoredRoundAccuracies(const FatsTrainer& trainer,
                                          size_t from_index = 0);

}  // namespace fats

#endif  // FATS_METRICS_EVALUATION_H_
