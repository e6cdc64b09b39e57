#include "core/compact_unlearner.h"

#include <vector>

#include "util/stopwatch.h"

namespace fats {

namespace {

std::vector<int64_t> SamplesPerClient(const FederatedDataset& data) {
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(data.num_clients()));
  for (int64_t k = 0; k < data.num_clients(); ++k) {
    out.push_back(data.samples_of(k));
  }
  return out;
}

}  // namespace

CompactUnlearner::CompactUnlearner(FatsTrainer* trainer)
    : trainer_(trainer),
      index_(trainer->data()->num_clients(),
             SamplesPerClient(*trainer->data())) {
  RebuildIndexFromStore();
}

void CompactUnlearner::RebuildIndexFromStore() {
  index_.Clear();
  const FatsConfig& config = trainer_->config();
  for (int64_t r = 1; r <= config.rounds_r; ++r) {
    const std::vector<int64_t>* selection =
        trainer_->store().GetClientSelection(r);
    if (selection == nullptr) continue;
    for (int64_t client : *selection) {
      index_.RecordClientParticipation(client);
      for (int64_t t = (r - 1) * config.local_iters_e + 1;
           t <= r * config.local_iters_e; ++t) {
        const std::vector<int64_t>* batch =
            trainer_->store().GetMinibatch(t, client);
        if (batch == nullptr) continue;
        for (int64_t index : *batch) {
          index_.RecordSampleUse(client, index);
        }
      }
    }
  }
}

UnlearningOutcome CompactUnlearner::RetrainFromScratch() {
  const FatsConfig& config = trainer_->config();
  const int64_t t_max = trainer_->trained_through();
  // Redraw the whole history at a fresh generation, then recompute the
  // model from the initial one (round 0 survives the truncation).
  trainer_->RedrawRoundsFrom(1);
  trainer_->set_recomputation_mode(true);
  trainer_->ReplayFrom(1);
  trainer_->set_recomputation_mode(false);
  RebuildIndexFromStore();

  UnlearningOutcome outcome;
  outcome.recomputed = true;
  outcome.restart_iteration = 1;
  outcome.recomputed_iterations = t_max;
  outcome.recomputed_rounds = (t_max + config.local_iters_e - 1) /
                              config.local_iters_e;
  return outcome;
}

Result<UnlearningOutcome> CompactUnlearner::UnlearnClient(
    int64_t target, int64_t request_iter) {
  Stopwatch timer;
  // Validation fires before any mutation, with ClientUnlearner's checks.
  if (request_iter < 1 || request_iter > trainer_->trained_through()) {
    return Status::InvalidArgument("request_iter out of range");
  }
  if (target < 0 || target >= trainer_->data()->num_clients()) {
    return Status::OutOfRange("target client out of range");
  }
  if (!trainer_->data()->client_active(target)) {
    return Status::FailedPrecondition("target client already removed");
  }
  if (trainer_->data()->num_active_clients() <= 1) {
    return Status::FailedPrecondition(
        "batch would remove every active client from the federation");
  }
  const bool participated = index_.ClientParticipated(target);
  FatsTrainer::UnlearnBracket bracket(trainer_);
  FATS_RETURN_NOT_OK(trainer_->data()->RemoveClient(target));
  UnlearningOutcome outcome;
  if (participated) outcome = RetrainFromScratch();
  outcome.wall_seconds = timer.ElapsedSeconds();
  return outcome;
}

Result<UnlearningOutcome> CompactUnlearner::UnlearnSample(
    const SampleRef& target, int64_t request_iter) {
  Stopwatch timer;
  // Validation fires before any mutation, with SampleUnlearner's checks.
  if (request_iter < 1 || request_iter > trainer_->trained_through()) {
    return Status::InvalidArgument("request_iter out of range");
  }
  if (!trainer_->data()->sample_active(target.client, target.index)) {
    return Status::FailedPrecondition("target sample already deleted");
  }
  if (trainer_->data()->num_active_samples(target.client) <= 1) {
    return Status::FailedPrecondition(
        "batch would empty the client's active sample set; use "
        "client-level unlearning instead");
  }
  const bool used = index_.SampleUsed(target.client, target.index);
  FatsTrainer::UnlearnBracket bracket(trainer_);
  FATS_RETURN_NOT_OK(trainer_->data()->RemoveSample(target));
  UnlearningOutcome outcome;
  if (used) outcome = RetrainFromScratch();
  outcome.wall_seconds = timer.ElapsedSeconds();
  return outcome;
}

}  // namespace fats
