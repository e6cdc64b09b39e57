#include "core/client_unlearner.h"

#include <algorithm>
#include <set>

#include "util/stopwatch.h"

namespace fats {

Result<UnlearningOutcome> ClientUnlearner::Unlearn(int64_t target_client,
                                                   int64_t request_iter) {
  return UnlearnBatch({target_client}, request_iter);
}

Result<UnlearningOutcome> ClientUnlearner::UnlearnBatch(
    const std::vector<int64_t>& targets, int64_t request_iter) {
  Stopwatch timer;
  UnlearningOutcome outcome;
  // Horizon = executed prefix; see SampleUnlearner for the mid-training
  // semantics.
  const int64_t t_max = trainer_->trained_through();
  const int64_t e = trainer_->config().local_iters_e;
  if (request_iter < 1 || request_iter > t_max) {
    return Status::InvalidArgument("request_iter out of range");
  }
  const int64_t r_u = (request_iter - 1) / e + 1;

  // Validation — all failure paths fire before the journal bracket opens
  // and before any mutation, so a bad batch (duplicate target, removed
  // client, batch that would empty the federation) is rejected whole with
  // no half-applied deletion.
  std::set<int64_t> deduped;
  for (int64_t target : targets) {
    if (target < 0 || target >= trainer_->data()->num_clients()) {
      return Status::OutOfRange("target client out of range");
    }
    if (!trainer_->data()->client_active(target)) {
      return Status::FailedPrecondition("target client already removed");
    }
    if (!deduped.insert(target).second) {
      return Status::InvalidArgument("duplicate client target in batch");
    }
  }
  if (static_cast<int64_t>(deduped.size()) >=
      trainer_->data()->num_active_clients()) {
    return Status::FailedPrecondition(
        "batch would remove every active client from the federation");
  }

  // Verification (O(1) per target via the inverted participation index):
  // earliest round in which any target participated — `r_trigger`
  // restricted to rounds <= r_u (the Algorithm 3 trigger), `r_actual` over
  // the whole recorded history (rounds after r_u model training that had
  // not happened at request time; they must also be purged of the departing
  // client, which equals re-running that future training on the reduced
  // federation).
  int64_t r_trigger = -1;
  int64_t r_actual = -1;
  for (int64_t target : deduped) {
    const int64_t round = trainer_->store().EarliestClientRound(target);
    if (round >= 1) {
      r_actual = (r_actual == -1) ? round : std::min(r_actual, round);
      if (round <= r_u) {
        r_trigger = (r_trigger == -1) ? round : std::min(r_trigger, round);
      }
    }
  }

  // Bracket all trainer-state mutation as one atomic operation for the
  // durable journal.
  FatsTrainer::UnlearnBracket bracket(trainer_);

  for (int64_t target : deduped) {
    FATS_RETURN_NOT_OK(trainer_->data()->RemoveClient(target));
  }

  if (r_actual == -1) {
    outcome.wall_seconds = timer.ElapsedSeconds();
    return outcome;
  }

  // Re-computation: the client multisets of round r_actual and later are
  // redrawn over the remaining clients with fresh randomness — the
  // ν(M−1, K) measure — together with their mini-batches, and the model is
  // replayed against the redrawn history. Unlike the sample-level case,
  // redrawing the selections is exactly what the coupling requires here,
  // because the deletion changed the selection measure itself. The replay
  // inherits the trainer's parallel client runner (config num_threads),
  // which is bit-identical to the serial schedule.
  const int64_t t_restart = trainer_->RedrawRoundsFrom(r_actual);
  trainer_->set_recomputation_mode(true);
  trainer_->ReplayFrom(t_restart);
  trainer_->set_recomputation_mode(false);

  const int64_t r_last = (t_max + e - 1) / e;
  outcome.first_replayed_iteration = t_restart;
  outcome.replayed_iterations = t_max - t_restart + 1;
  outcome.replayed_rounds = r_last - r_actual + 1;
  if (r_trigger != -1) {
    const int64_t t_c = (r_trigger - 1) * e + 1;
    outcome.recomputed = true;
    outcome.restart_iteration = t_c;
    outcome.recomputed_iterations = t_max - t_c + 1;
    outcome.recomputed_rounds = r_last - r_trigger + 1;
  }
  outcome.wall_seconds = timer.ElapsedSeconds();
  return outcome;
}

}  // namespace fats
