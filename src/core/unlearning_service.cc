#include "core/unlearning_service.h"

#include <algorithm>
#include <utility>

#include "util/stopwatch.h"

namespace fats {

Status UnlearningService::Submit(const UnlearningRequest& request) {
  const int64_t t_max = trainer_->trained_through();
  if (request.request_iter < 1 || request.request_iter > t_max) {
    return Status::InvalidArgument("request_iter out of range");
  }
  const FederatedDataset* data = trainer_->data();
  if (request.kind == UnlearningRequest::Kind::kSample) {
    const SampleRef& ref = request.sample;
    if (ref.client < 0 || ref.client >= data->num_clients()) {
      return Status::OutOfRange("target client out of range");
    }
    if (!data->client_active(ref.client)) {
      return Status::FailedPrecondition("target client already removed");
    }
    if (pending_clients_.count(ref.client) > 0) {
      return Status::FailedPrecondition(
          "target sample's client is pending removal");
    }
    if (!data->sample_active(ref.client, ref.index)) {
      return Status::FailedPrecondition("target sample already deleted");
    }
    if (pending_samples_.count({ref.client, ref.index}) > 0) {
      return Status::FailedPrecondition(
          "target sample already pending deletion");
    }
    int64_t& pending_count = pending_sample_counts_[ref.client];
    if (data->num_active_samples(ref.client) - pending_count <= 1) {
      return Status::FailedPrecondition(
          "deletion would empty the client's active sample set; submit a "
          "client-level request instead");
    }
    ++pending_count;
    pending_samples_.insert({ref.client, ref.index});
  } else {
    const int64_t target = request.client;
    if (target < 0 || target >= data->num_clients()) {
      return Status::OutOfRange("target client out of range");
    }
    if (!data->client_active(target)) {
      return Status::FailedPrecondition("target client already removed");
    }
    if (pending_clients_.count(target) > 0) {
      return Status::FailedPrecondition(
          "target client already pending removal");
    }
    if (data->num_active_clients() -
            static_cast<int64_t>(pending_clients_.size()) <=
        1) {
      return Status::FailedPrecondition(
          "removal would leave the federation with no active client");
    }
    pending_clients_.insert(target);
  }
  queue_.push_back(request);
  return Status::OK();
}

UnlearningService::Triage UnlearningService::TriageRequest(
    const UnlearningRequest& request) const {
  Triage triage;
  const StateStore& store = trainer_->store();
  const int64_t e = trainer_->config().local_iters_e;
  if (request.kind == UnlearningRequest::Kind::kSample) {
    const int64_t first = store.EarliestSampleUse(request.sample);
    if (first >= 1) {
      triage.restart_iteration = first;
      triage.triggers = first <= request.request_iter;
    }
  } else {
    const int64_t round = store.EarliestClientRound(request.client);
    if (round >= 1) {
      triage.restart_iteration = (round - 1) * e + 1;
      triage.triggers = round <= (request.request_iter - 1) / e + 1;
    }
  }
  return triage;
}

Result<ServiceFlushStats> UnlearningService::Flush() {
  ServiceFlushStats stats;
  if (queue_.empty()) return stats;
  Stopwatch timer;
  const int64_t t_max = trainer_->trained_through();

  // One durable-journal bracket around every mutation of the whole queue:
  // a crash mid-flush rolls the entire batch back, never half of it.
  FatsTrainer::UnlearnBracket bracket(trainer_);

  // Each request runs the same steps as SampleUnlearner / ClientUnlearner
  // (dataset removal, then the trainer's history rewrite), in submit order,
  // so the final sampling history is bit-for-bit the sequential one. Only
  // the model replay is deferred and shared.
  const int64_t e = trainer_->config().local_iters_e;
  int64_t min_restart = -1;
  for (const UnlearningRequest& request : queue_) {
    ++stats.requests;
    if (TriageRequest(request).triggers) ++stats.triggered_requests;
    int64_t restart = -1;
    if (request.kind == UnlearningRequest::Kind::kSample) {
      ++stats.sample_requests;
      FATS_RETURN_NOT_OK(trainer_->data()->RemoveSample(request.sample));
      const FatsTrainer::SampleRewrite rewrite =
          trainer_->SubstituteSampleUses({request.sample});
      stats.substituted_batches += rewrite.batches;
      restart = rewrite.first_iteration;
    } else {
      ++stats.client_requests;
      // Read before the rewrite's truncation erases the client's postings.
      const int64_t r_actual =
          trainer_->store().EarliestClientRound(request.client);
      FATS_RETURN_NOT_OK(trainer_->data()->RemoveClient(request.client));
      if (r_actual != -1) {  // never selected: no rewrite, no bump
        restart = trainer_->RedrawRoundsFrom(r_actual);
        stats.redrawn_rounds += (t_max + e - 1) / e - r_actual + 1;
      }
    }
    if (restart != -1) {
      stats.sequential_replayed_iterations += t_max - restart + 1;
      min_restart = (min_restart == -1) ? restart
                                        : std::min(min_restart, restart);
    }
  }
  queue_.clear();
  pending_samples_.clear();
  pending_clients_.clear();
  pending_sample_counts_.clear();

  if (min_restart != -1) {
    // The whole queue's history rewrites are in place; one replay from the
    // earliest affected iteration recomputes the model trajectory that
    // sequential processing would have rebuilt once per request.
    trainer_->set_recomputation_mode(true);
    trainer_->ReplayFrom(min_restart);
    trainer_->set_recomputation_mode(false);
    stats.replays = 1;
    stats.replay_start_iteration = min_restart;
    stats.replayed_iterations = t_max - min_restart + 1;
  }
  stats.wall_seconds = timer.ElapsedSeconds();
  return stats;
}

Result<ServiceSummary> UnlearningService::ExecuteStream(
    const std::vector<UnlearningRequest>& requests, int64_t coalesce_window) {
  ServiceSummary summary;
  for (const UnlearningRequest& request : requests) {
    FATS_RETURN_NOT_OK(Submit(request));
    if (coalesce_window > 0 && pending() >= coalesce_window) {
      FATS_ASSIGN_OR_RETURN(ServiceFlushStats stats, Flush());
      ++summary.flushes;
      summary.totals.Accumulate(stats);
    }
  }
  if (pending() > 0) {
    FATS_ASSIGN_OR_RETURN(ServiceFlushStats stats, Flush());
    ++summary.flushes;
    summary.totals.Accumulate(stats);
  }
  return summary;
}

}  // namespace fats
