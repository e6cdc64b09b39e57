// FATS — Federated Averaging with TV-Stability (Algorithm 1).
//
// The trainer executes T = R·E iterations grouped into R communication
// rounds. At each round start the server draws a multiset of K clients
// *with replacement* (the ν(M,K) law of Lemma 1); each distinct selected
// client runs E local mini-batch SGD iterations over uniformly-sampled
// size-b subsets of its active data (the ξ(N,b) law); at round end the
// server averages the local models with multiset multiplicity.
//
// Everything the unlearning algorithms need is recorded in the StateStore:
// P^(t), B_k^(t), θ_k^(t), θ^(t) (the save(·) calls of Algorithm 1), plus
// the earliest-use dictionaries for O(1) verification.
//
// One pass loop executes every iteration, whatever the entry point. Its
// only per-kind difference is where the sampling schedule comes from: a
// *draw* pass (Run) samples each round's client multiset and each
// participant's mini-batch from keyed streams and records them; a *replay*
// pass (ReplayFrom) reads them back from the store. Mid-round entry,
// broadcast, dropout retries, local steps, ordered commit, upload, tree
// aggregate, round record and iteration mark are the same code for both,
// so a replay of an unchanged history reproduces the model and the comm
// ledger of the pass that recorded it.
//
// The trainer is also the only owner of the two Algorithm 1 draws and of
// the two history rewrites the unlearners build on them:
// SubstituteSampleUses (FATS-SU, Algorithm 2) and RedrawRoundsFrom
// (FATS-CU, Algorithm 3). Every unlearning path is then
//   validate → journal bracket → dataset removal → rewrite → ReplayFrom.
// The generation bump inside each rewrite makes every stream drawn after it
// independent of the original run, which realizes the fresh part of the
// coupling in Theorem 1, while the untouched history realizes the reused
// part.

#ifndef FATS_CORE_FATS_TRAINER_H_
#define FATS_CORE_FATS_TRAINER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/fats_config.h"
#include "data/federated_dataset.h"
#include "fl/availability.h"
#include "fl/comm_stats.h"
#include "fl/parallel_clients.h"
#include "fl/state_store.h"
#include "fl/train_events.h"
#include "fl/train_log.h"
#include "nn/model_zoo.h"
#include "transport/reliable_channel.h"
#include "transport/transport.h"

namespace fats {

class FatsTrainer {
 public:
  /// `data` is borrowed and must outlive the trainer. Deletions are applied
  /// to `data` externally (by the unlearners) between runs.
  FatsTrainer(const ModelSpec& spec, const FatsConfig& config,
              FederatedDataset* data);

  /// Fresh training: records the initial model as round 0 and runs
  /// iterations 1..T. Equivalent to TrainUntil(T).
  void Train();

  /// Incremental training: continues from wherever training previously
  /// stopped up to iteration `t_end` (inclusive). The first call records
  /// the initial model. Used to issue unlearning requests mid-training:
  ///   trainer.TrainUntil(t_u);      // train to the request time
  ///   unlearner.Unlearn(..., t_u);  // exact unlearning of the prefix
  ///   trainer.TrainUntil(T);        // continue on the reduced data
  void TrainUntil(int64_t t_end);

  /// Draw pass over iterations [t0, t_end] (Algorithm 1, FATS(t0, T, ...)):
  /// client selections and mini-batches are drawn at the current
  /// generation and recorded. The two-argument form supports pausing
  /// mid-training. t0 must be in [1, T] and t_end in [t0, T]. If t0 is not
  /// a round start, the round's client selection and the local models at
  /// t0−1 are loaded from the store.
  void Run(int64_t t0) { Run(t0, config_.total_iters_t()); }
  void Run(int64_t t0, int64_t t_end) { Pass(TrainPassKind::kRun, t0, t_end); }

  /// Replay pass over iterations [t0, t_end]: the same loop as Run, but
  /// client selections and mini-batches are read from the store (which a
  /// history rewrite may have changed) and only the model trajectory is
  /// recomputed. Dropout retries are charged exactly as in the pass that
  /// recorded the history, so replaying an unchanged history reproduces
  /// both its model and its comm ledger. This realizes the SU_r transport
  /// of Theorem 1's proof: the selection history ν is unaffected by a
  /// sample deletion and must be reused, not redrawn.
  void ReplayFrom(int64_t t0) { ReplayFrom(t0, trained_through_); }
  void ReplayFrom(int64_t t0, int64_t t_end) {
    Pass(TrainPassKind::kReplay, t0, t_end);
  }

  /// What SubstituteSampleUses rewrote.
  struct SampleRewrite {
    /// Earliest substituted iteration, -1 when no batch used a sample.
    int64_t first_iteration = -1;
    /// Recorded mini-batches replaced with fresh draws.
    int64_t batches = 0;
  };

  /// History rewrite for sample deletion (Algorithm 2): bumps the
  /// generation once, then replaces every recorded mini-batch that uses a
  /// sample of `deleted` with a fresh draw from the client's reduced active
  /// set, through the event sink. The samples must already be removed from
  /// the dataset. Computes no model; follow with ReplayFrom(first_iteration).
  SampleRewrite SubstituteSampleUses(const std::vector<SampleRef>& deleted);

  /// History rewrite for client removal (Algorithm 3): truncates the store
  /// from the start of `round`, bumps the generation, and redraws the
  /// client selections and mini-batches of rounds `round` through the one
  /// holding trained_through(), exactly as a draw pass would, through the
  /// event sink. The deletion must already be applied to the dataset.
  /// Computes no model; follow with ReplayFrom(returned iteration).
  /// Returns the first redrawn iteration, (round − 1)·E + 1.
  int64_t RedrawRoundsFrom(int64_t round);

  /// Highest iteration executed so far (0 before training). Unlearning
  /// requests issued mid-training re-compute only up to this point;
  /// Run(trained_through()+1, ...) continues training afterwards.
  int64_t trained_through() const { return trained_through_; }

  /// Test accuracy of the trainer's model: the global model of the latest
  /// round the last pass completed. Passes never call it; the accuracy of
  /// any stored round is read with StoredRoundAccuracies
  /// (metrics/evaluation.h).
  double EvaluateTestAccuracy();
  const Batch& test_batch() const { return test_batch_; }

  Tensor global_params() { return model_->GetParameters(); }

  StateStore& store() { return store_; }
  const StateStore& store() const { return store_; }
  const TrainLog& log() const { return log_; }
  TrainLog* mutable_log() { return &log_; }
  CommStats& comm_stats() { return comm_stats_; }
  const FatsConfig& config() const { return config_; }
  const ModelSpec& spec() const { return spec_; }
  Model* model() { return model_.get(); }
  FederatedDataset* data() { return data_; }

  int64_t K() const { return k_; }
  int64_t b() const { return b_; }

  /// Makes all subsequently drawn streams independent of earlier ones.
  void BumpGeneration() {
    ++generation_;
    if (sink_ != nullptr) sink_->OnGenerationBump(generation_);
  }
  uint64_t generation() const { return generation_; }

  /// Attaches an observer of every durable state transition (the journaled
  /// session). Borrowed; pass nullptr to detach. The sink sees events after
  /// the in-memory mutation, in commit order, on the calling thread.
  void set_event_sink(TrainEventSink* sink) { sink_ = sink; }
  TrainEventSink* event_sink() { return sink_; }

  /// Scoped unlearning-operation bracket, forwarded to the sink: Begin on
  /// construction, End when the scope exits on any return path. Everything
  /// in between is atomic under crash recovery; only a process crash skips
  /// the End (std::_Exit skips destructors), so recovery rolls back exactly
  /// the operations a crash interrupted.
  class UnlearnBracket {
   public:
    explicit UnlearnBracket(FatsTrainer* trainer) : trainer_(trainer) {
      if (trainer_->sink_ != nullptr) trainer_->sink_->OnUnlearnBegin();
    }
    ~UnlearnBracket() {
      if (trainer_->sink_ != nullptr) trainer_->sink_->OnUnlearnEnd();
    }
    UnlearnBracket(const UnlearnBracket&) = delete;
    UnlearnBracket& operator=(const UnlearnBracket&) = delete;

   private:
    FatsTrainer* trainer_;
  };

  /// Dropped client executions retried so far (see fl/availability.h), in
  /// draw and replay passes alike. A dropped attempt's work would be
  /// discarded, so the pass computes the local step once and charges each
  /// retry as one re-broadcast of the round's start model.
  int64_t dropout_retries() const { return dropout_retries_; }

  /// Transport deliveries that exhausted the retry budget and went through
  /// on the forced final attempt (the availability-style degradation path,
  /// see transport/reliable_channel.h).
  int64_t transport_forced_deliveries() const {
    return transport_forced_deliveries_;
  }

  /// The reliable channel every model broadcast/upload travels through.
  /// Exposed for ledger introspection (ChannelStats) in tests and benches.
  const transport::ReliableChannel& channel() const { return *channel_; }

  // Checkpoint-restore support (see io/checkpoint.h). These overwrite the
  // trainer's progress markers; use only when restoring a saved state whose
  // store contents match.
  void set_generation(uint64_t generation) { generation_ = generation; }
  void set_trained_through(int64_t t) { trained_through_ = t; }
  /// Rounds executed while this flag is set are marked in the log.
  void set_recomputation_mode(bool on) { recomputation_mode_ = on; }
  /// Seeds the round-loss accumulator for the next Run/ReplayFrom entry
  /// (consumed once, then reset). Used by crash recovery when resuming a
  /// pass mid-round so the re-executed round's mean_local_loss still
  /// includes the iterations committed before the crash.
  void SeedRoundLossAccumulator(double sum, int64_t count) {
    resume_loss_sum_ = sum;
    resume_loss_count_ = count;
  }

  /// Total local SGD iterations executed across all runs (compute cost).
  int64_t local_iterations_executed() const {
    return local_iterations_executed_;
  }

  /// Executes per-round client updates; parallel when config.num_threads
  /// exceeds 1, bit-identical to serial either way. Exposed so unlearners
  /// that re-run local client work share the trainer's pool and replicas.
  ParallelClientRunner* client_runner() { return &runner_; }

  /// Fused round-start batching (on by default): at every round-start
  /// iteration — where all participants provably start their local step
  /// from the broadcast global model — the K clients' forward/backward
  /// GEMMs share one per-layer weight pack, packed once on the main thread
  /// (DESIGN.md §7.6). Results are bit-identical either way; the switch
  /// exists as a diagnostics escape hatch and for A/B exactness tests.
  void set_fused_round_pack(bool on) { fused_round_pack_ = on; }
  bool fused_round_pack() const { return fused_round_pack_; }

 private:
  /// The single pass loop behind Run (kRun: draw the schedule) and
  /// ReplayFrom (kReplay: read it from the store).
  void Pass(TrainPassKind kind, int64_t t0, int64_t t_end);

  /// Algorithm 1's two draws at the current generation: the client
  /// multiset of `round`, and the mini-batch of `client` at iteration `t`
  /// from its current active set. Pure functions of their stream keys and
  /// the dataset, so a history rewrite reproduces exactly what a draw pass
  /// would record. DrawMinibatch runs on pool workers during draw passes.
  std::vector<int64_t> DrawClientSelection(int64_t round) const;
  std::vector<int64_t> DrawMinibatch(int64_t t, int64_t client) const;

  /// Save a drawn client multiset / mini-batch to the store and report it
  /// to the event sink, so the durable record sees every draw.
  void RecordClientSelection(int64_t round, std::vector<int64_t> multiset);
  void RecordMinibatch(int64_t t, int64_t client, std::vector<int64_t> batch);

  /// Emits the iteration-commit mark for iteration `t` to the sink, if any.
  void NotifyIterationComplete(int64_t t, int64_t t_end, TrainPassKind pass,
                               double loss_sum, int64_t loss_count);

  /// Moves one model through the wire (direction, round, iteration, client,
  /// seq address the delivery; see transport/reliable_channel.h), charges
  /// the comm ledger, and returns the decoded parameters — bitwise the
  /// encoded ones, which is what keeps wire runs exact.
  Tensor TransferModel(transport::Direction direction, int64_t round,
                       int64_t iteration, int64_t client, uint32_t seq,
                       const transport::EncodedModel& model);

  /// Unique clients of the multiset, preserving first-occurrence order
  /// (the output order drives the reduction order, so it is part of the
  /// determinism contract).
  std::vector<int64_t> UniqueClients(
      const std::vector<int64_t>& multiset) const;

  ModelSpec spec_;
  FatsConfig config_;
  FederatedDataset* data_;
  std::unique_ptr<Model> model_;
  Tensor initial_params_;
  Batch test_batch_;
  int64_t k_;
  int64_t b_;
  uint64_t generation_ = 0;
  bool recomputation_mode_ = false;
  bool fused_round_pack_ = true;
  int64_t local_iterations_executed_ = 0;
  int64_t trained_through_ = 0;
  int64_t dropout_retries_ = 0;
  int64_t transport_forced_deliveries_ = 0;
  // One-shot round-loss accumulator seed, set by SeedRoundLossAccumulator
  // and consumed at the next Run/ReplayFrom entry.
  double resume_loss_sum_ = 0.0;
  int64_t resume_loss_count_ = 0;
  TrainEventSink* sink_ = nullptr;
  AvailabilitySchedule availability_;
  // The wire: every broadcast/upload is serialized, framed, and delivered
  // through the channel (in-process ring buffer today; the channel is the
  // seam where a socket backend drops in).
  std::unique_ptr<transport::LocalTransport> wire_;
  std::unique_ptr<transport::ReliableChannel> channel_;
  ParallelClientRunner runner_;
  StateStore store_;
  TrainLog log_;
  CommStats comm_stats_;
};

}  // namespace fats

#endif  // FATS_CORE_FATS_TRAINER_H_
