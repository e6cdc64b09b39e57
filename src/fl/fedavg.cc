#include "fl/fedavg.h"

#include "fl/client.h"
#include "fl/server.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace fats {

FedAvgTrainer::FedAvgTrainer(const ModelSpec& spec,
                             const FedAvgOptions& options,
                             const FederatedDataset* data)
    : spec_(spec),
      options_(options),
      data_(data),
      model_(std::make_unique<Model>(spec, options.seed)),
      test_batch_(data->global_test().AsBatch()),
      runner_(spec, options.seed, options.num_threads) {
  Result<transport::TransportFaultSpec> tf_spec =
      transport::TransportFaultSpec::Parse(options.transport_fault_spec);
  FATS_CHECK(tf_spec.ok()) << tf_spec.status().ToString();
  wire_ = std::make_unique<transport::LocalTransport>();
  channel_ = std::make_unique<transport::ReliableChannel>(wire_.get(), *tf_spec);
}

Tensor FedAvgTrainer::TransferModel(transport::Direction direction,
                                    int64_t round, int64_t client,
                                    uint32_t seq,
                                    const transport::EncodedModel& model) {
  transport::MessageAddress address;
  address.direction = direction;
  address.round = round;
  address.iteration = round;  // FedAvg addresses the wire per round.
  address.client = client;
  address.seq = seq;
  Result<transport::ModelDelivery> delivered =
      channel_->DeliverModel(address, model);
  FATS_CHECK(delivered.ok()) << delivered.status().ToString();
  if (direction == transport::Direction::kDownlink) {
    comm_stats_.RecordDownlinkDelivery(delivered->payload_bytes);
  } else {
    comm_stats_.RecordUplinkDelivery(delivered->payload_bytes);
  }
  comm_stats_.RecordRetransmits(delivered->retransmits,
                                delivered->retransmit_bytes);
  if (delivered->forced) ++transport_forced_deliveries_;
  return std::move(delivered->params);
}

void FedAvgTrainer::RunRounds(int64_t num_rounds) {
  for (int64_t r = 0; r < num_rounds; ++r) {
    const int64_t round = ++rounds_completed_;
    // Select clients for this round.
    StreamId sel_id;
    sel_id.purpose = RngPurpose::kClientSampling;
    sel_id.generation = generation_;
    sel_id.round = static_cast<uint64_t>(round);
    RngStream sel_stream(options_.seed, sel_id);
    const int64_t k = std::min<int64_t>(options_.clients_per_round_k,
                                        data_->num_active_clients());
    std::vector<int64_t> selected =
        options_.sample_clients_with_replacement
            ? ServerRuntime::SampleClientsWithReplacement(*data_, k,
                                                          &sel_stream)
            : ServerRuntime::SampleClientsWithoutReplacement(*data_, k,
                                                             &sel_stream);
    // Each selection entry runs its full E-iteration local chain as one
    // task (duplicate entries recompute independently from the broadcast
    // model, exactly as the serial loop did). Stream keys are derived on
    // the main thread in the serial draw order; per-step losses and local
    // models are committed in selection order so float accumulation and
    // the AverageModels reduction are bit-identical to serial.
    //
    // The broadcast is encoded once and delivered per selection slot over
    // the wire; each slot starts from its delivered (decoded) copy, which
    // is bitwise the encoded model.
    const size_t n_sel = selected.size();
    const transport::EncodedModel broadcast(model_->GetParameters());
    std::vector<Tensor> start_params(n_sel);
    for (size_t i = 0; i < n_sel; ++i) {
      start_params[i] = TransferModel(transport::Direction::kDownlink, round,
                                      selected[i], static_cast<uint32_t>(i),
                                      broadcast);
    }
    struct ClientChain {
      Tensor params;
      std::vector<double> step_losses;
    };
    std::vector<ClientChain> chains(n_sel);
    std::vector<std::vector<uint64_t>> stream_keys(n_sel);
    std::vector<int64_t> batch_sizes(n_sel);
    for (size_t i = 0; i < n_sel; ++i) {
      const int64_t client = selected[i];
      batch_sizes[i] = std::min<int64_t>(options_.batch_b,
                                         data_->num_active_samples(client));
      stream_keys[i].reserve(
          static_cast<size_t>(options_.local_iters_e));
      for (int64_t e = 1; e <= options_.local_iters_e; ++e) {
        StreamId batch_id;
        batch_id.purpose = RngPurpose::kMinibatchSampling;
        batch_id.generation = generation_;
        batch_id.round = static_cast<uint64_t>(round);
        batch_id.client = static_cast<uint64_t>(client);
        batch_id.iteration = static_cast<uint64_t>(e);
        stream_keys[i].push_back(DeriveStreamKey(options_.seed, batch_id));
      }
    }
    runner_.ForEachClient(
        static_cast<int64_t>(n_sel), [&](int64_t i, Model* m) {
          const size_t s = static_cast<size_t>(i);
          const int64_t client = selected[s];
          m->SetParameters(start_params[s]);
          ClientRuntime runtime(data_, m);
          for (int64_t e = 1; e <= options_.local_iters_e; ++e) {
            if (batch_sizes[s] == 0) break;
            RngStream batch_stream(stream_keys[s][static_cast<size_t>(e - 1)]);
            std::vector<int64_t> indices = runtime.SampleMinibatch(
                client, batch_sizes[s], &batch_stream);
            chains[s].step_losses.push_back(
                runtime.Step(client, indices, options_.learning_rate));
          }
          chains[s].params = m->GetParameters();
        });
    // Each slot's local model is serialized and uplinked individually; the
    // server averages the delivered (decoded) copies in slot order, which
    // preserves the reduction order of the direct in-memory path.
    std::vector<Tensor> locals;
    locals.reserve(n_sel);
    double loss_sum = 0.0;
    int64_t loss_count = 0;
    for (size_t i = 0; i < n_sel; ++i) {
      for (double loss : chains[i].step_losses) {
        loss_sum += loss;
        ++loss_count;
      }
      const transport::EncodedModel upload(chains[i].params);
      locals.push_back(TransferModel(transport::Direction::kUplink, round,
                                     selected[i], static_cast<uint32_t>(i),
                                     upload));
    }
    comm_stats_.RecordRound();
    if (!locals.empty()) {
      model_->SetParameters(ServerRuntime::AverageModels(locals));
    }

    RoundRecord record;
    record.round = round;
    record.mean_local_loss =
        loss_count > 0 ? loss_sum / static_cast<double>(loss_count) : 0.0;
    record.recomputation = recomputation_mode_;
    AppendRound(record);
    FATS_FAILPOINT("fedavg.round.end");
  }
}

void FedAvgTrainer::AppendRound(const RoundRecord& record) {
  log_.Append(record);
  if (round_observer_) round_observer_(record);
}

void FedAvgTrainer::ResetModel(uint64_t init_seed) {
  model_ = std::make_unique<Model>(spec_, init_seed);
  rounds_completed_ = 0;
}

double FedAvgTrainer::EvaluateTestAccuracy() {
  return model_->EvaluateAccuracy(test_batch_.inputs, test_batch_.labels);
}

}  // namespace fats
