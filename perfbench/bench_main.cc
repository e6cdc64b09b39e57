// End-to-end train -> forget benchmark program.
//
// One process sets up a paper profile with the durable journal on, trains it
// for R rounds, checkpoints, then honors a stream of deletion requests
// through UnlearningService (a closed loop: each window of requests is
// submitted and flushed before the next is chosen). It prints one JSON
// object of raw measurements on the last line of stdout; perfbench/run.py
// turns those into the benchmark's metrics and is the intended entry point.
//
// Untraced mode (the default) times whole phases only. With --trace the
// workload runs twice in this process: an untraced pass (its phase times are
// the reference for the tracing overhead) and a traced pass whose spans —
// recorded around calls into each module's public API from this file, never
// from inside the library — are kept in memory and written to --trace_out at
// exit.
//
// Inputs: --seed generates the request stream only. The dataset and the
// training seed are fixed per workload, so every seed measures the same
// trained federation and the work of a stream barely depends on the seed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fats_trainer.h"
#include "core/unlearning_service.h"
#include "data/paper_configs.h"
#include "fl/client.h"
#include "io/train_journal.h"
#include "rng/philox.h"
#include "rng/rng_stream.h"
#include "state/history_codec.h"
#include "state/tree_aggregate.h"
#include "transport/wire_format.h"
#include "util/crc32.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace fats::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kDataSeed = 1;
constexpr uint64_t kTrainSeed = 42;
// Set-up is repeated at least 3 times and until about this long was spent
// (at most kSetupMaxReps times), so setup_s is a median over seconds.
constexpr double kSetupBudgetS = 2.0;
constexpr size_t kSetupMaxReps = 1000;

// ---------------------------------------------------------------------------
// Workloads.

enum class PickPolicy {
  // Request i deletes the active target at quantile q_i of the current
  // earliest-participation order (never-used targets last), with the q_i
  // stratified over [0, 1) in a seeded order. Each q_i is uniform, so every
  // request is a uniform pick among active targets; the stratification only
  // spreads the picks evenly over replay depth, so a stream's replay work
  // hardly varies with the seed.
  kStratified,
  // Distinct uniformly random samples drawn up front (lazy federations are
  // too large to rank; a window of ~1000 requests averages the depth).
  kUniform,
};

struct Workload {
  std::string name;
  DatasetProfile profile;
  bool lazy = false;
  int64_t threads = 1;
  std::string wire_faults;
  DurableOptions durable;
  bool spill = false;
  int64_t resident_sealed_blocks = 8;
  UnlearningRequest::Kind kind = UnlearningRequest::Kind::kSample;
  PickPolicy pick = PickPolicy::kStratified;
  int64_t requests = 0;
  int64_t window = 1;  // requests per Flush
};

int64_t Scaled(double base, double scale) {
  return std::max<int64_t>(1, std::llround(base * scale));
}

// Request counts stay even so the antithetic strata pair up.
int64_t ScaledEven(double base, double scale) {
  return std::max<int64_t>(2, 2 * std::llround(base * scale / 2.0));
}

// Sizes are calibrated so that, at --seconds 10 on a 4-CPU x86 box, training
// and the deletion stream each run for several seconds. M and R scale
// together with --seconds, which keeps K, b, rho_S and rho_C at the
// profile's values.
Result<Workload> MakeWorkload(const std::string& name, double seconds) {
  const double s = seconds / 10.0;
  Workload w;
  w.name = name;
  if (name == "femnist_su_journal") {
    FATS_ASSIGN_OR_RETURN(w.profile, ScaledProfile("femnist"));
    w.profile.clients_m = Scaled(4800, s);
    w.profile.rounds_r = Scaled(1200, s);
    // Appends are written on the training thread; fsync every 8 rounds
    // (64 iterations). An fsync every 2.5 ms round made the phase time
    // follow the shared disk's latency (run-to-run spread ~0.26).
    w.durable.sync_every_rounds = 8;
    w.kind = UnlearningRequest::Kind::kSample;
    w.pick = PickPolicy::kStratified;
    w.requests = ScaledEven(20, std::sqrt(s));
    w.window = 1;
    return w;
  }
  if (name == "shakespeare_cu_lossy") {
    FATS_ASSIGN_OR_RETURN(w.profile, ScaledProfile("shakespeare"));
    w.profile.clients_m = Scaled(360, s);
    w.profile.rounds_r = Scaled(60, s);
    w.wire_faults = "drop=0.2,corrupt=0.05";
    w.durable.async_io = true;
    w.kind = UnlearningRequest::Kind::kClient;
    w.pick = PickPolicy::kStratified;
    w.requests = std::min<int64_t>(ScaledEven(14, std::sqrt(s)),
                                   w.profile.clients_m / 4);
    w.window = 1;
    return w;
  }
  if (name == "lazy_su_coalesced") {
    FATS_ASSIGN_OR_RETURN(w.profile, ScaledProfile("cifar10"));  // MLP
    w.profile.clients_m = Scaled(120000, s);
    w.profile.samples_per_client_n = 8;
    w.profile.clients_per_round_k = 32;
    w.profile.local_iters_e = 2;
    w.profile.batch_b = 4;
    w.profile.rounds_r = Scaled(120, s);
    w.lazy = true;
    w.threads = 4;
    w.spill = true;
    w.resident_sealed_blocks = 1;
    w.kind = UnlearningRequest::Kind::kSample;
    w.pick = PickPolicy::kUniform;
    w.window = Scaled(1000, s);
    w.requests = 4 * w.window;
    return w;
  }
  return Status::NotFound("unknown workload: " + name);
}

// ---------------------------------------------------------------------------
// Spans, kept in memory and written out at exit.

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  uint32_t Name(const std::string& name) {
    const auto [it, inserted] =
        ids_.emplace(name, static_cast<uint32_t>(names_.size()));
    if (inserted) names_.push_back(name);
    return it->second;
  }

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  int32_t Begin(uint32_t name) {
    spans_.push_back({name, Parent(), request_, Now(), -1});
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }

  void End(int32_t span) {
    spans_[static_cast<size_t>(span)].end_ns = Now();
    stack_.pop_back();
  }

  // A completed span under the currently open one.
  void Add(uint32_t name, int64_t start_ns, int64_t end_ns) {
    spans_.push_back({name, Parent(), request_, start_ns, end_ns});
  }

  void set_request(int64_t request) { request_ = request; }
  int64_t size() const { return static_cast<int64_t>(spans_.size()); }

  Status Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return Status::IoError("cannot open trace output " + path);
    out << "{\"names\":[";
    for (size_t i = 0; i < names_.size(); ++i) {
      out << (i ? "," : "") << '"' << names_[i] << '"';
    }
    out << "],\n\"fields\":[\"name\",\"parent\",\"request\",\"start_ns\","
           "\"end_ns\"],\n\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out << (i ? ",\n" : "") << '[' << s.name << ',' << s.parent << ','
          << s.request << ',' << s.start_ns << ',' << s.end_ns << ']';
    }
    out << "]}\n";
    out.close();
    return out ? Status::OK() : Status::IoError("short write: " + path);
  }

 private:
  struct SpanRecord {
    uint32_t name;
    int32_t parent;
    int64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };

  int32_t Parent() const { return stack_.empty() ? -1 : stack_.back(); }

  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> stack_;
  int64_t request_ = -1;
};

// RAII span; a null tracer makes it free.
class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) span_ = tracer_->Begin(tracer_->Name(name));
  }
  ~Scoped() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  int32_t span_ = -1;
};

// Forwards every trainer event to the journaled session, timing each call
// (io.*). During training rounds it also records the gaps between events
// that bracket one layer's work inside FatsTrainer::Run:
//   round start      -> OnClientSelection : client draw + record (rng.*)
//   last OnLocalModel -> OnGlobalModel    : uploads + tree aggregate (fl.*)
//   OnGlobalModel    -> OnRoundRecord     : EvaluateTestAccuracy (metrics.*)
class TracingSink : public TrainEventSink {
 public:
  TracingSink(TrainEventSink* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  // Called by the benchmark at the start of each training round.
  void BeginRound() {
    in_round_ = true;
    last_end_ns_ = tracer_->Now();
  }
  void EndRound() { in_round_ = false; }

  void OnClientSelection(int64_t round,
                         const std::vector<int64_t>& selection) override {
    Gap("rng.selection");
    Timed("io.selection", [&] { inner_->OnClientSelection(round, selection); });
  }
  void OnMinibatch(int64_t iteration, int64_t client,
                   const std::vector<int64_t>& indices) override {
    Timed("io.minibatch",
          [&] { inner_->OnMinibatch(iteration, client, indices); });
  }
  void OnLocalModel(int64_t iteration, int64_t client,
                    const Tensor& params) override {
    Timed("io.local_model",
          [&] { inner_->OnLocalModel(iteration, client, params); });
  }
  void OnGlobalModel(int64_t round, const Tensor& params) override {
    if (round > 0) Gap("fl.upload_aggregate");
    Timed("io.global_model", [&] { inner_->OnGlobalModel(round, params); });
  }
  void OnRoundRecord(const RoundRecord& record) override {
    Gap("metrics.eval");
    Timed("io.round_record", [&] { inner_->OnRoundRecord(record); });
  }
  void OnIterationComplete(const IterationMark& mark) override {
    Timed("io.commit", [&] { inner_->OnIterationComplete(mark); });
  }
  void OnTruncate(int64_t from_iteration) override {
    Timed("io.truncate", [&] { inner_->OnTruncate(from_iteration); });
  }
  void OnGenerationBump(uint64_t generation) override {
    Timed("io.generation", [&] { inner_->OnGenerationBump(generation); });
  }
  void OnUnlearnBegin() override {
    Timed("io.op_begin", [&] { inner_->OnUnlearnBegin(); });
  }
  void OnUnlearnEnd() override {
    Timed("io.op_end", [&] { inner_->OnUnlearnEnd(); });
  }

 private:
  void Gap(const char* name) {
    if (in_round_) tracer_->Add(tracer_->Name(name), last_end_ns_, tracer_->Now());
  }
  template <typename Fn>
  void Timed(const char* name, Fn&& fn) {
    const int64_t start = tracer_->Now();
    fn();
    last_end_ns_ = tracer_->Now();
    tracer_->Add(tracer_->Name(name), start, last_end_ns_);
  }

  TrainEventSink* inner_;
  Tracer* tracer_;
  bool in_round_ = false;
  int64_t last_end_ns_ = 0;
};

// ---------------------------------------------------------------------------
// One set-up instance: data, trainer, journaled session, request plan.

struct Instance {
  std::string dir;
  std::unique_ptr<FederatedDataset> data;
  std::unique_ptr<FatsTrainer> trainer;
  std::unique_ptr<DurableTrainingSession> session;
  std::vector<double> quantiles;            // kStratified
  std::vector<UnlearningRequest> uniform;   // kUniform
  double data_build_s = 0.0;

  std::string checkpoint_path() const { return dir + "/train.ckpt"; }
  std::string journal_path() const { return dir + "/train.journal"; }
  std::string spill_dir() const { return dir + "/spill"; }
};

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  return SplitMix64(SplitMix64(seed ^ 0x5bd1e995ull) ^ SplitMix64(a + 1) ^
                    (b * 0x9E3779B97F4A7C15ull));
}

// n quantiles, one per stratum [i/n, (i+1)/n), in a seeded order. Strata
// are paired antithetically (offsets u and 1-u), so a pair's replay depths
// sum to nearly the same total for every seed; each q_i is still uniform.
std::vector<double> StratifiedQuantiles(int64_t n, uint64_t seed) {
  StreamId id;
  id.purpose = RngPurpose::kGeneric;
  id.round = 1;
  RngStream rng(seed, id);
  std::vector<double> q(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; i += 2) {
    const double u = rng.NextDouble();
    q[static_cast<size_t>(i)] = (static_cast<double>(i) + u) / static_cast<double>(n);
    if (i + 1 < n) {
      q[static_cast<size_t>(i + 1)] =
          (static_cast<double>(i + 2) - u) / static_cast<double>(n);
    }
  }
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(q[static_cast<size_t>(i)],
              q[rng.UniformInt(static_cast<uint64_t>(i + 1))]);
  }
  return q;
}

std::vector<UnlearningRequest> UniformSampleRequests(
    const FederatedDataset& data, int64_t n, uint64_t seed) {
  StreamId id;
  id.purpose = RngPurpose::kGeneric;
  id.round = 2;
  RngStream rng(seed, id);
  std::vector<std::vector<int64_t>> taken(
      static_cast<size_t>(data.num_clients()));
  std::vector<UnlearningRequest> out;
  out.reserve(static_cast<size_t>(n));
  while (static_cast<int64_t>(out.size()) < n) {
    const int64_t client = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(data.num_clients())));
    const int64_t index = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(data.samples_of(client))));
    std::vector<int64_t>& used = taken[static_cast<size_t>(client)];
    // Keep two samples per client so no deletion can empty a client.
    if (static_cast<int64_t>(used.size()) + 2 >= data.samples_of(client) ||
        std::find(used.begin(), used.end(), index) != used.end()) {
      continue;
    }
    used.push_back(index);
    UnlearningRequest request;
    request.kind = UnlearningRequest::Kind::kSample;
    request.sample = {client, index};
    out.push_back(request);
  }
  return out;
}

Result<std::unique_ptr<Instance>> SetUp(const Workload& w,
                                        const std::string& dir,
                                        uint64_t seed) {
  auto inst = std::make_unique<Instance>();
  inst->dir = dir;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir);

  const Stopwatch data_timer;
  if (w.lazy) {
    inst->data = std::make_unique<FederatedDataset>(
        BuildLazyFederatedData(w.profile, kDataSeed));
  } else {
    inst->data = std::make_unique<FederatedDataset>(
        BuildFederatedData(w.profile, kDataSeed));
  }
  inst->data_build_s = data_timer.ElapsedSeconds();

  FatsConfig config = FatsConfig::FromProfile(w.profile);
  config.seed = kTrainSeed;
  config.num_threads = w.threads;
  config.transport_fault_spec = w.wire_faults;
  if (w.spill) config.state_spill_dir = inst->spill_dir();
  config.state_resident_sealed_blocks = w.resident_sealed_blocks;
  inst->trainer =
      std::make_unique<FatsTrainer>(w.profile.model, config, inst->data.get());
  FATS_ASSIGN_OR_RETURN(
      inst->session,
      DurableTrainingSession::Open(inst->checkpoint_path(),
                                   inst->journal_path(), inst->trainer.get(),
                                   w.durable));
  if (w.pick == PickPolicy::kStratified) {
    inst->quantiles = StratifiedQuantiles(w.requests, seed);
  } else {
    inst->uniform = UniformSampleRequests(*inst->data, w.requests, seed);
  }
  return inst;
}

// The target at quantile q of the current earliest-participation order.
UnlearningRequest PickStratified(const Workload& w, Instance& inst, double q,
                                 uint64_t seed) {
  struct Candidate {
    int64_t first;  // earliest recorded use; INT64_MAX = never used
    uint64_t tie;
    int64_t client;
    int64_t index;
    bool operator<(const Candidate& o) const {
      return first != o.first ? first < o.first : tie < o.tie;
    }
  };
  const FederatedDataset& data = *inst.data;
  const StateStore& store = inst.trainer->store();
  std::vector<Candidate> candidates;
  for (int64_t client : data.active_clients()) {
    if (w.kind == UnlearningRequest::Kind::kClient) {
      const int64_t round = store.EarliestClientRound(client);
      candidates.push_back({round < 0 ? INT64_MAX : round,
                            Mix(seed, static_cast<uint64_t>(client), 0),
                            client, -1});
      continue;
    }
    if (data.num_active_samples(client) <= 2) continue;
    for (int64_t index : data.active_sample_indices(client)) {
      const int64_t first = store.EarliestSampleUse({client, index});
      candidates.push_back({first < 0 ? INT64_MAX : first,
                            Mix(seed, static_cast<uint64_t>(client),
                                static_cast<uint64_t>(index) + 1),
                            client, index});
    }
  }
  const size_t at = std::min(
      candidates.size() - 1,
      static_cast<size_t>(q * static_cast<double>(candidates.size())));
  std::nth_element(candidates.begin(),
                   candidates.begin() + static_cast<std::ptrdiff_t>(at),
                   candidates.end());
  UnlearningRequest request;
  request.kind = w.kind;
  request.client = candidates[at].client;
  request.sample = {candidates[at].client, candidates[at].index};
  return request;
}

// ---------------------------------------------------------------------------
// One pass: train, checkpoint, honor the stream, verify.

struct PassResult {
  double train_s = 0.0;
  double unlearn_s = 0.0;
  int64_t local_steps = 0;
  int64_t rounds = 0;
  int64_t train_wire_bytes = 0;
  int64_t unlearn_wire_bytes = 0;
  int64_t requests = 0;
  int64_t requests_ok = 0;
  int64_t flushes = 0;
  ServiceFlushStats totals;
  int64_t journal_bytes = 0;
  int64_t checkpoint_bytes = 0;
  int64_t disk_bytes = 0;
  double final_accuracy = 0.0;
  uint32_t model_crc = 0;
  bool session_ok = false;
  bool model_matches_store = false;
  std::vector<std::string> errors;
};

int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

int64_t TreeBytes(const std::string& dir) {
  std::error_code ec;
  int64_t total = 0;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += FileBytes(it->path().string());
  }
  return total;
}

int64_t WireBytes(const CommStats& comm) {
  return comm.total_bytes() + comm.retransmit_bytes();
}

PassResult RunPass(const Workload& w, Instance& inst, uint64_t seed,
                   Tracer* tracer, TracingSink* sink) {
  PassResult out;
  FatsTrainer& trainer = *inst.trainer;
  const int64_t t_total = trainer.config().total_iters_t();
  const int64_t e = trainer.config().local_iters_e;

  // Training phase.
  {
    Scoped phase(tracer, "train");
    const Stopwatch timer;
    if (tracer == nullptr) {
      trainer.TrainUntil(t_total);
    } else {
      for (int64_t t = e; t <= t_total; t += e) {
        Scoped round(tracer, "core.round");
        sink->BeginRound();
        trainer.TrainUntil(t);
        sink->EndRound();
      }
    }
    out.train_s = timer.ElapsedSeconds();
  }
  out.local_steps = trainer.local_iterations_executed();
  out.rounds = trainer.config().rounds_r;
  out.train_wire_bytes = WireBytes(trainer.comm_stats());
  out.journal_bytes = FileBytes(inst.journal_path());
  {
    Scoped span(tracer, "io.checkpoint");
    const Status checkpointed = inst.session->Checkpoint();
    if (!checkpointed.ok()) out.errors.push_back(checkpointed.ToString());
  }
  out.checkpoint_bytes = FileBytes(inst.checkpoint_path());

  // Deletion phase: a closed loop of windows; only Submit and Flush are
  // timed (choosing the next targets is the benchmark's own work).
  UnlearningService service(&trainer);
  std::vector<UnlearningRequest> honored;
  const int64_t wire_before = WireBytes(trainer.comm_stats());
  {
    Scoped phase(tracer, "unlearn");
    for (int64_t first = 0; first < w.requests; first += w.window) {
      const int64_t last = std::min(w.requests, first + w.window);
      std::vector<UnlearningRequest> window;
      for (int64_t i = first; i < last; ++i) {
        UnlearningRequest request =
            w.pick == PickPolicy::kStratified
                ? PickStratified(w, inst, inst.quantiles[static_cast<size_t>(i)],
                                 seed)
                : inst.uniform[static_cast<size_t>(i)];
        request.request_iter = trainer.trained_through();
        window.push_back(request);
      }
      std::vector<bool> accepted(window.size(), false);
      const Stopwatch timer;
      for (size_t i = 0; i < window.size(); ++i) {
        if (tracer != nullptr) tracer->set_request(first + static_cast<int64_t>(i));
        Scoped span(tracer, "core.submit");
        const Status submitted = service.Submit(window[i]);
        accepted[i] = submitted.ok();
        if (!submitted.ok()) out.errors.push_back(submitted.ToString());
      }
      if (tracer != nullptr) tracer->set_request(w.window == 1 ? first : -1);
      Result<ServiceFlushStats> flushed = [&] {
        Scoped span(tracer, "core.flush");
        return service.Flush();
      }();
      out.unlearn_s += timer.ElapsedSeconds();
      if (tracer != nullptr) tracer->set_request(-1);
      ++out.flushes;
      out.requests += static_cast<int64_t>(window.size());
      if (!flushed.ok()) {
        out.errors.push_back(flushed.status().ToString());
        continue;
      }
      out.totals.Accumulate(*flushed);
      for (size_t i = 0; i < window.size(); ++i) {
        if (accepted[i]) honored.push_back(window[i]);
      }
    }
  }
  out.unlearn_wire_bytes = WireBytes(trainer.comm_stats()) - wire_before;

  // Verification: every honored target is gone from the data and from the
  // recorded history (O(1) index lookups), the journal is healthy, and the
  // trainer's model is the final recorded global model.
  const StateStore& store = trainer.store();
  for (const UnlearningRequest& r : honored) {
    bool forgotten;
    if (r.kind == UnlearningRequest::Kind::kSample) {
      forgotten = !inst.data->sample_active(r.sample.client, r.sample.index) &&
                  store.EarliestSampleUse(r.sample) == -1;
    } else {
      forgotten = !inst.data->client_active(r.client) &&
                  store.EarliestClientRound(r.client) == -1;
    }
    if (forgotten) {
      ++out.requests_ok;
    } else {
      out.errors.push_back("target still present in the recorded history");
    }
  }
  out.session_ok = inst.session->status().ok();
  if (!out.session_ok) out.errors.push_back(inst.session->status().ToString());
  const Tensor* final_global = store.GetGlobalModel(t_total / e);
  Tensor params = trainer.global_params();
  out.model_matches_store =
      final_global != nullptr && final_global->BitwiseEquals(params);
  if (!out.model_matches_store) {
    out.errors.push_back("trainer model differs from the final global model");
  }
  // A lost journal or a stale model leaves no request durably honored.
  if (!out.session_ok || !out.model_matches_store) out.requests_ok = 0;
  out.model_crc = Crc32(params.data(), static_cast<size_t>(params.size()) * 4);
  out.final_accuracy = trainer.EvaluateTestAccuracy();

  out.disk_bytes = FileBytes(inst.journal_path()) +
                   FileBytes(inst.checkpoint_path()) +
                   (w.spill ? TreeBytes(inst.spill_dir()) : 0);
  return out;
}

// Per-layer probes (traced pass only): direct calls into module APIs,
// after the stream, one span per call. Returns the bytes the index-codec
// probe decodes per call; failures are appended to `errors`.
int64_t Probe(const Workload& w, Instance& inst, Tracer* tracer,
              std::vector<std::string>* errors) {
  Scoped phase(tracer, "probe");
  FatsTrainer& trainer = *inst.trainer;
  const Tensor global = trainer.global_params();

  // nn: one local SGD step on a replica model.
  {
    Model replica(w.profile.model, kTrainSeed);
    ClientRuntime runtime(inst.data.get(), &replica);
    const int64_t client = inst.data->active_clients().front();
    StreamId id;
    id.purpose = RngPurpose::kGeneric;
    id.round = 3;
    RngStream stream(kTrainSeed, id);
    const int64_t b = std::min(trainer.b(), inst.data->num_active_samples(client));
    const std::vector<int64_t> batch = runtime.SampleMinibatch(client, b, &stream);
    for (int i = 0; i < 200; ++i) {
      replica.SetParameters(global);
      Scoped span(tracer, "nn.step");
      runtime.Step(client, batch, trainer.config().learning_rate);
    }
  }
  // transport: model payload codec.
  std::string payload;
  for (int i = 0; i < 100; ++i) {
    Scoped span(tracer, "transport.encode");
    payload = transport::EncodeModelPayload(global);
  }
  for (int i = 0; i < 100; ++i) {
    Scoped span(tracer, "transport.decode");
    Result<Tensor> decoded = transport::DecodeModelPayload(payload);
    if (!decoded.ok()) errors->push_back(decoded.status().ToString());
  }
  // state: K-way tree aggregate on the trainer's pool, and the index codec
  // over recorded mini-batches.
  {
    const std::vector<Tensor> inputs(static_cast<size_t>(trainer.K()), global);
    for (int i = 0; i < 100; ++i) {
      Scoped span(tracer, "state.tree_aggregate");
      Tensor sum = state::TreeAggregate(inputs, trainer.client_runner()->pool());
      if (sum.size() != global.size()) errors->push_back("bad aggregate size");
    }
  }
  int64_t codec_bytes = 0;
  {
    std::vector<int64_t> indices;
    for (const auto& [iter, client] : trainer.store().MinibatchKeys()) {
      const std::vector<int64_t>* batch =
          trainer.store().GetMinibatch(iter, client);
      if (batch != nullptr) indices.insert(indices.end(), batch->begin(), batch->end());
      if (indices.size() >= 8192) break;
    }
    const std::string encoded = state::EncodeIndexList(indices);
    std::vector<int64_t> decoded;
    for (int i = 0; i < 200; ++i) {
      Scoped span(tracer, "state.codec_decode");
      const Status status = state::DecodeIndexList(encoded, &decoded);
      if (!status.ok()) errors->push_back(status.ToString());
    }
    codec_bytes = static_cast<int64_t>(indices.size() * sizeof(int64_t));
  }
  // util: CRC-32 over a model-sized buffer.
  for (int i = 0; i < 200; ++i) {
    Scoped span(tracer, "util.crc32");
    volatile uint32_t crc =
        Crc32(global.data(), static_cast<size_t>(global.size()) * 4);
    (void)crc;
  }
  return codec_bytes;
}

// ---------------------------------------------------------------------------
// Output.

class Json {
 public:
  Json& Key(const std::string& key) {
    Sep();
    out_ += '"' + key + "\":";
    fresh_ = true;
    return *this;
  }
  Json& Num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : -1.0);
    return Raw(buf);
  }
  Json& Int(int64_t v) { return Raw(std::to_string(v)); }
  Json& Bool(bool v) { return Raw(v ? "true" : "false"); }
  Json& Str(const std::string& v) {
    std::string escaped;
    for (char c : v) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return Raw('"' + escaped + '"');
  }
  Json& Open(char c) {
    Sep();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& Close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  Json& NumArray(const std::vector<double>& values) {
    Open('[');
    for (double v : values) Num(v);
    return Close(']');
  }
  const std::string& str() const { return out_; }

 private:
  Json& Raw(const std::string& s) {
    Sep();
    out_ += s;
    fresh_ = false;
    return *this;
  }
  void Sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

void EmitPass(Json& j, const PassResult& p) {
  j.Key("train_s").Num(p.train_s);
  j.Key("unlearn_s").Num(p.unlearn_s);
  j.Key("local_steps").Int(p.local_steps);
  j.Key("rounds").Int(p.rounds);
  j.Key("train_wire_bytes").Int(p.train_wire_bytes);
  j.Key("unlearn_wire_bytes").Int(p.unlearn_wire_bytes);
  j.Key("requests").Int(p.requests);
  j.Key("requests_ok").Int(p.requests_ok);
  j.Key("flushes").Int(p.flushes);
  j.Key("triggered").Int(p.totals.triggered_requests);
  j.Key("substituted_batches").Int(p.totals.substituted_batches);
  j.Key("redrawn_rounds").Int(p.totals.redrawn_rounds);
  j.Key("replays").Int(p.totals.replays);
  j.Key("replayed_iters").Int(p.totals.replayed_iterations);
  j.Key("sequential_replayed_iters")
      .Int(p.totals.sequential_replayed_iterations);
  j.Key("flush_wall_s").Num(p.totals.wall_seconds);
  j.Key("journal_bytes").Int(p.journal_bytes);
  j.Key("checkpoint_bytes").Int(p.checkpoint_bytes);
  j.Key("disk_bytes").Int(p.disk_bytes);
  j.Key("final_accuracy").Num(p.final_accuracy);
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", p.model_crc);
  j.Key("model_crc32").Str(crc);
  j.Key("session_ok").Bool(p.session_ok);
  j.Key("model_matches_store").Bool(p.model_matches_store);
  j.Key("errors").Open('[');
  for (const std::string& e : p.errors) j.Str(e);
  j.Close(']');
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return -1.0;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  std::string* workload = flags.AddString("workload", "", "workload name");
  int64_t* seed = flags.AddInt("seed", 1, "request-stream seed");
  double* seconds =
      flags.AddDouble("seconds", 10.0, "size of the measured phases");
  bool* trace = flags.AddBool("trace", false, "traced pass + per-layer spans");
  std::string* work_dir =
      flags.AddString("work_dir", "", "directory for journal/spill files");
  std::string* trace_out = flags.AddString("trace_out", "", "span file");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  Result<Workload> made = MakeWorkload(*workload, *seconds);
  if (!made.ok() || work_dir->empty()) {
    std::fprintf(stderr, "usage: --workload=<name> --work_dir=<dir> (%s)\n",
                 made.status().ToString().c_str());
    return 2;
  }
  const Workload& w = *made;
  const uint64_t stream_seed = static_cast<uint64_t>(*seed);
  const std::string dir = *work_dir + "/state";
  std::fprintf(stderr, "%s: %s, %lld requests, window %lld\n",
               w.name.c_str(), w.profile.ToString().c_str(),
               static_cast<long long>(w.requests),
               static_cast<long long>(w.window));

  // Set-up: repeated identical constructions (the files of the previous one
  // removed first, untimed); the last one is kept for the run.
  std::vector<double> setup_s;
  std::vector<double> data_build_s;
  std::unique_ptr<Instance> inst;
  double spent = 0.0;
  while (setup_s.size() < 3 ||
         (spent < kSetupBudgetS && setup_s.size() < kSetupMaxReps)) {
    inst.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
    const Stopwatch timer;
    Result<std::unique_ptr<Instance>> built = SetUp(w, dir, stream_seed);
    const double took = timer.ElapsedSeconds();
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    inst = std::move(*built);
    setup_s.push_back(took);
    data_build_s.push_back(inst->data_build_s);
    spent += took;
  }

  PassResult pass = RunPass(w, *inst, stream_seed, nullptr, nullptr);
  const double peak_rss = PeakRssMib();

  Json j;
  j.Open('{');
  j.Key("workload").Str(w.name);
  j.Key("seed").Int(*seed);
  j.Key("setup_s").NumArray(setup_s);
  j.Key("data_build_s").NumArray(data_build_s);
  j.Key("peak_rss_mib").Num(peak_rss);
  j.Key("pass").Open('{');
  EmitPass(j, pass);
  j.Close('}');

  if (*trace) {
    // Traced pass on a fresh instance: same inputs, so the model CRC and
    // every count must match the untraced pass.
    inst.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
    Tracer tracer;
    Result<std::unique_ptr<Instance>> built = [&] {
      Scoped span(&tracer, "setup");
      return SetUp(w, dir, stream_seed);
    }();
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    inst = std::move(*built);
    TracingSink sink(inst->session.get(), &tracer);
    inst->trainer->set_event_sink(&sink);
    PassResult traced = RunPass(w, *inst, stream_seed, &tracer, &sink);
    const int64_t codec_bytes = Probe(w, *inst, &tracer, &traced.errors);
    inst->trainer->set_event_sink(inst->session.get());

    const StateStore& store = inst->trainer->store();
    const transport::ChannelStats& ch = inst->trainer->channel().stats();
    j.Key("traced").Open('{');
    EmitPass(j, traced);
    j.Key("spans").Int(tracer.size());
    j.Key("channel").Open('{');
    j.Key("messages").Int(ch.messages);
    j.Key("attempts").Int(ch.attempts);
    j.Key("crc_rejects").Int(ch.crc_rejects);
    j.Key("retransmit_bytes").Int(ch.retransmit_bytes);
    j.Key("forced_deliveries").Int(ch.forced_deliveries);
    j.Close('}');
    j.Key("codec_bytes").Int(codec_bytes);
    j.Key("model_bytes").Int(inst->trainer->model()->NumParameters() * 4);
    j.Key("store_resident_bytes").Int(store.ApproxBytes());
    j.Key("store_spilled_bytes").Int(store.SpilledBytes());
    j.Key("spilled_blocks")
        .Int(store.spiller() != nullptr ? store.spiller()->live_blocks() : 0);
    j.Key("shard_generations").Int(inst->data->shard_generations());
    j.Key("materialized_shards").Int(inst->data->materialized_shards());
    j.Close('}');
    const Status written = tracer.Write(*trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }
  j.Close('}');
  inst.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace
}  // namespace fats::perfbench

int main(int argc, char** argv) { return fats::perfbench::Main(argc, argv); }
