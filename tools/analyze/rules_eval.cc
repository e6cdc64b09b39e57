// Observation discipline (rule family 9): eval-in-trainer.
//
// Algorithm 1 never reads test accuracy. It is an observation of a round's
// global model, and its value is a pure function of the stored θ^(r) and
// the fixed test set, so it is computed on read (StoredRoundAccuracies in
// src/metrics, or a FedAvgTrainer round observer set by a caller). A
// trainer or unlearner that evaluates inside its own loop makes every
// training round and every replayed round pay for a value the algorithm
// never uses:
//
//   record.test_accuracy = EvaluateTestAccuracy();          // fires
//   double a = model_->EvaluateAccuracy(x, y);              // fires
//
// Any call of EvaluateAccuracy / EvaluateTestAccuracy inside a function
// body in src/core, src/fl or src/baselines fires, except inside the public
// EvaluateTestAccuracy definitions themselves (the on-demand entry point a
// caller invokes between passes).

#include "analyze/rules.h"
#include "analyze/rules_util.h"

namespace fats::analyze {
namespace {

bool InScope(const std::string& path) {
  return path.find("src/core/") != std::string::npos ||
         path.find("src/fl/") != std::string::npos ||
         path.find("src/baselines/") != std::string::npos;
}

bool IsEvaluation(std::string_view name) {
  return name == "EvaluateAccuracy" || name == "EvaluateTestAccuracy";
}

}  // namespace

void CheckEvalInTrainer(const FileModel& model,
                        std::vector<lint::Finding>* findings) {
  if (!InScope(model.source->path)) return;
  const std::vector<Token>& tokens = model.tokens;
  std::set<size_t> reported;  // nested definitions share tokens
  for (const FunctionDef& fn : model.functions) {
    if (fn.name == "EvaluateTestAccuracy") continue;
    for (size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
      if (tokens[i].kind != TokKind::kIdent || !IsEvaluation(tokens[i].text) ||
          !IsPunct(tokens, i + 1, "(") || !reported.insert(i).second) {
        continue;
      }
      AddFinding(model, kRuleEvalInTrainer, tokens[i].line,
                 "test evaluation '" + std::string(tokens[i].text) +
                     "' inside '" + fn.name +
                     "': training and replay loops never evaluate; compute "
                     "accuracy on read from the stored global model "
                     "(StoredRoundAccuracies) or from a round observer",
                 findings);
    }
  }
}

}  // namespace fats::analyze
