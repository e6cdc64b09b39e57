// Store-mutation and draw-ownership discipline (rule family 6):
// store-mutation-bypass and sampling-draw-owner.
//
// store-mutation-bypass.  The trainer's StateStore keeps inverted
// participation indices (sample -> use-iterations, client ->
// participation-rounds) maintained incrementally by its own Save*/Truncate
// methods, and the trainer's history rewrites (SubstituteSampleUses /
// RedrawRoundsFrom) wrap those so the durable event sink sees every
// rewrite.  Core code that grabs the store and mutates it directly —
//
//   trainer_->store().TruncateFromIteration(t, e);   // fires
//   store_.SaveMinibatch(t, k, batch);               // fires (outside the
//                                                    // trainer itself)
//
// — skips the sink, so a crash replays a journal that never saw the
// rewrite.  Reads (GetMinibatch, EarliestSampleUse, ...) are exempt.
//
// sampling-draw-owner.  Algorithm 1's two draws — the client multiset of a
// round and the mini-batch of (iteration, client) — are keyed by the
// RngPurpose kClientSampling / kMinibatchSampling stream.  The trainer
// owns both; a hand-copied draw elsewhere in src/core must track every
// change to the key, the batch-size rule and the active-set law by hand,
// or a rewrite stops reproducing what a draw pass would record.  Any
// mention of either purpose in src/core outside the trainer fires.
// (src/fl/fedavg.cc and src/baselines/fr2.cc run different algorithms with
// their own draws and are out of scope.)
//
// Both rules confine their subject to the owning trainer
// (src/core/fats_trainer.*); everything else in src/core must go through
// the trainer's API.

#include "analyze/rules.h"
#include "analyze/rules_util.h"

namespace fats::analyze {
namespace {

// StateStore methods that mutate records (and therefore the inverted
// indices and the durable history).
const std::set<std::string_view>& StoreMutators() {
  static const auto* kSet = new std::set<std::string_view>{
      "SaveMinibatch",    "SaveClientSelection", "SaveLocalModel",
      "SaveGlobalModel",  "TruncateFromIteration", "Clear"};
  return *kSet;
}

// True when the mutator call at token `i` is invoked on the trainer's
// store: `store().Mutator(` or `store_.Mutator(`.
bool OnTrainerStore(const std::vector<Token>& tokens, size_t i) {
  if (i < 2 || !IsPunct(tokens, i - 1, ".")) return false;
  if (IsIdent(tokens, i - 2, "store_")) return true;
  return i >= 4 && IsPunct(tokens, i - 2, ")") && IsPunct(tokens, i - 3, "(") &&
         IsIdent(tokens, i - 4, "store");
}

bool InScope(const std::string& path) {
  if (path.find("src/core/") == std::string::npos) return false;
  // The trainer owns the store and the draws; its own methods are the
  // sanctioned API.
  return path.find("fats_trainer") == std::string::npos;
}

// The RngPurpose values of Algorithm 1's two draws.
bool IsDrawPurpose(std::string_view name) {
  return name == "kClientSampling" || name == "kMinibatchSampling";
}

}  // namespace

void CheckStoreMutation(const FileModel& model,
                        std::vector<lint::Finding>* findings) {
  if (!InScope(model.source->path)) return;
  const std::vector<Token>& tokens = model.tokens;
  for (size_t i = 2; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent || !IsPunct(tokens, i + 1, "(")) {
      continue;
    }
    if (StoreMutators().count(tokens[i].text) == 0) continue;
    if (!OnTrainerStore(tokens, i)) continue;
    AddFinding(model, kRuleStoreMutationBypass, tokens[i].line,
               "direct StateStore mutation '" + std::string(tokens[i].text) +
                   "' bypasses the trainer's event sink and the store's "
                   "incremental index maintenance contract; call the "
                   "trainer's history rewrite (SubstituteSampleUses / "
                   "RedrawRoundsFrom) instead",
               findings);
  }
}

void CheckDrawOwnership(const FileModel& model,
                        std::vector<lint::Finding>* findings) {
  if (!InScope(model.source->path)) return;
  for (const Token& token : model.tokens) {
    if (token.kind != TokKind::kIdent || !IsDrawPurpose(token.text)) continue;
    AddFinding(model, kRuleSamplingDrawOwner, token.line,
               "sampling stream purpose '" + std::string(token.text) +
                   "' outside the trainer: Algorithm 1's client and "
                   "mini-batch draws belong to FatsTrainer; call its "
                   "history rewrite (SubstituteSampleUses / "
                   "RedrawRoundsFrom) instead of drawing by hand",
               findings);
  }
}

}  // namespace fats::analyze
