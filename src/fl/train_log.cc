#include "fl/train_log.h"

#include "util/csv_writer.h"
#include "util/string_util.h"

namespace fats {
namespace {

std::vector<std::string> CsvHeader(bool with_accuracy) {
  if (with_accuracy) {
    return {"round", "test_accuracy", "mean_local_loss", "recomputation"};
  }
  return {"round", "mean_local_loss", "recomputation"};
}

// `accuracy` is null when the CSV has no accuracy column.
std::vector<std::string> CsvRow(const RoundRecord& r, const double* accuracy) {
  std::vector<std::string> row = {StrFormat("%lld", (long long)r.round)};
  if (accuracy != nullptr) row.push_back(StrFormat("%.6f", *accuracy));
  row.push_back(StrFormat("%.6f", r.mean_local_loss));
  row.push_back(r.recomputation ? "1" : "0");
  return row;
}

}  // namespace

int64_t TrainLog::TrailingRecomputationRounds() const {
  int64_t count = 0;
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (!it->recomputation) break;
    ++count;
  }
  return count;
}

std::string TrainLog::ToCsv() const {
  std::string out = StrJoin(CsvHeader(/*with_accuracy=*/false), ",");
  out += "\n";
  for (const RoundRecord& r : records_) {
    out += StrJoin(CsvRow(r, nullptr), ",");
    out += "\n";
  }
  return out;
}

Status TrainLog::WriteCsvFile(const std::string& path,
                              const std::vector<double>& test_accuracy) const {
  if (!test_accuracy.empty() && test_accuracy.size() != records_.size()) {
    return Status::InvalidArgument("accuracy series does not match the log");
  }
  CsvWriter writer(path);
  FATS_RETURN_NOT_OK(writer.status());
  writer.WriteHeader(CsvHeader(!test_accuracy.empty()));
  for (size_t i = 0; i < records_.size(); ++i) {
    const double* accuracy =
        test_accuracy.empty() ? nullptr : &test_accuracy[i];
    writer.WriteRow(CsvRow(records_[i], accuracy));
  }
  return writer.Finish();
}

}  // namespace fats
