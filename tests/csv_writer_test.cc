#include "util/csv_writer.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "fl/train_log.h"

namespace fats {
namespace {

// True when /dev/full is available (Linux): writes to it fail with ENOSPC,
// which is how we simulate a full disk.
bool HaveDevFull() {
  std::ofstream probe("/dev/full");
  return probe.is_open();
}

TEST(CsvEscapeTest, PlainValuesUnchanged) {
  EXPECT_EQ(CsvEscape("abc"), "abc");
  EXPECT_EQ(CsvEscape("1.5"), "1.5");
}

TEST(CsvEscapeTest, QuotesFieldsWithCommas) {
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
}

TEST(CsvEscapeTest, DoublesEmbeddedQuotes) {
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvWriterTest, WritesHeaderOnce) {
  std::ostringstream out;
  CsvWriter writer(&out, "");
  writer.WriteHeader({"a", "b"});
  writer.WriteHeader({"c", "d"});  // ignored
  writer.WriteRow({"1", "2"});
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(CsvWriterTest, AppliesLinePrefix) {
  std::ostringstream out;
  CsvWriter writer(&out, "# CSV,");
  writer.WriteRow({"x", "y"});
  EXPECT_EQ(out.str(), "# CSV,x,y\n");
}

TEST(CsvWriterTest, FileTargetReportsOpenFailure) {
  CsvWriter writer("/nonexistent_dir_zzz/file.csv");
  EXPECT_FALSE(writer.status().ok());
  writer.WriteRow({"ignored"});  // must not crash
}

TEST(CsvWriterTest, FileTargetWrites) {
  std::string path = testing::TempDir() + "/csv_writer_test.csv";
  {
    CsvWriter writer(path);
    ASSERT_TRUE(writer.status().ok());
    writer.WriteHeader({"k", "v"});
    writer.WriteRow({"a", "1"});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "k,v");
  EXPECT_EQ(line2, "a,1");
}

TEST(CsvWriterTest, FinishReportsOkOnHappyPath) {
  std::string path = testing::TempDir() + "/csv_writer_finish.csv";
  CsvWriter writer(path);
  ASSERT_TRUE(writer.status().ok());
  writer.WriteRow({"a", "1"});
  EXPECT_TRUE(writer.Finish().ok());
  EXPECT_TRUE(writer.Finish().ok());  // safe to call twice
  writer.WriteRow({"late"});          // no-op after Finish, must not crash
}

TEST(CsvWriterTest, FullDiskSurfacesAsIoErrorAtFinish) {
  if (!HaveDevFull()) GTEST_SKIP() << "/dev/full not available";
  CsvWriter writer("/dev/full");
  ASSERT_TRUE(writer.status().ok());
  writer.WriteRow({"a", "1"});
  Status status = writer.Finish();
  ASSERT_FALSE(status.ok()) << "full disk was not reported";
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST(CsvWriterTest, FullDiskLatchesDuringLargeWrites) {
  if (!HaveDevFull()) GTEST_SKIP() << "/dev/full not available";
  CsvWriter writer("/dev/full");
  ASSERT_TRUE(writer.status().ok());
  // A row larger than any stdio buffer forces the stream to hit the device
  // mid-write, so the failure latches in WriteRow itself.
  const std::string big(1 << 22, 'x');
  writer.WriteRow({big});
  writer.WriteRow({big});
  EXPECT_FALSE(writer.Finish().ok());
}

TEST(TrainLogCsvTest, WriteCsvFileMatchesToCsv) {
  TrainLog log;
  log.Append({1, 1.25, false});
  log.Append({2, 0.5, true});
  const std::vector<double> accuracy = {0.5, 0.75};
  std::string path = testing::TempDir() + "/train_log_write.csv";
  auto read = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  ASSERT_TRUE(log.WriteCsvFile(path).ok());
  EXPECT_EQ(read(), log.ToCsv());
  EXPECT_EQ(log.ToCsv(),
            "round,mean_local_loss,recomputation\n"
            "1,1.250000,0\n"
            "2,0.500000,1\n");
  // An accuracy series read from outside the log becomes the second column.
  ASSERT_TRUE(log.WriteCsvFile(path, accuracy).ok());
  EXPECT_EQ(read(),
            "round,test_accuracy,mean_local_loss,recomputation\n"
            "1,0.500000,1.250000,0\n"
            "2,0.750000,0.500000,1\n");
  const Status mismatch = log.WriteCsvFile(path, {0.5});
  EXPECT_EQ(mismatch.code(), StatusCode::kInvalidArgument);
}

TEST(TrainLogCsvTest, WriteCsvFilePropagatesOpenFailure) {
  TrainLog log;
  log.Append({1, 1.25, false});
  Status status = log.WriteCsvFile("/nonexistent_dir_zzz/log.csv");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST(TrainLogCsvTest, WriteCsvFilePropagatesFullDisk) {
  if (!HaveDevFull()) GTEST_SKIP() << "/dev/full not available";
  TrainLog log;
  for (int64_t r = 1; r <= 64; ++r) {
    log.Append({r, 1.0, false});
  }
  Status status = log.WriteCsvFile("/dev/full");
  ASSERT_FALSE(status.ok()) << "full disk was not reported";
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace fats
