// The bench report writer (bench/bench_util.h): value encoding, section
// replacement and the refusal to overwrite a report it cannot read.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"

namespace pds2::bench {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const fs::path& path, const std::string& text) {
  std::ofstream(path, std::ios::trunc) << text;
}

size_t Count(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

class ReportWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("pds2_report_writer_" + std::string(info->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "BENCH_test.json").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string path_;
};

TEST(JsonTest, EscapesQuotesBackslashesAndControlBytes) {
  const std::string raw = std::string("a\"b\\c\nd\te") + '\x01' + "f";
  EXPECT_EQ(Json().Add("k", raw).Inline(),
            "{\"k\": \"a\\\"b\\\\c\\nd\\te\\u0001f\"}");
  EXPECT_EQ(Json().Add("q\"", "v").Inline(), "{\"q\\\"\": \"v\"}");
}

TEST(JsonTest, NumbersFollowOneRule) {
  const Json json = Json()
                        .Add("int", 42)
                        .Add("u64", uint64_t{1'000'000'000'000})
                        .Add("neg", -7)
                        .Add("integral_double", 3.0)
                        .Add("big_double", 25000000.0)
                        .Add("fraction", 2.0 / 3.0)
                        .Add("small", 1.5e-9)
                        .Add("nan", std::nan(""))
                        .Add("inf", std::numeric_limits<double>::infinity())
                        .Add("flag", true);
  EXPECT_EQ(json.Inline(),
            "{\"int\": 42, \"u64\": 1000000000000, \"neg\": -7, "
            "\"integral_double\": 3, \"big_double\": 25000000, "
            "\"fraction\": 0.666667, \"small\": 1.5e-09, \"nan\": null, "
            "\"inf\": null, \"flag\": true}");
}

TEST(JsonTest, OverheadsUnderTheResolutionAreNeverNumbers) {
  // Paired differences 0..3 over a base of 10: median difference 2 (20%),
  // quartiles 0.75 and 2.25, so the resolution is 1.58 * 1.5 / sqrt(4) over
  // 10, 11.85%. The mirrored arm (-3..0) is -10%, inside it.
  const std::vector<double> base = {10, 10, 10, 10};
  const Overhead up = PairedOverhead(base, {10, 11, 12, 13});
  const Overhead down = PairedOverhead(base, {7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(up.pct, 20.0);
  EXPECT_NEAR(up.resolution_pct, 11.85, 1e-9);
  EXPECT_TRUE(up.resolved);
  EXPECT_DOUBLE_EQ(down.pct, -10.0);
  EXPECT_FALSE(down.resolved);
  EXPECT_EQ(Json()
                .AddOverhead("up_overhead_pct", up)
                .AddOverhead("down_overhead_pct", down)
                .AddOverheadBound("bound_overhead_pct", down)
                .Inline(),
            "{\"up_overhead_pct\": 20, \"up_overhead_resolution_pct\": 11.85, "
            "\"down_overhead_pct\": \"below resolution\", "
            "\"down_overhead_resolution_pct\": 11.85, "
            "\"bound_overhead_pct\": 11.85, "
            "\"bound_overhead_resolution_pct\": 11.85}");
}

TEST(JsonTest, SectionLayoutPutsEachArrayCellOnItsOwnLine) {
  const Json section =
      Json()
          .Add("n", 2)
          .Add("nested", Json().Add("ran", false))
          .Add("cells", std::vector<Json>{Json().Add("a", 1),
                                          Json().Add("a", 2)})
          .Add("empty", std::vector<Json>{});
  EXPECT_EQ(section.Section(),
            "{\n"
            "    \"n\": 2,\n"
            "    \"nested\": {\"ran\": false},\n"
            "    \"cells\": [\n"
            "      {\"a\": 1},\n"
            "      {\"a\": 2}\n"
            "    ],\n"
            "    \"empty\": []\n"
            "  }");
}

TEST_F(ReportWriterTest, ReplacingOneSectionKeepsTheOthersByteIdentical) {
  ASSERT_TRUE(WriteReportSection(path_, "first", Json().Add("v", 1)));
  ASSERT_TRUE(WriteReportSection(path_, "second", Json().Add("v", 2)));
  ASSERT_TRUE(WriteReportSection(path_, "third", Json().Add("v", 3)));
  std::vector<ReportSection> before;
  std::string error;
  ASSERT_TRUE(ReadReportSections(ReadFile(path_), &before, &error)) << error;

  ASSERT_TRUE(WriteReportSection(path_, "second", Json().Add("v", 22)));
  std::vector<ReportSection> after;
  ASSERT_TRUE(ReadReportSections(ReadFile(path_), &after, &error)) << error;

  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].first, before[i].first);
    if (after[i].first != "second" && after[i].first != "metadata") {
      EXPECT_EQ(after[i].second, before[i].second) << after[i].first;
    }
  }
  EXPECT_EQ(after[1].second, Json().Add("v", 22).Section());
  // New sections go before metadata, which stays last.
  EXPECT_EQ(after.back().first, "metadata");
}

TEST_F(ReportWriterTest, MetadataIsWrittenOnce) {
  ASSERT_TRUE(WriteReportSection(path_, "a", Json().Add("v", 1)));
  ASSERT_TRUE(WriteReportSection(path_, "b", Json().Add("v", 2)));
  ASSERT_TRUE(WriteReportSection(path_, "a", Json().Add("v", 3)));
  const std::string text = ReadFile(path_);
  EXPECT_EQ(Count(text, "\"metadata\""), 1u);
  EXPECT_EQ(Count(text, "\"build_type\""), 1u);
  EXPECT_EQ(Count(text, "\"compiler\""), 1u);
  const std::string compiler = obs::JsonEscape(PDS2_BENCH_COMPILER);
  EXPECT_NE(text.find("\"compiler\": \"" + compiler + "\""),
            std::string::npos);
}

TEST_F(ReportWriterTest, MetadataEscapesTheThreadOverride) {
  const char* saved = std::getenv("PDS2_THREADS");
  const std::string restore = saved ? saved : "";
  ASSERT_EQ(setenv("PDS2_THREADS", "2\"x", 1), 0);
  const bool ok = WriteReportSection(path_, "a", Json().Add("v", 1));
  if (saved) {
    setenv("PDS2_THREADS", restore.c_str(), 1);
  } else {
    unsetenv("PDS2_THREADS");
  }
  ASSERT_TRUE(ok);
  EXPECT_NE(ReadFile(path_).find("\"pds2_threads_env\": \"2\\\"x\""),
            std::string::npos);
}

TEST_F(ReportWriterTest, RefusesAReportInAnotherLayoutAndLeavesItUntouched) {
  const std::string foreign = "{\"keep\": {\"a\": 1}, \"bad\": [1,2]}\n";
  WriteFile(path_, foreign);
  EXPECT_FALSE(WriteReportSection(path_, "mine", Json().Add("v", 1)));
  EXPECT_EQ(ReadFile(path_), foreign);

  // A section that is not one object is refused the same way.
  const std::string array_section = "{\n  \"bad\": [1, 2]\n}\n";
  WriteFile(path_, array_section);
  EXPECT_FALSE(WriteReportSection(path_, "mine", Json().Add("v", 1)));
  EXPECT_EQ(ReadFile(path_), array_section);
}

TEST_F(ReportWriterTest, ReadsBackEveryLayoutItWrites) {
  ASSERT_TRUE(WriteReportSection(
      path_, "s",
      Json().Add("cells", std::vector<Json>{Json().Add("x", 0.5)})));
  const std::string text = ReadFile(path_);
  ASSERT_TRUE(WriteReportSection(
      path_, "s",
      Json().Add("cells", std::vector<Json>{Json().Add("x", 0.5)})));
  EXPECT_EQ(ReadFile(path_), text);
}

}  // namespace
}  // namespace pds2::bench
