// Unit tests for util: Status/StatusOr, string helpers, args, csv, table,
// and the arena checksum.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/args.h"
#include "util/checksum.h"
#include "util/csv.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

namespace soldist {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad k");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::IoError("x"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

Status FailThenPropagate() {
  SOLDIST_RETURN_IF_ERROR(Status::IoError("disk"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailThenPropagate().code(), StatusCode::kIoError);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, JoinRoundTrips) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, TrimStripsWhitespace) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
}

TEST(StringUtilTest, ParseUint64) {
  std::uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("12345", &v));
  EXPECT_EQ(v, 12345u);
  EXPECT_TRUE(ParseUint64("  7 ", &v));
  EXPECT_EQ(v, 7u);
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("12x", &v));
  EXPECT_FALSE(ParseUint64("-3", &v));
}

TEST(StringUtilTest, ParseInt64) {
  std::int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("4.2", &v));
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("0.25", &v));
  EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_TRUE(ParseDouble("1e3", &v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(StringUtilTest, WithThousands) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(1234567), "1,234,567");
}

TEST(StringUtilTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(3.14, 4), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 3), "2");
  EXPECT_EQ(FormatDouble(0.5, 2), "0.5");
}

TEST(StringUtilTest, FormatCostMatchesPaperStyle) {
  EXPECT_EQ(FormatCost(1247121.31), "1,247,121.3");
  EXPECT_EQ(FormatCost(66.64), "66.6");
  EXPECT_EQ(FormatCost(0.00033), "0.00033");
  EXPECT_EQ(FormatCost(9.96), "10.0");
}

TEST(ArgsTest, ParsesAllTypes) {
  ArgParser args("test", "desc");
  args.AddInt64("n", 10, "count");
  args.AddDouble("eps", 0.5, "accuracy");
  args.AddBool("full", false, "full grid");
  args.AddString("name", "x", "label");
  const char* argv[] = {"prog", "--n", "42", "--eps=0.25", "--full",
                        "--name", "karate"};
  ASSERT_TRUE(args.Parse(7, argv).ok());
  EXPECT_EQ(args.GetInt64("n"), 42);
  EXPECT_DOUBLE_EQ(args.GetDouble("eps"), 0.25);
  EXPECT_TRUE(args.GetBool("full"));
  EXPECT_EQ(args.GetString("name"), "karate");
  EXPECT_TRUE(args.Provided("n"));
}

TEST(ArgsTest, DefaultsWhenUnset) {
  ArgParser args("test", "desc");
  args.AddInt64("n", 10, "count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(args.Parse(1, argv).ok());
  EXPECT_EQ(args.GetInt64("n"), 10);
  EXPECT_FALSE(args.Provided("n"));
}

TEST(ArgsTest, RejectsUnknownFlag) {
  ArgParser args("test", "desc");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(args.Parse(3, argv).ok());
}

TEST(ArgsTest, RejectsBadInteger) {
  ArgParser args("test", "desc");
  args.AddInt64("n", 0, "count");
  const char* argv[] = {"prog", "--n", "abc"};
  EXPECT_FALSE(args.Parse(3, argv).ok());
}

TEST(ArgsTest, BoolExplicitValues) {
  ArgParser args("test", "desc");
  args.AddBool("flag", true, "x");
  const char* argv[] = {"prog", "--flag=false"};
  ASSERT_TRUE(args.Parse(2, argv).ok());
  EXPECT_FALSE(args.GetBool("flag"));
}

TEST(CsvTest, QuotesSpecialFields) {
  CsvWriter csv({"a", "b"});
  csv.AddRow({"plain", "with,comma"});
  csv.AddRow({"quote\"inside", "line\nbreak"});
  std::string text = csv.ToString();
  EXPECT_EQ(text,
            "a,b\n"
            "plain,\"with,comma\"\n"
            "\"quote\"\"inside\",\"line\nbreak\"\n");
}

TEST(CsvTest, RowBuilderFormats) {
  CsvWriter csv({"s", "i", "d"});
  csv.Row().Str("x").Int(-5).Real(0.125, 3).Done();
  EXPECT_EQ(csv.ToString(), "s,i,d\nx,-5,0.125\n");
  EXPECT_EQ(csv.num_rows(), 1u);
}

TEST(TableTest, MarkdownAligned) {
  TextTable t({"name", "n"});
  t.AddRow({"Karate", "34"});
  t.AddRow({"BA_s", "1000"});
  std::string md = t.ToMarkdown();
  EXPECT_NE(md.find("| Karate | 34   |"), std::string::npos);
  EXPECT_NE(md.find("| BA_s   | 1000 |"), std::string::npos);
  EXPECT_NE(md.find("| ---"), std::string::npos);
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer timer;
  double first = timer.Seconds();
  EXPECT_GE(first, 0.0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.Seconds(), first);
  EXPECT_FALSE(timer.HumanElapsed().empty());
}

/// The fixed input behind the golden digests: byte i is 167 i + 13.
std::vector<unsigned char> PatternBytes(std::size_t size) {
  std::vector<unsigned char> bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<unsigned char>(i * 167 + 13);
  }
  return bytes;
}

// Persisted arena checksums depend on these values: a change here is a
// format change (bump store::kArenaFormatVersion). The lengths cover the
// empty input, the 1-byte, 4-byte and 8-byte tails, one stripe either
// side of 32 bytes, and many stripes. The empty digest equals XXH64's
// published seed-0 value.
TEST(Checksum64Test, GoldenDigests) {
  const std::vector<unsigned char> bytes = PatternBytes(4096);
  const std::pair<std::size_t, std::uint64_t> golden[] = {
      {0, 0xef46db3751d8e999ull},    {1, 0x2078e1ad38ad738bull},
      {7, 0x0da493621d6dc898ull},    {8, 0x76f916c7bb523126ull},
      {31, 0x65c5feb01da7464dull},   {32, 0x7665c921c9bf2ec7ull},
      {33, 0xb5a9d9ef259ae821ull},   {4096, 0x7b557a25d87c020eull},
  };
  for (const auto& [size, digest] : golden) {
    EXPECT_EQ(Checksum64::Of(bytes.data(), size), digest) << size << " bytes";
  }
}

TEST(Checksum64Test, AnySplitIntoUpdatesGivesTheOneShotDigest) {
  const std::vector<unsigned char> bytes = PatternBytes(300);
  for (std::size_t size : {std::size_t{0}, std::size_t{5}, std::size_t{32},
                           std::size_t{33}, std::size_t{100},
                           std::size_t{300}}) {
    const std::uint64_t want = Checksum64::Of(bytes.data(), size);
    // Every two-way cut, then fixed-width pieces (odd widths cross the
    // stripe boundary at every offset).
    for (std::size_t cut = 0; cut <= size; ++cut) {
      Checksum64 sum;
      sum.Update(bytes.data(), cut);
      sum.Update(bytes.data() + cut, size - cut);
      ASSERT_EQ(sum.Digest(), want) << size << " bytes cut at " << cut;
    }
    for (std::size_t width = 1; width <= 41; ++width) {
      Checksum64 sum;
      for (std::size_t at = 0; at < size; at += width) {
        sum.Update(bytes.data() + at, std::min(width, size - at));
      }
      ASSERT_EQ(sum.Digest(), want) << size << " bytes in pieces of "
                                    << width;
    }
  }
  // Digest() keeps the state: more bytes may follow.
  Checksum64 sum;
  sum.Update(bytes.data(), 40);
  EXPECT_EQ(sum.Digest(), Checksum64::Of(bytes.data(), 40));
  sum.Update(bytes.data() + 40, 60);
  EXPECT_EQ(sum.Digest(), Checksum64::Of(bytes.data(), 100));
}

TEST(Checksum64Test, EverySingleBitFlipAndAnAppendedZeroChangeTheDigest) {
  std::vector<unsigned char> bytes = PatternBytes(4096);
  const std::uint64_t clean = Checksum64::Of(bytes.data(), bytes.size());
  int unchanged = 0;
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    const auto mask = static_cast<unsigned char>(1u << (bit % 8));
    bytes[bit / 8] ^= mask;
    unchanged += Checksum64::Of(bytes.data(), bytes.size()) == clean;
    bytes[bit / 8] ^= mask;
  }
  EXPECT_EQ(unchanged, 0) << "of 32768 single-bit flips";
  bytes.push_back(0);
  EXPECT_NE(Checksum64::Of(bytes.data(), bytes.size()), clean);
}

}  // namespace
}  // namespace soldist
