#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace mg::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(99);
  std::array<int, 10> histogram{};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++histogram[rng.below(10)];
  for (int count : histogram) {
    EXPECT_GT(count, kDraws / 10 * 0.9);
    EXPECT_LT(count, kDraws / 10 * 1.1);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(3);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  auto shuffled = items;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, items);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng rng(42);
  const auto first = rng();
  rng.reseed(42);
  EXPECT_EQ(rng(), first);
}

TEST(Flags, ParsesAllTypes) {
  Flags flags("test");
  flags.define_int("count", 5, "")
      .define_double("ratio", 0.5, "")
      .define_bool("verbose", false, "")
      .define_string("name", "default", "");
  const char* argv[] = {"prog",           "--count=7", "--ratio", "2.25",
                        "--verbose",      "--name=x",  "positional"};
  ASSERT_TRUE(flags.parse(7, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 2.25);
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_EQ(flags.get_string("name"), "x");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(Flags, DefaultsSurviveNoArgs) {
  Flags flags;
  flags.define_int("n", 10, "").define_bool("on", true, "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("n"), 10);
  EXPECT_TRUE(flags.get_bool("on"));
}

TEST(Flags, NoPrefixNegatesBool) {
  Flags flags;
  flags.define_bool("steal", true, "");
  const char* argv[] = {"prog", "--no-steal"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_FALSE(flags.get_bool("steal"));
}

TEST(Flags, RejectsUnknownFlag) {
  Flags flags;
  flags.define_int("n", 1, "");
  const char* argv[] = {"prog", "--bogus=3"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(flags.exit_status(), 2);
}

TEST(Flags, RejectsBadValue) {
  Flags flags;
  flags.define_int("n", 1, "");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(flags.exit_status(), 2);

  // Int flags are counts, sizes and seeds: a negative value is refused in
  // both spellings and names the flag; zero is accepted.
  for (std::vector<const char*> negative :
       {std::vector<const char*>{"prog", "--n=-3"},
        std::vector<const char*>{"prog", "--n", "-1"}}) {
    Flags parser;
    parser.define_int("n", 1, "");
    testing::internal::CaptureStderr();
    EXPECT_FALSE(parser.parse(static_cast<int>(negative.size()),
                              const_cast<char**>(negative.data())));
    const std::string error = testing::internal::GetCapturedStderr();
    EXPECT_EQ(parser.exit_status(), 2);
    EXPECT_NE(error.find("--n"), std::string::npos) << error;
    EXPECT_EQ(parser.get_int("n"), 1);
  }
  Flags zero;
  zero.define_int("n", 1, "");
  const char* zero_argv[] = {"prog", "--n=0"};
  ASSERT_TRUE(zero.parse(2, const_cast<char**>(zero_argv)));
  EXPECT_EQ(zero.get_int("n"), 0);

  // A count defined with minimum 1 refuses zero, naming the flag and the
  // bound; 1 is accepted.
  Flags count;
  count.define_int("jobs", 5, "", /*min_value=*/1);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(count.parse(2, const_cast<char**>(
                                  std::vector<const char*>{"prog", "--jobs=0"}
                                      .data())));
  const std::string error = testing::internal::GetCapturedStderr();
  EXPECT_EQ(count.exit_status(), 2);
  EXPECT_NE(error.find("--jobs"), std::string::npos) << error;
  EXPECT_NE(error.find("at least 1"), std::string::npos) << error;
  EXPECT_EQ(count.get_int("jobs"), 5);
  Flags one;
  one.define_int("jobs", 5, "", /*min_value=*/1);
  const char* one_argv[] = {"prog", "--jobs=1"};
  ASSERT_TRUE(one.parse(2, const_cast<char**>(one_argv)));
  EXPECT_EQ(one.get_int("jobs"), 1);

  // Double flags: a negative value is a bad value unless defined otherwise,
  // a flag that must be positive refuses zero and a fraction refuses 1. A
  // refusal names the flag and keeps the default; values inside the range
  // are accepted.
  struct DoubleParse {
    bool ok;
    double value;  // of the flag named in the argument
    std::string error;
  };
  auto parse_double = [](const std::string& arg) {
    Flags doubles;
    doubles.define_double("ratio", 0.5, "")
        .define_double("rate", 10.0, "", {.min_exclusive = true})
        .define_double("fraction", 0.25, "", {.below = 1.0});
    const char* argv[] = {"prog", arg.c_str()};
    testing::internal::CaptureStderr();
    DoubleParse out;
    out.ok = doubles.parse(2, const_cast<char**>(argv));
    out.error = testing::internal::GetCapturedStderr();
    EXPECT_EQ(doubles.exit_status(), out.ok ? 0 : 2) << arg;
    out.value = doubles.get_double(arg.substr(2, arg.find('=') - 2));
    return out;
  };
  for (const std::string bad : {"--ratio=-0.5", "--rate=0", "--fraction=1"}) {
    const DoubleParse parsed = parse_double(bad);
    EXPECT_FALSE(parsed.ok) << bad;
    EXPECT_NE(parsed.error.find("bad value for " + bad.substr(0, bad.find('='))),
              std::string::npos)
        << parsed.error;
  }
  EXPECT_EQ(parse_double("--ratio=-0.5").value, 0.5);
  EXPECT_EQ(parse_double("--fraction=1").value, 0.25);
  EXPECT_EQ(parse_double("--ratio=0").value, 0.0);
  EXPECT_EQ(parse_double("--rate=0.001").value, 0.001);
  EXPECT_EQ(parse_double("--fraction=0.999").value, 0.999);

  // List flags: every entry must be a number in the flag's range, and the
  // list must not be empty unless its default is. A refusal names the flag
  // and keeps the default.
  struct ListParse {
    bool ok;
    std::vector<double> values;  // of the flag named in the argument
    std::string error;
  };
  auto parse_list = [](const std::string& arg) {
    Flags lists;
    lists.define_list("rates", "25,50", "", {.min_exclusive = true})
        .define_list("thresholds", "0,0.5", "")
        .define_list("node-list", "1,2", "", {.min = 1, .integral = true})
        .define_list("speeds", "", "", {.min_exclusive = true});
    const char* argv[] = {"prog", arg.c_str()};
    testing::internal::CaptureStderr();
    ListParse out;
    out.ok = lists.parse(2, const_cast<char**>(argv));
    out.error = testing::internal::GetCapturedStderr();
    EXPECT_EQ(lists.exit_status(), out.ok ? 0 : 2) << arg;
    out.values = lists.get_list(arg.substr(2, arg.find('=') - 2));
    return out;
  };
  for (const std::string bad :
       {"--rates=abc", "--rates=10,x", "--rates=5abc", "--rates=0,50",
        "--rates=-1", "--rates=", "--rates=,", "--thresholds=-0.5",
        "--thresholds=nan", "--rates=inf", "--node-list=0",
        "--node-list=1.5", "--node-list=inf",
        "--speeds=fast"}) {
    const ListParse parsed = parse_list(bad);
    const std::string flag = bad.substr(0, bad.find('='));
    EXPECT_FALSE(parsed.ok) << bad;
    EXPECT_NE(parsed.error.find("bad value for " + flag), std::string::npos)
        << parsed.error;
  }
  EXPECT_EQ(parse_list("--rates=0").values, (std::vector<double>{25, 50}));
  EXPECT_EQ(parse_list("--rates=12.5,,400").values,
            (std::vector<double>{12.5, 400}));
  EXPECT_EQ(parse_list("--thresholds=0").values, (std::vector<double>{0}));
  EXPECT_EQ(parse_list("--node-list=4,1").values,
            (std::vector<double>{4, 1}));
  EXPECT_TRUE(parse_list("--speeds=").ok);
}

TEST(Flags, HelpExitsZeroAndFlagErrorsExitTwo) {
  auto status_after = [](std::vector<const char*> argv) {
    Flags flags;
    flags.define_int("n", 1, "").define_bool("on", false, "");
    EXPECT_FALSE(flags.parse(static_cast<int>(argv.size()),
                             const_cast<char**>(argv.data())));
    return flags.exit_status();
  };
  EXPECT_EQ(status_after({"prog", "--help"}), 0);
  EXPECT_EQ(status_after({"prog", "--n=2", "-h"}), 0);
  EXPECT_EQ(status_after({"prog", "--no-such-flag"}), 2);
  EXPECT_EQ(status_after({"prog", "--no-n"}), 2);
  EXPECT_EQ(status_after({"prog", "--on=maybe"}), 2);
  EXPECT_EQ(status_after({"prog", "--n=12abc"}), 2);
  EXPECT_EQ(status_after({"prog", "--n="}), 2);
  EXPECT_EQ(status_after({"prog", "--n"}), 2);
}

TEST(CsvWriter, WritesHeaderRowsAndComments) {
  const std::string path = testing::TempDir() + "/out.csv";
  {
    CsvWriter csv({"a", "b", "c"}, path);
    csv.comment("hello");
    csv.row({std::int64_t{1}, std::string("x"), 2.5});
    csv.row({std::int64_t{-7}, std::string("y,z"), 0.125});
  }
  std::ifstream input(path);
  std::string line;
  std::getline(input, line);
  EXPECT_EQ(line, "a,b,c");
  std::getline(input, line);
  EXPECT_EQ(line, "# hello");
  std::getline(input, line);
  EXPECT_EQ(line, "1,x,2.5");
  std::getline(input, line);
  EXPECT_EQ(line, "-7,y,z,0.125");  // (no quoting: labels must avoid commas)
  std::remove(path.c_str());
}

TEST(CsvWriterDeath, RejectsWrongWidth) {
  CsvWriter csv({"a", "b"}, testing::TempDir() + "/w.csv");
  EXPECT_DEATH(csv.row({std::int64_t{1}}), "width mismatch");
}

TEST(Log, LevelFiltering) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  MG_INFO("should not appear %d", 1);  // exercise the no-op path
  set_log_level(LogLevel::kTrace);
  MG_TRACE("trace path %s", "ok");     // exercise the emit path
  set_log_level(saved);
  SUCCEED();
}

TEST(FormatDouble, CompactRepresentation) {
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(13253.0), "13253");
}

}  // namespace
}  // namespace mg::util
