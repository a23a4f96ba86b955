// Tests for SimTime/SimDuration, TextTable, and Flags.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/util/flags.h"
#include "src/util/sim_time.h"
#include "src/util/table.h"

namespace lottery {
namespace {

TEST(SimDuration, Constructors) {
  EXPECT_EQ(SimDuration::Nanos(5).nanos(), 5);
  EXPECT_EQ(SimDuration::Micros(2).nanos(), 2000);
  EXPECT_EQ(SimDuration::Millis(3).nanos(), 3000000);
  EXPECT_EQ(SimDuration::Seconds(1).nanos(), 1000000000);
  EXPECT_EQ(SimDuration::SecondsF(0.5).nanos(), 500000000);
}

TEST(SimDuration, Arithmetic) {
  const auto a = SimDuration::Millis(100);
  const auto b = SimDuration::Millis(30);
  EXPECT_EQ((a + b).nanos(), SimDuration::Millis(130).nanos());
  EXPECT_EQ((a - b).nanos(), SimDuration::Millis(70).nanos());
  EXPECT_EQ((a * 3).nanos(), SimDuration::Millis(300).nanos());
  EXPECT_EQ((a / 4).nanos(), SimDuration::Millis(25).nanos());
  EXPECT_EQ((-b).nanos(), -SimDuration::Millis(30).nanos());
}

TEST(SimDuration, RatioAndConversions) {
  EXPECT_DOUBLE_EQ(SimDuration::Millis(20).Ratio(SimDuration::Millis(100)),
                   0.2);
  EXPECT_DOUBLE_EQ(SimDuration::Millis(1500).ToSecondsF(), 1.5);
  EXPECT_DOUBLE_EQ(SimDuration::Micros(2500).ToMillisF(), 2.5);
}

TEST(SimDuration, Comparisons) {
  EXPECT_LT(SimDuration::Millis(1), SimDuration::Millis(2));
  EXPECT_EQ(SimDuration::Seconds(1), SimDuration::Millis(1000));
  EXPECT_GE(SimDuration::Micros(1), SimDuration::Nanos(1000));
}

TEST(SimDuration, ToStringPicksUnits) {
  EXPECT_EQ(SimDuration::Seconds(2).ToString(), "2s");
  EXPECT_EQ(SimDuration::Millis(15).ToString(), "15ms");
  EXPECT_EQ(SimDuration::Micros(7).ToString(), "7us");
  EXPECT_EQ(SimDuration::Nanos(3).ToString(), "3ns");
}

TEST(SimTime, PointArithmetic) {
  const SimTime t0 = SimTime::Zero();
  const SimTime t1 = t0 + SimDuration::Seconds(2);
  EXPECT_EQ((t1 - t0).nanos(), SimDuration::Seconds(2).nanos());
  EXPECT_EQ((t1 - SimDuration::Seconds(1)).nanos(),
            SimTime::FromNanos(1000000000).nanos());
  EXPECT_LT(t0, t1);
}

TEST(SimTime, CompoundAdd) {
  SimTime t;
  t += SimDuration::Millis(250);
  EXPECT_DOUBLE_EQ(t.ToSecondsF(), 0.25);
}

TEST(TextTable, RejectsEmptyHeaderAndBadRows) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
  TextTable t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), std::invalid_argument);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer-name", "22"});
  const std::string s = t.ToString();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
}

TEST(TextTable, AddValuesFormatsMixedTypes) {
  TextTable t({"s", "i", "d"});
  t.AddValues("row", 42, 2.5);
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("row,42,2.500"), std::string::npos);
}

TEST(TextTable, CsvRoundTrip) {
  TextTable t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(FormatHelpers, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(FormatHelpers, FormatRatioNormalizesByLast) {
  EXPECT_EQ(FormatRatio({8.0, 4.0, 2.0}, 1), "4.0 : 2.0 : 1.0");
  EXPECT_EQ(FormatRatio({}, 2), "");
}

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog", "--seed=42", "--name=abc", "--verbose",
                        "pos1"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("seed", 0), 42);
  EXPECT_EQ(flags.GetString("name", ""), "abc");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 1.5), 1.5);
  EXPECT_FALSE(flags.GetBool("missing", false));
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(Flags, ExplicitFalse) {
  const char* argv[] = {"prog", "--flag=false", "--zero=0"};
  Flags flags(3, const_cast<char**>(argv));
  EXPECT_FALSE(flags.GetBool("flag", true));
  EXPECT_FALSE(flags.GetBool("zero", true));
}

TEST(Flags, DoubleParsing) {
  const char* argv[] = {"prog", "--ratio=2.5", "--seconds=20.0",
                        "--scale=1e3"};
  Flags flags(4, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("seconds", 0.0), 20.0);
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 0.0), 1000.0);
}

TEST(Flags, MalformedIntegerThrowsNamingTheFlag) {
  const char* argv[] = {"prog", "--seconds=1O", "--seed=abc", "--empty=",
                        "--frac=2.5", "--bare"};
  Flags flags(6, const_cast<char**>(argv));
  for (const char* name : {"seconds", "seed", "empty", "frac", "bare"}) {
    try {
      flags.GetInt(name, 7);
      ADD_FAILURE() << "--" << name << " parsed as an integer";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + name),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Flags, MalformedDoubleThrows) {
  const char* argv[] = {"prog", "--ratio=2.5x", "--empty=", "--word=fast"};
  Flags flags(4, const_cast<char**>(argv));
  EXPECT_THROW(flags.GetDouble("ratio", 1.0), std::invalid_argument);
  EXPECT_THROW(flags.GetDouble("empty", 1.0), std::invalid_argument);
  EXPECT_THROW(flags.GetDouble("word", 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace lottery
