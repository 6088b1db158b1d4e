// Unit tests for the utility layer.
#include <gtest/gtest.h>

#include <cfloat>
#include <cstring>
#include <set>

#include "util/aligned.h"
#include "util/format.h"
#include "util/json.h"
#include "util/options.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace xstream {
namespace {

TEST(AlignedBufferTest, AlignsToIoAlignment) {
  AlignedBuffer buf(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % kIoAlignment, 0u);
  EXPECT_EQ(buf.size(), 100u);
}

TEST(AlignedBufferTest, EmptyBufferIsValid) {
  AlignedBuffer buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.data(), nullptr);
}

TEST(AlignedBufferTest, MoveTransfersOwnership) {
  AlignedBuffer a(4096);
  std::memset(a.data(), 0x5a, 4096);
  std::byte* p = a.data();
  AlignedBuffer b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(static_cast<unsigned char>(b.data()[4095]), 0x5a);
}

TEST(AlignedBufferTest, MoveAssignReleasesOld) {
  AlignedBuffer a(4096);
  AlignedBuffer b(8192);
  b = std::move(a);
  EXPECT_EQ(b.size(), 4096u);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.Next() == b.Next()) ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, FloatInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    float f = rng.NextFloat();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextBounded(17);
    EXPECT_LT(v, 17u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 17u) << "all residues should appear in 1000 draws";
}

TEST(SplitMixTest, IsAHashNotIdentity) {
  EXPECT_NE(SplitMix64(0), 0u);
  EXPECT_NE(SplitMix64(1), SplitMix64(2));
}

TEST(FormatTest, HumanDuration) {
  EXPECT_EQ(HumanDuration(0.61), "0.61s");
  EXPECT_EQ(HumanDuration(372.0), "6m 12s");
  EXPECT_EQ(HumanDuration(4638.0), "1h 17m 18s");
}

TEST(FormatTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512B");
  EXPECT_EQ(HumanBytes(16 * 1024 * 1024), "16M");
  EXPECT_EQ(HumanBytes(512 * 1024), "512K");
}

TEST(FormatTest, HumanCount) {
  EXPECT_EQ(HumanCount(1400000000ULL), "1.4 billion");
  EXPECT_EQ(HumanCount(41700000ULL), "41.7 million");
  EXPECT_EQ(HumanCount(403394ULL), "403,394");
}

TEST(OptionsTest, ParsesKeyValue) {
  const char* argv[] = {"prog", "--scale=20", "--name=rmat", "--flag"};
  Options opts(4, const_cast<char**>(argv));
  EXPECT_EQ(opts.GetInt("scale", 0), 20);
  EXPECT_EQ(opts.GetString("name", ""), "rmat");
  EXPECT_TRUE(opts.GetBool("flag", false));
  EXPECT_EQ(opts.GetInt("missing", 42), 42);
}

TEST(OptionsTest, TypedAccessors) {
  Options opts;
  opts.Set("x", "2.5");
  opts.Set("b", "true");
  EXPECT_DOUBLE_EQ(opts.GetDouble("x", 0.0), 2.5);
  EXPECT_TRUE(opts.GetBool("b", false));
  EXPECT_TRUE(opts.Has("x"));
  EXPECT_FALSE(opts.Has("y"));
}

TEST(OptionsTest, NumbersAreWholeBaseTenValues) {
  Options opts;
  opts.Set("unit", "064");
  opts.Set("neg", "-3");
  opts.Set("frac", "0.25");
  EXPECT_EQ(opts.GetUint("unit", 0), 64u);  // not octal
  EXPECT_EQ(opts.GetInt("unit", 0), 64);
  EXPECT_EQ(opts.GetInt("neg", 0), -3);
  EXPECT_DOUBLE_EQ(opts.GetDouble("frac", 0.0), 0.25);
}

TEST(OptionsTest, MalformedNumbersAbortNamingTheFlag) {
  Options opts;
  opts.Set("scale", "abc");
  opts.Set("trailing", "10x");
  opts.Set("empty", "");
  opts.Set("iterations", "-1");
  opts.Set("plus", "+5");
  opts.Set("hex", "0x10");
  opts.Set("ratio", "0.5q");
  EXPECT_DEATH(opts.GetUint("scale", 0), "--scale: 'abc'");
  EXPECT_DEATH(opts.GetInt("scale", 0), "--scale: 'abc'");
  EXPECT_DEATH(opts.GetUint("trailing", 0), "--trailing: '10x'");
  EXPECT_DEATH(opts.GetInt("empty", 0), "--empty: ''");
  EXPECT_DEATH(opts.GetUint("iterations", 0), "--iterations: '-1'");
  EXPECT_DEATH(opts.GetUint("plus", 0), "--plus: '\\+5'");
  EXPECT_DEATH(opts.GetInt("hex", 0), "--hex: '0x10'");
  EXPECT_DEATH(opts.GetDouble("ratio", 0.0), "--ratio: '0.5q'");
}

TEST(OptionsTest, BoolsAcceptOnlyKnownSpellings) {
  Options opts;
  for (const char* yes : {"1", "true", "yes"}) {
    opts.Set("b", yes);
    EXPECT_TRUE(opts.GetBool("b", false)) << yes;
  }
  for (const char* no : {"0", "false", "no"}) {
    opts.Set("b", no);
    EXPECT_FALSE(opts.GetBool("b", true)) << no;
  }
  opts.Set("b", "ture");
  EXPECT_DEATH(opts.GetBool("b", false), "--b: 'ture'");
  opts.Set("b", "");
  EXPECT_DEATH(opts.GetBool("b", false), "--b: ''");
}

TEST(RunningStatTest, MeanAndStdDev) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.StdDev(), 2.138, 1e-3);
  EXPECT_EQ(s.Count(), 8u);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
}

TEST(RunningStatTest, CiShrinksWithSamples) {
  RunningStat small;
  RunningStat large;
  Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    small.Add(rng.NextDouble());
  }
  Rng rng2(5);
  for (int i = 0; i < 400; ++i) {
    large.Add(rng2.NextDouble());
  }
  EXPECT_LT(large.Ci99(), small.Ci99());
}

TEST(TableTest, AlignsColumns) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "22"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + i;
  }
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_LT(t.Seconds(), 10.0);
}

TEST(IntervalAccumulatorTest, SumsIntervals) {
  IntervalAccumulator acc;
  acc.Start();
  acc.Stop();
  acc.Start();
  acc.Stop();
  EXPECT_GE(acc.TotalSeconds(), 0.0);
  acc.Clear();
  EXPECT_EQ(acc.TotalSeconds(), 0.0);
}

TEST(JsonTest, DoublesRoundTripBitExactly) {
  const double values[] = {0.1, 1.0 / 3.0, 5e-324, DBL_MAX, -0.0, static_cast<double>(0.1f)};
  JsonWriter w;
  w.BeginArray();
  for (double v : values) {
    w.Value(v);
  }
  w.EndArray();
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(ParseJson(w.str(), &parsed, &error)) << error << ": " << w.str();
  const std::vector<JsonValue>& got = parsed.as_array();
  ASSERT_EQ(got.size(), std::size(values));
  for (size_t i = 0; i < got.size(); ++i) {
    double back = got[i].as_double();
    EXPECT_EQ(std::memcmp(&back, &values[i], sizeof(double)), 0)
        << "value " << i << " came back as " << back << " from " << w.str();
  }
  // Shortest form, not %.17g's 0.10000000000000001.
  EXPECT_EQ(w.str().substr(0, 5), "[0.1,");
}

}  // namespace
}  // namespace xstream
