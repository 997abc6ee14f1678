// Unit tests for the common substrate: RNG, stats, flags.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "harness/manifest.h"

namespace glb {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.NextBelow(bound), bound);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng r(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.NextBelow(1), 0u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng r(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.NextInRange(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= (v == 5);
    saw_hi |= (v == 8);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformityRoughCheck) {
  Rng r(13);
  constexpr int kBuckets = 16;
  constexpr int kSamples = 160000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[r.NextBelow(kBuckets)];
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], expected, expected * 0.08) << "bucket " << b;
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = r.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ShufflePermutes) {
  Rng r(19);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto orig = v;
  r.Shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(Stats, CounterBasics) {
  StatSet s;
  Counter* c = s.GetCounter("a.b");
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(s.CounterValue("a.b"), 5u);
  EXPECT_EQ(s.CounterValue("missing"), 0u);
}

TEST(Stats, GetCounterReturnsSamePointer) {
  StatSet s;
  EXPECT_EQ(s.GetCounter("x"), s.GetCounter("x"));
  EXPECT_NE(s.GetCounter("x"), s.GetCounter("y"));
}

TEST(Stats, PrefixSum) {
  StatSet s;
  s.GetCounter("noc.msgs.request")->Inc(3);
  s.GetCounter("noc.msgs.reply")->Inc(4);
  s.GetCounter("noc.bytes.reply")->Inc(100);
  EXPECT_EQ(s.SumCountersWithPrefix("noc.msgs."), 7u);
  EXPECT_EQ(s.SumCountersWithPrefix("noc."), 107u);
  EXPECT_EQ(s.SumCountersWithPrefix("zzz"), 0u);
}

TEST(Stats, HistogramAggregates) {
  Histogram h;
  h.Record(1);
  h.Record(2);
  h.Record(9);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 12u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 9u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(Stats, HistogramBuckets) {
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 0);
  EXPECT_EQ(Histogram::BucketOf(2), 1);
  EXPECT_EQ(Histogram::BucketOf(3), 1);
  EXPECT_EQ(Histogram::BucketOf(4), 2);
  EXPECT_EQ(Histogram::BucketOf(1024), 10);
}

TEST(Stats, PercentileExactForSingleValue) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.Record(7);
  // One distinct value: clamping to [min, max] makes every quantile exact.
  EXPECT_DOUBLE_EQ(h.PercentileApprox(0.0), 7.0);
  EXPECT_DOUBLE_EQ(h.PercentileApprox(0.5), 7.0);
  EXPECT_DOUBLE_EQ(h.PercentileApprox(1.0), 7.0);
}

TEST(Stats, PercentileEmptyHistogramIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.PercentileApprox(0.5), 0.0);
}

TEST(Stats, PercentileMonotoneAndWithinBucket) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  const double p50 = h.PercentileApprox(0.50);
  const double p95 = h.PercentileApprox(0.95);
  const double p99 = h.PercentileApprox(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Power-of-two buckets: each estimate lands in the true value's bucket.
  EXPECT_GE(p50, 256.0);   // true p50 ~ 500, bucket [256, 512)
  EXPECT_LE(p50, 512.0);
  EXPECT_GE(p95, 512.0);   // true p95 ~ 950, bucket [512, 1024)
  EXPECT_LE(p99, 1000.0);  // clamped to max
  // Out-of-range p is clamped.
  EXPECT_DOUBLE_EQ(h.PercentileApprox(-1.0), h.PercentileApprox(0.0));
  EXPECT_DOUBLE_EQ(h.PercentileApprox(2.0), h.PercentileApprox(1.0));
}

TEST(Stats, PercentileEndpointsAreExact) {
  // Regression: p=1.0 used to interpolate partway into the top occupied
  // bucket and come back below max() (worst near a sparsely-populated
  // top bucket); min/max are tracked exactly, so the endpoints must be
  // returned exactly.
  Histogram h;
  for (std::uint64_t v : {3u, 3u, 3u, 900u}) h.Record(v);
  EXPECT_DOUBLE_EQ(h.PercentileApprox(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.PercentileApprox(1.0), 900.0);
  // Bucket 0 only ever holds {0, 1}: interpolation must not reach 2.
  Histogram tiny;
  for (std::uint64_t i = 0; i < 10; ++i) tiny.Record(i % 2);
  EXPECT_DOUBLE_EQ(tiny.PercentileApprox(1.0), 1.0);
  for (double p : {0.1, 0.5, 0.9}) {
    EXPECT_LE(tiny.PercentileApprox(p), 1.0) << "p=" << p;
  }
}

TEST(Stats, PercentileTracksSortedReferenceQuantile) {
  // Randomized property test: against a sorted-reference quantile the
  // bucketed estimate must stay within one bucket width (the width of
  // the power-of-two bucket holding the true quantile), stay inside
  // [min, max], and hit p=0/p=1 exactly.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 0x9E3779B9u);
    Histogram h;
    std::vector<std::uint64_t> samples;
    const std::size_t n = 1 + rng.NextBelow(500);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix of magnitudes so every bucket regime (0/1, mid, large) and
      // sparse top buckets appear across seeds.
      const std::uint64_t v = rng.NextBool(0.2)
                                  ? rng.NextBelow(2)
                                  : rng.NextBelow(1ull << (1 + rng.NextBelow(20)));
      samples.push_back(v);
      h.Record(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double p : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
      const auto rank = static_cast<std::size_t>(
          p * static_cast<double>(samples.size() - 1));
      const std::uint64_t truth = samples[rank];
      const double est = h.PercentileApprox(p);
      EXPECT_GE(est, static_cast<double>(samples.front())) << "seed " << seed;
      EXPECT_LE(est, static_cast<double>(samples.back())) << "seed " << seed;
      if (p == 0.0 || p == 1.0) {
        EXPECT_DOUBLE_EQ(est, static_cast<double>(truth)) << "seed " << seed;
        continue;
      }
      // One bucket width around the true sorted-order quantile: the
      // bucket [2^b, 2^(b+1)) containing `truth` (width 2 for bucket 0).
      const int b = Histogram::BucketOf(truth);
      const double width = b == 0 ? 2.0 : static_cast<double>(1ull << b);
      EXPECT_NEAR(est, static_cast<double>(truth), width)
          << "seed " << seed << " p=" << p << " n=" << samples.size();
    }
  }
}

TEST(Stats, HistogramMergeFoldsSamples) {
  Histogram a, b, all;
  for (std::uint64_t v : {1u, 5u, 9u}) {
    a.Record(v);
    all.Record(v);
  }
  for (std::uint64_t v : {100u, 2000u}) {
    b.Record(v);
    all.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(a.bucket(i), all.bucket(i)) << "bucket " << i;
  }
  // Merging an empty histogram is a no-op (and keeps min sane).
  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min(), all.min());
}

TEST(Stats, PrintIncludesPercentiles) {
  StatSet s;
  for (std::uint64_t v = 1; v <= 10; ++v) s.GetHistogram("lat")->Record(v);
  std::ostringstream os;
  s.Print(os);
  EXPECT_NE(os.str().find("p50="), std::string::npos);
  EXPECT_NE(os.str().find("p99="), std::string::npos);
}

TEST(Stats, ResetZeroesEverything) {
  StatSet s;
  s.GetCounter("c")->Inc(10);
  s.GetHistogram("h")->Record(5);
  s.Reset();
  EXPECT_EQ(s.CounterValue("c"), 0u);
  EXPECT_EQ(s.FindHistogram("h")->count(), 0u);
}

TEST(Stats, PrintContainsNames) {
  StatSet s;
  s.GetCounter("alpha")->Inc(1);
  s.GetHistogram("beta")->Record(2);
  std::ostringstream os;
  s.Print(os);
  EXPECT_NE(os.str().find("alpha"), std::string::npos);
  EXPECT_NE(os.str().find("beta"), std::string::npos);
}

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog", "pos", "--a=1", "--b", "2", "--d=x", "--c"};
  Flags f(7, const_cast<char**>(argv));
  EXPECT_EQ(f.GetInt("a", 0), 1);
  EXPECT_EQ(f.GetInt("b", 0), 2);
  EXPECT_TRUE(f.GetBool("c", false)) << "bare trailing flag means true";
  EXPECT_EQ(f.GetString("d", ""), "x");
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "pos");
}

// Pins the StatSet ordering contract (see the class comment): every
// dump is in lexicographic name order, independent of registration
// order, so stats blocks from different builds/compilers diff cleanly.
TEST(StatSetOrdering, DumpsAreRegistrationOrderIndependent) {
  const auto populate = [](StatSet& s, bool reversed) {
    std::vector<std::string> counters = {"noc.flits", "core.barriers",
                                         "gl.retries", "a.first", "z.last"};
    std::vector<std::string> hists = {"gl.episode_span", "noc.lat", "b.hist"};
    if (reversed) {
      std::reverse(counters.begin(), counters.end());
      std::reverse(hists.begin(), hists.end());
    }
    for (const std::string& n : counters) s.GetCounter(n)->Inc(n.size());
    for (const std::string& n : hists) {
      s.GetHistogram(n)->Record(7);
      s.GetHistogram(n)->Record(n.size());
    }
  };
  StatSet forward, backward;
  populate(forward, false);
  populate(backward, true);

  const auto dump_all = [](const StatSet& s) {
    std::ostringstream text, csv, block;
    s.Print(text);
    s.PrintCsv(csv);
    json::Writer w(block);
    w.BeginObject();
    harness::WriteStatsBlock(w, s);
    w.EndObject();
    return text.str() + "\n---\n" + csv.str() + "\n---\n" + block.str();
  };
  EXPECT_EQ(dump_all(forward), dump_all(backward));

  // And the order really is name order, not insertion order.
  std::vector<std::string> seen;
  backward.ForEachCounter(
      [&](const std::string& name, const Counter&) { seen.push_back(name); });
  std::vector<std::string> sorted = seen;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(seen, sorted);
  EXPECT_EQ(seen.front(), "a.first");
  EXPECT_EQ(seen.back(), "z.last");
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags f(1, const_cast<char**>(argv));
  EXPECT_EQ(f.GetInt("n", 42), 42);
  EXPECT_EQ(f.GetString("s", "dft"), "dft");
  EXPECT_FALSE(f.GetBool("b", false));
  EXPECT_DOUBLE_EQ(f.GetDouble("d", 2.5), 2.5);
}

TEST(Flags, NumericValuesParseStrictly) {
  const char* argv[] = {"prog", "--hex=0x10", "--neg=-3", "--d=2.5e1"};
  Flags f(4, const_cast<char**>(argv));
  EXPECT_EQ(f.GetInt("hex", 0), 16) << "base-0 parsing keeps hex legal";
  EXPECT_EQ(f.GetInt("neg", 0), -3);
  EXPECT_DOUBLE_EQ(f.GetDouble("d", 0), 25.0);
}

TEST(FlagsDeathTest, BadNumericValuesExit2NamingTheFlag) {
  const auto get_int = [](const char* arg) {
    const char* argv[] = {"prog", arg};
    Flags(2, const_cast<char**>(argv)).GetInt("n", 0);
  };
  const auto get_double = [](const char* arg) {
    const char* argv[] = {"prog", arg};
    Flags(2, const_cast<char**>(argv)).GetDouble("r", 0);
  };
  EXPECT_EXIT(get_int("--n=abc"), testing::ExitedWithCode(2), "bad value for --n: 'abc'");
  EXPECT_EXIT(get_int("--n=5x"), testing::ExitedWithCode(2), "bad value for --n: '5x'");
  EXPECT_EXIT(get_int("--n="), testing::ExitedWithCode(2), "bad value for --n: ''");
  EXPECT_EXIT(get_int("--n=99999999999999999999"), testing::ExitedWithCode(2),
              "bad value for --n");
  EXPECT_EXIT(get_int("--n"), testing::ExitedWithCode(2), "bad value for --n: 'true'")
      << "a bare flag is not a number";
  EXPECT_EXIT(get_double("--r=0.5x"), testing::ExitedWithCode(2),
              "bad value for --r: '0.5x'");
  EXPECT_EXIT(get_double("--r=1e999"), testing::ExitedWithCode(2), "bad value for --r");
}

TEST(Flags, Uint64TakesTheFullUnsignedRange) {
  const char* argv[] = {"prog", "--hex=0x10", "--max=18446744073709551615"};
  Flags f(3, const_cast<char**>(argv));
  EXPECT_EQ(f.GetUint64("hex", 0), 16u);
  EXPECT_EQ(f.GetUint64("max", 0), UINT64_MAX);
  EXPECT_EQ(f.GetUint64("absent", 7), 7u);
}

TEST(FlagsDeathTest, NegativeOrOversizedUint64Exits2) {
  const auto get = [](const char* arg) {
    const char* argv[] = {"prog", arg};
    Flags(2, const_cast<char**>(argv)).GetUint64("c", 0);
  };
  EXPECT_EXIT(get("--c=-1"), testing::ExitedWithCode(2), "bad value for --c: '-1'");
  EXPECT_EXIT(get("--c=18446744073709551616"), testing::ExitedWithCode(2),
              "bad value for --c");
  EXPECT_EXIT(get("--c=5x"), testing::ExitedWithCode(2), "bad value for --c: '5x'");
}

TEST(Flags, BoolSpellings) {
  const char* argv[] = {"prog", "--t1=true", "--t2=1", "--t3=yes", "--f1=false"};
  Flags f(5, const_cast<char**>(argv));
  EXPECT_TRUE(f.GetBool("t1", false));
  EXPECT_TRUE(f.GetBool("t2", false));
  EXPECT_TRUE(f.GetBool("t3", false));
  EXPECT_FALSE(f.GetBool("f1", true));
}

TEST(Flags, UnreadListsPassedFlagsNoLookupAskedFor) {
  const char* argv[] = {"prog", "pos", "--seen=1", "--probed", "--many=a",
                        "--typo", "3", "--many=b"};
  Flags f(8, const_cast<char**>(argv));
  EXPECT_EQ(f.Unread(), (std::vector<std::string>{"many", "probed", "seen", "typo"}));
  EXPECT_EQ(f.GetInt("seen", 0), 1);
  EXPECT_TRUE(f.Has("probed"));
  EXPECT_EQ(f.GetStrings("many").size(), 2u);
  EXPECT_EQ(f.GetInt("absent", 7), 7);
  EXPECT_EQ(f.Unread(), std::vector<std::string>{"typo"})
      << "positional arguments and never-passed lookups are not flags";
}

}  // namespace
}  // namespace glb
