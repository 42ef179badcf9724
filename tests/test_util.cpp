// Unit tests for emon::util — RNG streams, statistics, serialization,
// hex, tables and the strong unit types.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/hexdump.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace emon::util {
namespace {

// ---------------------------------------------------------------------------
// Rng / SeedSequence
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{7};
  for (int i = 0; i < 1'000; ++i) {
    const double u = rng.uniform(-5.0, 11.0);
    EXPECT_GE(u, -5.0);
    EXPECT_LT(u, 11.0);
  }
}

TEST(Rng, UniformMeanApproximatesHalf) {
  Rng rng{99};
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.uniform();
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng{3};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1'000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values hit
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng{3};
  EXPECT_EQ(rng.uniform_int(9, 9), 9);
  EXPECT_EQ(rng.uniform_int(9, 3), 9);  // lo >= hi returns lo
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng{11};
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) {
    stats.add(rng.normal(10.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng{13};
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.exponential(3.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kN, 3.0, 0.1);
}

TEST(Rng, BernoulliProbability) {
  Rng rng{17};
  int hits = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(SeedSequence, SameNameSameSeed) {
  SeedSequence seq{42};
  EXPECT_EQ(seq.derive("a"), seq.derive("a"));
}

TEST(SeedSequence, DifferentNamesDifferentSeeds) {
  SeedSequence seq{42};
  EXPECT_NE(seq.derive("dev-1"), seq.derive("dev-2"));
}

TEST(SeedSequence, DifferentExperimentSeedsDiffer) {
  SeedSequence a{1};
  SeedSequence b{2};
  EXPECT_NE(a.derive("x"), b.derive("x"));
}

TEST(SeedSequence, StreamsAreIndependent) {
  SeedSequence seq{42};
  Rng a = seq.stream("a");
  Rng b = seq.stream("b");
  // Crude independence check: correlation of first 1000 draws near zero.
  double sum_ab = 0.0, sum_a = 0.0, sum_b = 0.0;
  constexpr int kN = 1'000;
  for (int i = 0; i < kN; ++i) {
    const double x = a.uniform();
    const double y = b.uniform();
    sum_a += x;
    sum_b += y;
    sum_ab += x * y;
  }
  const double cov = sum_ab / kN - (sum_a / kN) * (sum_b / kN);
  EXPECT_NEAR(cov, 0.0, 0.01);
}

TEST(Fnv1a, KnownVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

// ---------------------------------------------------------------------------
// RunningStats / SampleSet / Histogram
// ---------------------------------------------------------------------------

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(v);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  RunningStats a, b, all;
  Rng rng{5};
  for (int i = 0; i < 500; ++i) {
    const double v = rng.normal(3.0, 1.5);
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(SampleSet, QuantilesExact) {
  SampleSet s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    s.add(v);
  }
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
}

TEST(SampleSet, QuantileInterpolates) {
  SampleSet s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.75), 7.5);
}

TEST(SampleSet, ThrowsOnEmpty) {
  SampleSet s;
  EXPECT_THROW((void)s.min(), std::logic_error);
  EXPECT_THROW((void)s.quantile(0.5), std::logic_error);
}

TEST(SampleSet, MeanAndStddev) {
  SampleSet s;
  for (double v : {2.0, 4.0, 6.0}) {
    s.add(v);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
}

TEST(Histogram, BinsAndEdges) {
  Histogram h{0.0, 10.0, 5};
  EXPECT_EQ(h.bins(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_lower(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(4), 10.0);
  h.add(0.5);
  h.add(9.99);
  h.add(-1.0);
  h.add(10.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, AsciiRendersEveryBin) {
  Histogram h{0.0, 2.0, 2};
  h.add(0.5);
  const std::string art = h.ascii();
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 2);
}

TEST(FitLine, RecoversSlopeIntercept) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(2.5 * i - 7.0);
  }
  const auto fit = fit_line(xs, ys);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->slope, 2.5, 1e-9);
  EXPECT_NEAR(fit->intercept, -7.0, 1e-9);
  EXPECT_NEAR(fit->r2, 1.0, 1e-9);
}

TEST(FitLine, RejectsDegenerateInput) {
  EXPECT_FALSE(fit_line({1.0}, {2.0}).has_value());
  EXPECT_FALSE(fit_line({1.0, 1.0}, {2.0, 3.0}).has_value());  // vertical
  EXPECT_FALSE(fit_line({1.0, 2.0}, {2.0}).has_value());       // ragged
}

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader
// ---------------------------------------------------------------------------

TEST(Bytes, RoundTripAllTypes) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello emon");
  const auto bytes = w.take();

  ByteReader r{std::span<const std::uint8_t>(bytes.data(), bytes.size())};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello emon");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.u16(0x0102);
  EXPECT_EQ(w.bytes()[0], 0x02);
  EXPECT_EQ(w.bytes()[1], 0x01);
}

TEST(Bytes, TruncationThrows) {
  ByteWriter w;
  w.u16(7);
  const auto bytes = w.take();
  ByteReader r{std::span<const std::uint8_t>(bytes.data(), bytes.size())};
  EXPECT_EQ(r.u16(), 7);
  EXPECT_THROW((void)r.u8(), DecodeError);
}

// One strict varint decoder: the minimal encoding of every 64-bit value
// reads back, and nothing else does (position untouched on refusal).
TEST(Bytes, VarintDecoderIsStrict) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{1} << 62, std::uint64_t{1} << 63,
        std::numeric_limits<std::uint64_t>::max()}) {
    ByteWriter w;
    w.varint(v);
    const auto bytes = w.take();
    ByteReader r{bytes};
    EXPECT_EQ(r.try_varint(), v);
    EXPECT_TRUE(r.done());
  }
  const auto refused = [](std::vector<std::uint8_t> bytes) -> std::string {
    ByteReader r{bytes};
    std::uint64_t v = 0;
    const char* why = r.read_varint(v);
    EXPECT_FALSE(r.try_varint().has_value());
    EXPECT_EQ(r.remaining(), bytes.size());
    return why == nullptr ? "accepted" : why;
  };
  EXPECT_EQ(refused({0x80, 0x00}), "over-long varint");
  EXPECT_EQ(refused({0xff, 0x80, 0x00}), "over-long varint");
  EXPECT_EQ(refused({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                     0x00}),
            "over-long varint");
  EXPECT_EQ(refused({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                     0x02}),
            "varint overflows 64 bits");
  EXPECT_EQ(refused({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                     0x81, 0x00}),
            "varint overflows 64 bits");
  EXPECT_EQ(refused({}), "truncated varint");
  EXPECT_EQ(refused({0x80, 0x80}), "truncated varint");
}

TEST(Bytes, BadStringLengthThrows) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  const auto bytes = w.take();
  ByteReader r{std::span<const std::uint8_t>(bytes.data(), bytes.size())};
  EXPECT_THROW(r.str(), DecodeError);
}

TEST(Bytes, EmptyString) {
  ByteWriter w;
  w.str("");
  const auto bytes = w.take();
  ByteReader r{std::span<const std::uint8_t>(bytes.data(), bytes.size())};
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, SpecialDoubles) {
  ByteWriter w;
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(1e-308);
  const auto bytes = w.take();
  ByteReader r{std::span<const std::uint8_t>(bytes.data(), bytes.size())};
  EXPECT_TRUE(std::signbit(r.f64()));
  EXPECT_TRUE(std::isinf(r.f64()));
  EXPECT_DOUBLE_EQ(r.f64(), 1e-308);
}

// ---------------------------------------------------------------------------
// Hex
// ---------------------------------------------------------------------------

TEST(Hex, EncodeKnown) {
  const std::uint8_t data[] = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(data, 4)), "deadbeef");
}

TEST(Hex, RoundTrip) {
  const std::uint8_t data[] = {0x00, 0x01, 0x7f, 0x80, 0xff};
  const auto hex = to_hex(std::span<const std::uint8_t>(data, 5));
  const auto back = from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), 5u);
  EXPECT_TRUE(std::equal(back->begin(), back->end(), data));
}

TEST(Hex, CaseInsensitiveDecode) {
  const auto v = from_hex("DeAdBeEf");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0], 0xde);
}

TEST(Hex, RejectsMalformed) {
  EXPECT_FALSE(from_hex("abc").has_value());   // odd length
  EXPECT_FALSE(from_hex("zz").has_value());    // bad digit
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"name", "v"});
  t.row(std::string("long-name"), 1);
  t.row(std::string("x"), 12345);
  const std::string out = t.render();
  EXPECT_NE(out.find("| long-name | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| x         | 12345 |"), std::string::npos);
}

TEST(Table, RejectsRaggedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

// ---------------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------------

TEST(Units, ConstructorsAndAccessors) {
  EXPECT_DOUBLE_EQ(milliamps(1500.0).value(), 1.5);
  EXPECT_DOUBLE_EQ(as_milliamps(amps(0.25)), 250.0);
  EXPECT_DOUBLE_EQ(as_millivolts(volts(3.3)), 3300.0);
  EXPECT_DOUBLE_EQ(as_milliwatt_hours(watt_hours(0.005)), 5.0);
}

TEST(Units, OhmsLaw) {
  const Volts v = milliamps(100.0) * ohms(5.0);
  EXPECT_DOUBLE_EQ(as_millivolts(v), 500.0);
  const Amperes i = volts(5.0) / ohms(50.0);
  EXPECT_DOUBLE_EQ(as_milliamps(i), 100.0);
}

TEST(Units, PowerAndEnergy) {
  const Watts p = volts(5.0) * amps(2.0);
  EXPECT_DOUBLE_EQ(p.value(), 10.0);
  // 10 W for 30 minutes = 5 Wh.
  EXPECT_DOUBLE_EQ(energy_over(p, 1800.0).value(), 5.0);
}

TEST(Units, ArithmeticAndComparison) {
  Amperes a = milliamps(10.0);
  a += milliamps(5.0);
  EXPECT_DOUBLE_EQ(as_milliamps(a), 15.0);
  EXPECT_GT(a, milliamps(14.0));
  EXPECT_DOUBLE_EQ(milliamps(20.0) / milliamps(10.0), 2.0);
  EXPECT_DOUBLE_EQ(as_milliamps(abs_diff(milliamps(3.0), milliamps(8.0))),
                   5.0);
}

TEST(Units, ScalarScaling) {
  EXPECT_DOUBLE_EQ(as_milliamps(milliamps(10.0) * 3.0), 30.0);
  EXPECT_DOUBLE_EQ(as_milliamps(3.0 * milliamps(10.0)), 30.0);
  EXPECT_DOUBLE_EQ(as_milliamps(milliamps(10.0) / 2.0), 5.0);
  EXPECT_DOUBLE_EQ(as_milliamps(-milliamps(10.0)), -10.0);
}

}  // namespace
}  // namespace emon::util
