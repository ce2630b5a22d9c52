/**
 * @file
 * Unit tests for the simulation primitives: time, RNG, counters,
 * logging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "sim/counters.h"
#include "sim/logger.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace {

using namespace mlps::sim;

// ---------------------------------------------------------------- time

TEST(Time, UnitRelations)
{
    EXPECT_EQ(kNanosecond, 1000 * kPicosecond);
    EXPECT_EQ(kMicrosecond, 1000 * kNanosecond);
    EXPECT_EQ(kMillisecond, 1000 * kMicrosecond);
    EXPECT_EQ(kSecond, 1000 * kMillisecond);
    EXPECT_EQ(kMinute, 60 * kSecond);
    EXPECT_EQ(kHour, 60 * kMinute);
}

TEST(Time, FromSecondsRoundTrip)
{
    EXPECT_DOUBLE_EQ(toSeconds(fromSeconds(1.5)), 1.5);
    EXPECT_DOUBLE_EQ(toSeconds(fromSeconds(0.0)), 0.0);
    EXPECT_NEAR(toSeconds(fromSeconds(1e-9)), 1e-9, 1e-15);
}

TEST(Time, NegativeClampsToZero)
{
    EXPECT_EQ(fromSeconds(-3.0), 0);
    EXPECT_EQ(fromSeconds(-1e-18), 0);
}

TEST(Time, SaturatesInsteadOfOverflow)
{
    SimTime huge = fromSeconds(1e12);
    EXPECT_GT(huge, 0);
    EXPECT_LE(huge, std::numeric_limits<SimTime>::max());
}

TEST(Time, MinutesAndHours)
{
    EXPECT_DOUBLE_EQ(toMinutes(kHour), 60.0);
    EXPECT_DOUBLE_EQ(toHours(90 * kMinute), 1.5);
}

TEST(Time, FormatPicksUnits)
{
    EXPECT_EQ(formatTime(2 * kHour), "2 h");
    EXPECT_EQ(formatTime(30 * kSecond), "30 s");
    EXPECT_EQ(formatTime(5 * kMillisecond), "5 ms");
    EXPECT_EQ(formatTime(7 * kMicrosecond), "7 us");
    EXPECT_EQ(formatTime(kNanosecond), "1 ns");
}

// ----------------------------------------------------------------- rng

TEST(Rng, DeterministicBySeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelow)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues)
{
    Rng rng(15);
    std::vector<int> seen(10, 0);
    for (int i = 0; i < 10000; ++i)
        ++seen[rng.below(10)];
    for (int count : seen)
        EXPECT_GT(count, 800); // ~1000 expected each
}

TEST(Rng, RangeInclusive)
{
    Rng rng(17);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(19);
    double sum = 0.0, sumsq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double g = rng.gaussian();
        sum += g;
        sumsq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, GaussianShifted)
{
    Rng rng(21);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalNoiseMedianOne)
{
    Rng rng(23);
    std::vector<double> v;
    for (int i = 0; i < 10001; ++i)
        v.push_back(rng.lognormalNoise(0.3));
    std::sort(v.begin(), v.end());
    EXPECT_NEAR(v[5000], 1.0, 0.05);
    EXPECT_DOUBLE_EQ(rng.lognormalNoise(0.0), 1.0);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(25);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(27);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkDecorrelates)
{
    Rng parent(31);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 2);
}

/** Seed sweep: the unit-interval invariant holds for any seed. */
class RngSeedTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngSeedTest, UniformBoundsHold)
{
    Rng rng(GetParam());
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST_P(RngSeedTest, NextProducesVariation)
{
    Rng rng(GetParam());
    auto first = rng.next();
    bool varied = false;
    for (int i = 0; i < 16; ++i)
        varied |= rng.next() != first;
    EXPECT_TRUE(varied);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedTest,
                         ::testing::Values(0ull, 1ull, 42ull,
                                           0xDEADBEEFull,
                                           0xFFFFFFFFFFFFFFFFull));

// ------------------------------------------------------------ counters

TEST(Counter, AccumulatesTotals)
{
    Counter c("bytes");
    c.add(10.0);
    c.add(2.5);
    EXPECT_DOUBLE_EQ(c.total(), 12.5);
    EXPECT_EQ(c.events(), 2u);
    c.reset();
    EXPECT_DOUBLE_EQ(c.total(), 0.0);
    EXPECT_EQ(c.events(), 0u);
}

TEST(Sampler, BasicStats)
{
    Sampler s("x");
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.record(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
}

TEST(Sampler, EmptyIsZero)
{
    Sampler s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
    EXPECT_EQ(s.count(), 0u);
}

TEST(Sampler, SingleSampleVarianceZero)
{
    Sampler s;
    s.record(3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Sampler, PercentileInterpolates)
{
    Sampler s;
    for (int i = 0; i <= 100; ++i)
        s.record(i);
    EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(25), 25.0, 1e-9);
}

TEST(Sampler, PercentileWithoutSamplesIsFatal)
{
    Sampler kept("k", true);
    EXPECT_THROW(kept.percentile(50), FatalError);
    Sampler dropped("d", false);
    dropped.record(1.0);
    EXPECT_THROW(dropped.percentile(50), FatalError);
}

TEST(Sampler, PercentileSingleSampleIsThatSample)
{
    Sampler s("one", true);
    s.record(7.5);
    EXPECT_DOUBLE_EQ(s.percentile(0), 7.5);
    EXPECT_DOUBLE_EQ(s.percentile(50), 7.5);
    EXPECT_DOUBLE_EQ(s.percentile(100), 7.5);
    // Out-of-range p clamps instead of indexing out of bounds.
    EXPECT_DOUBLE_EQ(s.percentile(-10), 7.5);
    EXPECT_DOUBLE_EQ(s.percentile(250), 7.5);
}

TEST(Sampler, ResetClears)
{
    Sampler s;
    s.record(1.0);
    s.record(2.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_TRUE(s.samples().empty());
}

TEST(Sampler, PercentileAfterResetIsFatal)
{
    Sampler s("r", true);
    s.record(1.0);
    s.reset();
    EXPECT_THROW(s.percentile(50), FatalError);
}

TEST(TimeWeightedAverage, ConstantSignal)
{
    TimeWeightedAverage twa;
    twa.set(0, 5.0);
    EXPECT_DOUBLE_EQ(twa.average(10 * kSecond), 5.0);
}

TEST(TimeWeightedAverage, StepSignal)
{
    TimeWeightedAverage twa;
    twa.set(0, 0.0);
    twa.set(5 * kSecond, 10.0);
    EXPECT_DOUBLE_EQ(twa.average(10 * kSecond), 5.0);
}

TEST(TimeWeightedAverage, BackwardsTimeIsFatal)
{
    TimeWeightedAverage twa;
    twa.set(kSecond, 1.0);
    EXPECT_THROW(twa.set(0, 2.0), FatalError);
}

TEST(TimeWeightedAverage, BeforeStartIsZero)
{
    TimeWeightedAverage twa;
    EXPECT_DOUBLE_EQ(twa.average(kSecond), 0.0);
}

// ------------------------------------------------------------- logger

TEST(Logger, FatalThrows)
{
    EXPECT_THROW(fatal("bad config %d", 42), FatalError);
}

TEST(Logger, FatalFormatsMessage)
{
    try {
        fatal("value=%d name=%s", 7, "x");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value=7 name=x");
    }
}

TEST(Logger, LevelRoundTrip)
{
    LogLevel old = logLevel();
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevel(old);
}

// Regression test for the data race between the level gate and
// concurrent emitters: the gate is an atomic, the structured mirror
// is mutex-guarded, so logging from worker threads while another
// thread flips the verbosity (as `mlpsim serve` does when a batch
// turns chatty) must be clean under TSan.
TEST(Logger, ConcurrentEmitAndLevelChangeIsRaceFree)
{
    LogLevel old = logLevel();
    auto mirror = std::filesystem::temp_directory_path() /
                  ("mlpsim_logger_race_" +
                   std::to_string(::getpid()) + ".jsonl");
    setStructuredLogFile(mirror.string());

    constexpr int kThreads = 4;
    constexpr int kIters = 200;
    std::vector<std::thread> workers;
    workers.reserve(kThreads + 1);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([t] {
            for (int i = 0; i < kIters; ++i) {
                inform("race: worker=%d iter=%d", t, i);
                warn("race: worker=%d iter=%d", t, i);
                debug("race: worker=%d iter=%d", t, i);
            }
        });
    }
    workers.emplace_back([] {
        for (int i = 0; i < kIters; ++i) {
            setLogLevel(LogLevel::Debug);
            setLogLevel(LogLevel::Warn);
            setLogLevel(LogLevel::Info);
        }
    });
    for (auto &w : workers)
        w.join();

    setStructuredLogFile("");
    setLogLevel(old);
    EXPECT_TRUE(std::filesystem::exists(mirror));
    std::filesystem::remove(mirror);
}

} // namespace
