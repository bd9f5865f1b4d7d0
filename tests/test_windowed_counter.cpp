/**
 * @file
 * Unit and property tests for the sliding-window miss counter
 * (Section 3.3's k-subwindow scheme).
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/windowed_counter.hpp"
#include "reference_windowed_counter.hpp"
#include "util/random.hpp"

namespace {

using namespace sievestore::core;
using sievestore::testing::ReferenceWindowedCounter;
using sievestore::util::FatalError;
using sievestore::util::kUsPerHour;
using sievestore::util::Rng;

TEST(WindowSpec, PaperDefault)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    EXPECT_EQ(spec.k, 4u);
    EXPECT_EQ(spec.subwindow_us, 2 * kUsPerHour); // W = 8 h
    EXPECT_EQ(spec.subwindowOf(0), 0u);
    EXPECT_EQ(spec.subwindowOf(2 * kUsPerHour), 1u);
}

TEST(WindowSpec, OfWindowSplitsEvenly)
{
    const WindowSpec spec = WindowSpec::ofWindow(8 * kUsPerHour, 4);
    EXPECT_EQ(spec.subwindow_us, 2 * kUsPerHour);
    EXPECT_THROW(WindowSpec::ofWindow(kUsPerHour, 0),
                 sievestore::util::FatalError);
    EXPECT_THROW(WindowSpec::ofWindow(kUsPerHour, 100),
                 sievestore::util::FatalError);
    EXPECT_THROW(WindowSpec::ofWindow(kUsPerHour, kMaxSubwindows + 1),
                 sievestore::util::FatalError);
    EXPECT_THROW(WindowSpec::ofWindow(3, 4), sievestore::util::FatalError);
}

TEST(WindowSpec, ValidateRejectsFieldSetOutOfRangeK)
{
    WindowSpec spec;
    spec.k = kMaxSubwindows + 1;
    EXPECT_THROW(spec.validate(), FatalError);
    spec.k = 0;
    EXPECT_THROW(spec.validate(), FatalError);
    spec.k = kMaxSubwindows;
    spec.subwindow_us = 0;
    EXPECT_THROW(spec.validate(), FatalError);
    spec.subwindow_us = 1;
    EXPECT_NO_THROW(spec.validate());
}

TEST(WindowedCounter, AccumulatesWithinWindow)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    WindowedCounter c;
    EXPECT_EQ(c.record(0, spec), 1u);
    EXPECT_EQ(c.record(0, spec), 2u);
    EXPECT_EQ(c.record(1, spec), 3u);
    EXPECT_EQ(c.record(3, spec), 4u);
    EXPECT_EQ(c.total(3, spec), 4u);
}

TEST(WindowedCounter, OldSubwindowsExpire)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    WindowedCounter c;
    c.record(0, spec); // 2 misses in subwindow 0
    c.record(0, spec);
    c.record(1, spec); // 1 miss in subwindow 1
    // At subwindow 4, subwindow 0 has aged out (window covers 1..4).
    EXPECT_EQ(c.total(4, spec), 1u);
    // At subwindow 5, everything has aged out.
    EXPECT_EQ(c.total(5, spec), 0u);
}

TEST(WindowedCounter, GapOfKOrMoreZeroesEverything)
{
    // "If during a miss, the current time window is larger than the
    // last-updated counter by k or more, then all counters are inferred
    // to be stale and zeroed out."
    const WindowSpec spec = WindowSpec::paperDefault();
    WindowedCounter c;
    for (int i = 0; i < 10; ++i)
        c.record(0, spec);
    EXPECT_EQ(c.record(4, spec), 1u); // fresh start
}

TEST(WindowedCounter, PartialExpiryOnAdvance)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    WindowedCounter c;
    c.record(0, spec);
    c.record(1, spec);
    c.record(2, spec);
    c.record(3, spec);
    // Advancing to 4 must clear only subwindow 0's slot (reused).
    EXPECT_EQ(c.record(4, spec), 4u); // subwindows 1,2,3,4
    EXPECT_EQ(c.record(6, spec), 3u); // subwindows 3,4(1),6(1) -> 1+1+1
}

TEST(WindowedCounter, StaleDetection)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    WindowedCounter c;
    c.record(10, spec);
    EXPECT_FALSE(c.stale(12, spec));
    EXPECT_FALSE(c.stale(13, spec));
    EXPECT_TRUE(c.stale(14, spec));
}

TEST(WindowedCounter, SaturatesAtUint8Max)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    WindowedCounter c;
    for (int i = 0; i < 1000; ++i)
        c.record(0, spec);
    EXPECT_EQ(c.total(0, spec), 255u);
    // Each subwindow saturates on its own; the total is their sum.
    for (int i = 0; i < 1000; ++i)
        c.record(1, spec);
    EXPECT_EQ(c.total(1, spec), 510u);
}

TEST(WindowedCounter, SubwindowBeyondThe32BitTagIsFatal)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    const uint64_t last_tag = UINT32_MAX;
    WindowedCounter c;
    EXPECT_EQ(c.record(last_tag, spec), 1u);
    EXPECT_EQ(c.total(last_tag, spec), 1u);
    // Reading past the tag is plain 64-bit arithmetic: the counter is
    // stale there, never wrapped back to live.
    EXPECT_TRUE(c.stale(last_tag + spec.k, spec));
    EXPECT_EQ(c.total(last_tag + spec.k, spec), 0u);
    try {
        c.record(last_tag + 1, spec);
        FAIL() << "a subwindow past UINT32_MAX must be fatal";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("4294967296"),
                  std::string::npos)
            << "the error names the index: " << e.what();
    }
    WindowedCounter fresh;
    EXPECT_THROW(fresh.touch(last_tag + 1, spec), FatalError);
}

TEST(WindowedCounter, OutOfOrderTimestampsDoNotRegress)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    WindowedCounter c;
    c.record(5, spec);
    // A slightly-late miss must not clear newer state.
    c.record(4, spec);
    EXPECT_GE(c.total(5, spec), 2u);
}

TEST(WindowedCounter, ClearResets)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    WindowedCounter c;
    c.record(3, spec);
    c.clear();
    EXPECT_EQ(c.total(3, spec), 0u);
}

/**
 * Property: against a brute-force reference that remembers every miss
 * timestamp, the windowed counter is exact at subwindow granularity
 * whenever misses arrive in order.
 */
class WindowedCounterProperty : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(WindowedCounterProperty, MatchesBruteForceReference)
{
    const uint32_t k = GetParam();
    WindowSpec spec;
    spec.k = k;
    spec.subwindow_us = 1000;
    WindowedCounter c;
    std::vector<uint64_t> subwindows; // of each recorded miss
    Rng rng(k * 1000 + 7);
    uint64_t sub = 0;
    for (int i = 0; i < 2000; ++i) {
        sub += rng.nextBelow(3); // sometimes same, sometimes advance
        const uint32_t got = c.record(sub, spec);
        subwindows.push_back(sub);
        uint32_t expect = 0;
        for (uint64_t s : subwindows)
            if (s + k > sub)
                ++expect;
        ASSERT_EQ(got, expect) << "at step " << i << " sub " << sub;
    }
}

INSTANTIATE_TEST_SUITE_P(KSweep, WindowedCounterProperty,
                         ::testing::Values(1u, 2u, 3u, 4u));

/**
 * Differential: the 8-byte counter against the wide 16-bit / 64-bit
 * layout it replaced (tests/reference_windowed_counter.hpp). Streams
 * mix bursts of more than UINT8_MAX misses in one subwindow, gaps of k
 * or more subwindows, small steps and late (out-of-order) misses. At
 * every step `total >= t` must agree for every threshold t the sieve
 * accepts (t <= kMaxThresholdSum), which is min(total, 255) agreeing.
 */
class WindowedCounterDifferential
    : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(WindowedCounterDifferential, DecidesLikeTheWideCounter)
{
    WindowSpec spec;
    spec.k = GetParam();
    spec.subwindow_us = 1000;
    const auto capped = [](uint32_t total) {
        return std::min<uint32_t>(total, kMaxThresholdSum);
    };
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed * 7919 + spec.k);
        WindowedCounter c;
        ReferenceWindowedCounter wide;
        uint64_t sub = 0;
        uint32_t saturated_steps = 0;
        for (int step = 0; step < 4000; ++step) {
            const uint64_t roll = rng.nextBelow(100);
            uint64_t at = sub;
            uint32_t misses = 1;
            if (roll < 5) {
                sub += spec.k + rng.nextBelow(3 * spec.k); // gap >= k
                at = sub;
            } else if (roll < 15) {
                misses = 256 + static_cast<uint32_t>(rng.nextBelow(300));
            } else if (roll < 45) {
                sub += 1 + rng.nextBelow(spec.k);
                at = sub;
            } else if (roll < 50 && sub > 0) {
                at = sub - 1 - rng.nextBelow(std::min<uint64_t>(sub, 3));
            }
            for (uint32_t m = 0; m < misses; ++m) {
                const uint32_t got = c.record(at, spec);
                const uint32_t expect = wide.record(at, spec);
                ASSERT_EQ(capped(got), capped(expect))
                    << "seed " << seed << " step " << step << " sub "
                    << at;
                saturated_steps += expect >= kMaxThresholdSum;
            }
            for (uint64_t ahead = 0; ahead <= spec.k; ++ahead) {
                ASSERT_EQ(capped(c.total(sub + ahead, spec)),
                          capped(wide.total(sub + ahead, spec)))
                    << "seed " << seed << " step " << step;
                ASSERT_EQ(c.stale(sub + ahead, spec),
                          wide.stale(sub + ahead, spec));
            }
            if (rng.nextBelow(50) == 0) {
                c.touch(sub, spec);
                wide.touch(sub, spec);
            }
        }
        // The stream must actually drive tallies into saturation.
        EXPECT_GT(saturated_steps, 0u) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(KSweep, WindowedCounterDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u));

} // namespace
