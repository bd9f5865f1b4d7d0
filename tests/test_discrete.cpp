/**
 * @file
 * Unit tests for the epoch-batched (discrete) sieve policies, driven
 * through the AllocationPolicy hooks the appliance calls: onMiss and
 * onHit count, onDayClose(day) returns the next epoch's set.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <unistd.h>
#include <unordered_set>

#include "core/discrete.hpp"
#include "core/unsieved.hpp"
#include "util/logging.hpp"

namespace {

using namespace sievestore::core;
using sievestore::trace::BlockAccess;
using sievestore::trace::BlockId;
using sievestore::util::FatalError;

BlockAccess
accessTo(BlockId block)
{
    BlockAccess a;
    a.block = block;
    return a;
}

/** Count `times` misses of `block`; every one must bypass. */
void
observeTimes(AllocationPolicy &sel, BlockId block, int times)
{
    for (int i = 0; i < times; ++i)
        EXPECT_EQ(sel.onMiss(accessTo(block)), AllocDecision::Bypass);
}

/** Close `day` and return the epoch set the policy must install. */
std::vector<BlockId>
closeDay(AllocationPolicy &sel, int day)
{
    std::optional<std::vector<BlockId>> set = sel.onDayClose(day);
    EXPECT_TRUE(set.has_value()) << sel.name() << " day " << day;
    return set.value_or(std::vector<BlockId>{});
}

TEST(Adba, SelectsBlocksMeetingThreshold)
{
    AdbaSelector sel(10);
    observeTimes(sel, 1, 12);
    observeTimes(sel, 2, 10);
    observeTimes(sel, 3, 9);
    const auto chosen = closeDay(sel, 0);
    ASSERT_EQ(chosen.size(), 2u);
    // Descending count order: 1 (12) before 2 (10).
    EXPECT_EQ(chosen[0], 1u);
    EXPECT_EQ(chosen[1], 2u);
}

TEST(Adba, EpochBoundaryResetsCounts)
{
    AdbaSelector sel(5);
    observeTimes(sel, 1, 4);
    EXPECT_TRUE(closeDay(sel, 0).empty());
    // The 4 old observations must not carry into the new epoch.
    observeTimes(sel, 1, 4);
    EXPECT_TRUE(closeDay(sel, 1).empty());
    observeTimes(sel, 1, 5);
    EXPECT_EQ(closeDay(sel, 2).size(), 1u);
}

TEST(Adba, HitsCountLikeMisses)
{
    // SieveStore-D logs *accesses*: a block the cache already holds
    // still needs its hits counted to stay selected next epoch.
    AdbaSelector sel(10);
    observeTimes(sel, 1, 5);
    for (int i = 0; i < 5; ++i)
        sel.onHit(accessTo(1));
    observeTimes(sel, 2, 9);
    sel.onHit(accessTo(3));
    EXPECT_EQ(closeDay(sel, 0), (std::vector<BlockId>{1}));
}

TEST(Adba, DiskBackendMatchesMemoryBackend)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("adba_" + std::to_string(::getpid()));
    {
        AdbaSelector mem(10);
        AdbaSelector disk(10, dir.string());
        for (BlockId b = 0; b < 50; ++b) {
            const int times = static_cast<int>(b % 20);
            observeTimes(mem, b, times);
            observeTimes(disk, b, times);
        }
        EXPECT_EQ(closeDay(mem, 0), closeDay(disk, 0));
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

TEST(Adba, RejectsZeroThreshold)
{
    EXPECT_THROW(AdbaSelector(0), FatalError);
}

TEST(RandomBlock, SelectsRequestedFractionOfSeenBlocks)
{
    RandomBlockSelector sel(0.01, 42);
    for (BlockId b = 0; b < 10000; ++b)
        observeTimes(sel, b, 1);
    const auto chosen = closeDay(sel, 0);
    EXPECT_EQ(chosen.size(), 100u);
    for (BlockId b : chosen)
        EXPECT_LT(b, 10000u);
    // No duplicates.
    std::unordered_set<BlockId> uniq(chosen.begin(), chosen.end());
    EXPECT_EQ(uniq.size(), chosen.size());
}

TEST(RandomBlock, IgnoresAccessFrequency)
{
    // A block observed a million times is no likelier than a singleton:
    // the selector samples *blocks*, not accesses.
    RandomBlockSelector sel(0.5, 7);
    observeTimes(sel, 1, 1000);
    sel.onHit(accessTo(2));
    const auto chosen = closeDay(sel, 0);
    EXPECT_EQ(chosen.size(), 1u);
}

TEST(RandomBlock, DeterministicForSeed)
{
    auto run = [](uint64_t seed) {
        RandomBlockSelector sel(0.1, seed);
        for (BlockId b = 0; b < 1000; ++b)
            observeTimes(sel, b, 1);
        return closeDay(sel, 0);
    };
    auto a = run(5), b = run(5), c = run(6);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(RandomBlock, AtLeastOneWhenAnySeen)
{
    RandomBlockSelector sel(0.001, 3);
    observeTimes(sel, 9, 1);
    EXPECT_EQ(closeDay(sel, 0).size(), 1u);
    // The epoch reset: nothing seen, nothing selected.
    EXPECT_TRUE(closeDay(sel, 1).empty());
}

TEST(OracleDay, ServesDaySetsInSequence)
{
    std::vector<std::vector<BlockId>> sets = {{1}, {2, 3}, {4}};
    OracleDaySelector sel(sets);
    // Closing day 0 serves day 1.
    EXPECT_EQ(closeDay(sel, 0), (std::vector<BlockId>{2, 3}));
    EXPECT_EQ(closeDay(sel, 1), (std::vector<BlockId>{4}));
    // Past the last day: empty sets, no crash.
    EXPECT_TRUE(closeDay(sel, 2).empty());
    EXPECT_TRUE(closeDay(sel, 3).empty());
}

TEST(OracleDay, IndexedByClosedDayNotByCloseCount)
{
    // The first close a trace produces may be for a day with no top
    // set (zero-length requests only): the set served is still the
    // next day's, never one further ahead.
    OracleDaySelector sel({{}, {7}, {8}});
    EXPECT_EQ(closeDay(sel, 0), (std::vector<BlockId>{7}));
    EXPECT_EQ(closeDay(sel, 1), (std::vector<BlockId>{8}));
    // Before the trace: an empty set, no crash.
    EXPECT_TRUE(closeDay(sel, -5).empty());
}

TEST(OracleDay, ObserveIsANoOp)
{
    OracleDaySelector sel({{1}, {2}});
    observeTimes(sel, 999, 1);
    sel.onHit(accessTo(999));
    EXPECT_EQ(closeDay(sel, 0), (std::vector<BlockId>{2}));
}

TEST(Selectors, PrefetchHintsArePure)
{
    // The appliance's sieve-prefetch phase issues prefetchMiss /
    // prefetchHit for every gathered block before the decide pass;
    // the hints must not count anything.
    AdbaSelector adba(1);
    RandomBlockSelector rand(1.0, 5);
    for (BlockId b = 0; b < 64; ++b) {
        adba.prefetchMiss(b);
        adba.prefetchHit(b);
        rand.prefetchMiss(b);
        rand.prefetchHit(b);
    }
    observeTimes(adba, 3, 1);
    observeTimes(rand, 3, 1);
    EXPECT_EQ(closeDay(adba, 0), (std::vector<BlockId>{3}));
    EXPECT_EQ(closeDay(rand, 0), (std::vector<BlockId>{3}));
}

TEST(Selectors, ContinuousPoliciesInstallNothing)
{
    // The default onDayClose: nothing to install.
    AodPolicy aod;
    EXPECT_FALSE(aod.onDayClose(0).has_value());
}

TEST(Selectors, Names)
{
    EXPECT_STREQ(AdbaSelector(10).name(), "SieveStore-D");
    EXPECT_STREQ(RandomBlockSelector().name(), "RandSieve-BlkD");
    EXPECT_STREQ(OracleDaySelector({}).name(), "Ideal");
}

} // namespace
