/**
 * @file
 * Unit tests for the experiment plumbing (policy factory, ideal
 * appliance construction, cost summaries).
 */

#include <gtest/gtest.h>

#include <utility>

#include "list_reader.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using namespace sievestore::sim;
using namespace sievestore::trace;
using sievestore::util::FatalError;
using sievestore::util::makeTime;

Request
makeRequest(uint64_t time, uint64_t offset, uint32_t len,
            Op op = Op::Read)
{
    Request r;
    r.time = time;
    r.volume = 0;
    r.server = 0;
    r.op = op;
    r.offset_blocks = offset;
    r.length_blocks = len;
    r.latency_us = 100;
    return r;
}

core::ApplianceConfig
config()
{
    core::ApplianceConfig cfg;
    cfg.cache_blocks = 1024;
    return cfg;
}

TEST(PolicyFactory, AppliancesCarryThePapersNames)
{
    // The policy objects are the one name table: every PolicyKind's
    // appliance reports the name the paper's figures use.
    const std::pair<PolicyKind, const char *> expected[] = {
        {PolicyKind::SieveStoreD, "SieveStore-D"},
        {PolicyKind::SieveStoreC, "SieveStore-C"},
        {PolicyKind::RandSieveBlkD, "RandSieve-BlkD"},
        {PolicyKind::RandSieveC, "RandSieve-C"},
        {PolicyKind::AOD, "AOD"},
        {PolicyKind::WMNA, "WMNA"},
        {PolicyKind::Adaptive, "SieveStore-C/adaptive"},
    };
    for (const auto &[kind, name] : expected) {
        PolicyConfig pc;
        pc.kind = kind;
        pc.sieve_c.imct_slots = 1024;
        EXPECT_STREQ(makeAppliance(pc, config())->policyName(), name);
    }

    VectorTrace trace({makeRequest(makeTime(0, 1), 0, 1)});
    PolicyConfig ideal;
    ideal.kind = PolicyKind::Ideal;
    EXPECT_STREQ(makeIdealAppliance(trace, ideal, config())->policyName(),
                 "Ideal");
}

TEST(PolicyFactory, BuildsEveryContinuousAndDiscreteKind)
{
    for (PolicyKind kind :
         {PolicyKind::SieveStoreD, PolicyKind::SieveStoreC,
          PolicyKind::RandSieveBlkD, PolicyKind::RandSieveC,
          PolicyKind::AOD, PolicyKind::WMNA, PolicyKind::Adaptive}) {
        PolicyConfig pc;
        pc.kind = kind;
        pc.sieve_c.imct_slots = 1024;
        auto app = makeAppliance(pc, config());
        ASSERT_NE(app, nullptr);
        app->processRequest(makeRequest(1000, 0, 8, Op::Read));
        app->finishDay(0);
        app->finishTrace();
        EXPECT_EQ(app->totals().accesses, 8u) << app->policyName();
        app->checkInvariants();
    }
}

TEST(PolicyFactory, IdealRequiresProfilingPass)
{
    PolicyConfig pc;
    pc.kind = PolicyKind::Ideal;
    EXPECT_THROW(makeAppliance(pc, config()), FatalError);
}

TEST(PerDayTopBlocks, FindsDailyHotSet)
{
    std::vector<Request> reqs;
    // Day 0: block 0 dominates. Day 1: block 800 dominates.
    for (uint64_t i = 0; i < 10; ++i)
        reqs.push_back(makeRequest(makeTime(0, 1, i), 0, 1));
    for (uint64_t i = 0; i < 99; ++i)
        reqs.push_back(makeRequest(makeTime(0, 2, i), 100 + i, 1));
    for (uint64_t i = 0; i < 10; ++i)
        reqs.push_back(makeRequest(makeTime(1, 1, i), 800, 1));
    for (uint64_t i = 0; i < 99; ++i)
        reqs.push_back(makeRequest(makeTime(1, 2, i), 900 + i, 1));
    std::sort(reqs.begin(), reqs.end(), requestTimeLess);
    VectorTrace trace(std::move(reqs));

    const auto sets = perDayTopBlocks(trace, 0.01);
    ASSERT_EQ(sets.size(), 2u);
    ASSERT_EQ(sets[0].size(), 1u);
    EXPECT_EQ(sets[0][0], makeBlockId(0, 0));
    ASSERT_EQ(sets[1].size(), 1u);
    EXPECT_EQ(sets[1][0], makeBlockId(0, 800));
}

TEST(PerDayTopBlocks, RejectsADayThatGoesBackwards)
{
    // Days 0, 1, 0: the second day-0 run must not silently replace
    // day 0's top set.
    testutil::ListReader trace({makeRequest(makeTime(0, 1), 0, 1),
                               makeRequest(makeTime(1, 1), 800, 1),
                               makeRequest(makeTime(0, 2), 900, 1)});
    EXPECT_THROW(perDayTopBlocks(trace, 0.01), FatalError);
}

TEST(IdealAppliance, CapturesEachDaysTopBlocks)
{
    std::vector<Request> reqs;
    // Day 0: block 0 accessed 20 times among 99 singletons.
    for (uint64_t i = 0; i < 20; ++i)
        reqs.push_back(makeRequest(makeTime(0, 1, i), 0, 1));
    for (uint64_t i = 0; i < 99; ++i)
        reqs.push_back(makeRequest(makeTime(0, 2, i), 100 + i, 1));
    // Day 1: block 800 takes over.
    for (uint64_t i = 0; i < 20; ++i)
        reqs.push_back(makeRequest(makeTime(1, 1, i), 800, 1));
    for (uint64_t i = 0; i < 99; ++i)
        reqs.push_back(makeRequest(makeTime(1, 2, i), 900 + i, 1));
    std::sort(reqs.begin(), reqs.end(), requestTimeLess);
    VectorTrace trace(std::move(reqs));

    PolicyConfig pc;
    pc.kind = PolicyKind::Ideal;
    auto app = makeIdealAppliance(trace, pc, config());
    runTrace(trace, *app);
    ASSERT_GE(app->daily().size(), 2u);
    // All 20 accesses to each day's hot block hit — including day 0
    // (the preload) and day 1 (the oracle swap).
    EXPECT_EQ(app->daily()[0].hits, 20u);
    EXPECT_EQ(app->daily()[1].hits, 20u);
}

TEST(IdealAppliance, AlignsDaySetsWhenTheFirstDayHasNoTopSet)
{
    // Day 0 carries only a zero-length request, so its top set is
    // empty and the first preloaded set is day 1's. The driver still
    // closes day 0 first; closing it must install day 1's set, not
    // day 2's, or every later day holds the wrong day's blocks.
    std::vector<Request> reqs;
    reqs.push_back(makeRequest(makeTime(0, 1), 0, 0));
    for (uint64_t day = 1; day <= 3; ++day)
        for (uint64_t i = 0; i < 4; ++i)
            reqs.push_back(makeRequest(makeTime(day, 1, i), 100 * day, 1));
    VectorTrace trace(std::move(reqs));

    PolicyConfig pc;
    pc.kind = PolicyKind::Ideal;
    auto app = makeIdealAppliance(trace, pc, config());
    runTrace(trace, *app);
    ASSERT_GE(app->daily().size(), 4u);
    EXPECT_EQ(app->daily()[0].accesses, 0u);
    for (size_t day = 1; day <= 3; ++day)
        EXPECT_EQ(app->daily()[day].hits, 4u) << "day " << day;
}

TEST(CostSummary, ReflectsOccupancy)
{
    PolicyConfig pc;
    pc.kind = PolicyKind::AOD;
    auto app = makeAppliance(pc, config());
    // One allocation-write worth of occupancy.
    app->processRequest(makeRequest(1000, 0, 8, Op::Read));
    app->finishTrace();
    const CostSummary cost = summarizeCost(*app, 7.0);
    EXPECT_EQ(cost.max_drives, 1u);
    EXPECT_DOUBLE_EQ(cost.coverage_one_drive, 1.0);
    EXPECT_GT(cost.endurance_years, 0.0);
}

TEST(CostSummary, NoOccupancyTracker)
{
    PolicyConfig pc;
    pc.kind = PolicyKind::AOD;
    core::ApplianceConfig ac = config();
    ac.track_occupancy = false;
    auto app = makeAppliance(pc, ac);
    const CostSummary cost = summarizeCost(*app, 7.0);
    EXPECT_EQ(cost.max_drives, 0u);
}

} // namespace
