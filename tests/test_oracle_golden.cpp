/**
 * @file
 * Golden pin for the Section 3.1 oracle-replacement configuration
 * (bench_sec31_oracle_replacement at test scale): AOD allocation over
 * the LRU cache in its protected-set mode, each day's true top-1 %
 * blocks installed before the day is replayed.
 *
 * The pinned integers come from the node-based OracleRetain policy
 * that the protected-set mode replaced; the plain-LRU row pins the
 * contrast the paper draws (the oracle buys hits, not fewer
 * allocation-writes of the same order). Re-pin only for an
 * intentional, explained change of simulation results.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/appliance.hpp"
#include "core/unsieved.hpp"
#include "sim/experiment.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace sievestore;

/** Replay AOD at 1/65536 scale with a 32 GB (scaled) cache. */
core::DailyReport
runAod(bool oracle)
{
    trace::SyntheticConfig workload;
    workload.scale = 1.0 / 65536.0;
    auto gen = trace::SyntheticEnsembleGenerator::paper(
        trace::EnsembleConfig::paperEnsemble(), workload);
    const auto day_sets = sim::perDayTopBlocks(gen, 0.01);

    core::ApplianceConfig ac;
    ac.cache_blocks = workload.scaledBytes(32ULL << 30) / trace::kBlockBytes;
    ac.track_occupancy = false;
    core::Appliance app(ac, std::make_unique<core::AodPolicy>());
    gen.reset();
    for (int d = 0; d < gen.days(); ++d) {
        const auto di = static_cast<size_t>(d);
        if (oracle && di < day_sets.size())
            app.blockCache().setProtected(day_sets[di]);
        for (const auto &req : gen.generateDay(d))
            app.processRequest(req);
        app.finishDay(d);
    }
    app.finishTrace();
    app.checkInvariants();
    return app.totals();
}

TEST(OracleGolden, Section31OracleTotalsAreBitStable)
{
    const core::DailyReport oracle = runAod(true);
    EXPECT_EQ(oracle.accesses, 490360u);
    EXPECT_EQ(oracle.hits, 197232u);
    EXPECT_EQ(oracle.allocation_write_blocks, 293128u);

    const core::DailyReport lru = runAod(false);
    EXPECT_EQ(lru.accesses, 490360u);
    EXPECT_EQ(lru.hits, 172232u);
    EXPECT_EQ(lru.allocation_write_blocks, 318103u);
}

} // namespace
