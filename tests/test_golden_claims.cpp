/**
 * @file
 * Golden regression pins for the paper's headline claims.
 *
 * EXPERIMENTS.md records the Figure 5 / Figure 6 reproduction at
 * bench scale; these tests pin the same quantities at test scale
 * (1/65536 of the paper's traffic, the default generator seed) as
 * *exact* integers. Everything in the pipeline is deterministic —
 * xoshiro PRNG, integer accounting, fixed IEEE arithmetic — so any
 * silent counter drift (a lost hit, a double-counted allocation, an
 * off-by-one day attribution) fails ctest here instead of surfacing
 * as a quietly-wrong number in EXPERIMENTS.md.
 *
 * If a change *intentionally* alters simulation results, re-run this
 * test, verify the new numbers are explainable, and re-pin them in
 * kGolden below — that re-pin is the audit trail.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace sievestore;
using namespace sievestore::sim;
using namespace sievestore::trace;

/** Exact expected totals of one policy run at the golden scale. */
struct GoldenRow
{
    PolicyKind kind;
    uint64_t accesses;
    uint64_t hits;
    uint64_t allocation_write_blocks;
    uint64_t batch_moved_blocks;
    uint64_t ssd_alloc_ios;
};

constexpr double kInvScale = 65536.0;

/**
 * Pinned values: captured from the initial implementation (see file
 * comment for the re-pin protocol). The roster mirrors Figure 5:
 * the per-day oracle, both SieveStores, a random sieve, and the
 * unsieved AOD/WMNA baselines at iso-capacity (16 GB full scale).
 */
const GoldenRow kGolden[] = {
    {PolicyKind::Ideal, 490360, 185383, 0, 373, 0},
    {PolicyKind::SieveStoreC, 490360, 186672, 564, 0, 334},
    {PolicyKind::SieveStoreD, 490360, 167387, 0, 418, 0},
    {PolicyKind::RandSieveC, 490360, 164123, 3183, 0, 3091},
    {PolicyKind::AOD, 490360, 155086, 335238, 0, 42939},
    {PolicyKind::WMNA, 490360, 145693, 249959, 0, 32003},
};

/** Replay the golden workload through `kind`'s appliance. */
std::unique_ptr<core::Appliance>
goldenAppliance(PolicyKind kind)
{
    SyntheticConfig workload;
    workload.scale = 1.0 / kInvScale;
    auto gen = SyntheticEnsembleGenerator::paper(
        EnsembleConfig::paperEnsemble(), workload);

    PolicyConfig pc;
    pc.kind = kind;
    pc.sieve_c.imct_slots = 4096;
    core::ApplianceConfig ac;
    ac.cache_blocks =
        workload.scaledBytes(16ULL << 30) / kBlockBytes;
    ac.track_occupancy = false;

    std::unique_ptr<core::Appliance> app =
        kind == PolicyKind::Ideal
            ? makeIdealAppliance(gen, pc, ac)
            : makeAppliance(pc, ac);
    runTrace(gen, *app);
    return app;
}

core::DailyReport
runGolden(PolicyKind kind)
{
    return goldenAppliance(kind)->totals();
}

TEST(GoldenClaims, Figure5And6TotalsAreBitStable)
{
    for (const GoldenRow &row : kGolden) {
        const auto app = goldenAppliance(row.kind);
        const core::DailyReport t = app->totals();
        const char *name = app->policyName();
        EXPECT_EQ(t.accesses, row.accesses) << name;
        EXPECT_EQ(t.hits, row.hits) << name;
        EXPECT_EQ(t.allocation_write_blocks,
                  row.allocation_write_blocks)
            << name;
        EXPECT_EQ(t.batch_moved_blocks, row.batch_moved_blocks)
            << name;
        EXPECT_EQ(t.ssd_alloc_ios, row.ssd_alloc_ios) << name;
    }
}

TEST(GoldenClaims, AllocationWriteDecadeGapHolds)
{
    // Figure 6's claim: sieving buys an order of magnitude (a
    // "decade") in allocation-writes against allocate-on-demand.
    const uint64_t aod =
        runGolden(PolicyKind::AOD).allocation_write_blocks;
    const uint64_t sieve_c =
        runGolden(PolicyKind::SieveStoreC).allocation_write_blocks;
    const core::DailyReport d = runGolden(PolicyKind::SieveStoreD);
    ASSERT_GT(sieve_c, 0u);
    EXPECT_GE(aod, 10 * sieve_c);
    EXPECT_GE(aod, 10 * d.totalAllocationBlocks());
}

TEST(GoldenClaims, CaptureOrderingMatchesFigure5)
{
    // SieveStore-C tracks the oracle closely and beats the unsieved
    // baselines; every sieve beats RandSieve-C.
    const uint64_t ideal = runGolden(PolicyKind::Ideal).hits;
    const uint64_t ssc = runGolden(PolicyKind::SieveStoreC).hits;
    const uint64_t ssd = runGolden(PolicyKind::SieveStoreD).hits;
    const uint64_t rand_c = runGolden(PolicyKind::RandSieveC).hits;
    const uint64_t aod = runGolden(PolicyKind::AOD).hits;
    EXPECT_GE(ssc * 100, ideal * 90); // within 10 % of the oracle
    EXPECT_GT(ssc, aod);
    EXPECT_GT(ssd, rand_c);
    EXPECT_GT(ssc, rand_c);
}

} // namespace
