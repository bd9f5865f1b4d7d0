/**
 * @file
 * AllocGuard behavior: violations abort (death tests), disarm and
 * conditional regions pass allocations through, and — the property
 * the guard exists to enforce — the LRU cache's steady state runs
 * entire op loops with zero allocations, its Section 3.1 protected-set
 * scan included. The appliance's batch region arms for every
 * policy on a flat, occupancy-free appliance — continuous and
 * epoch-batched, injected ones included.
 */

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/block_cache.hpp"
#include "core/appliance.hpp"
#include "core/auto_tune.hpp"
#include "core/discrete.hpp"
#include "core/imct.hpp"
#include "core/mct.hpp"
#include "core/unsieved.hpp"
#include "core/windowed_counter.hpp"
#include "sim/driver.hpp"
#include "trace/trace_reader.hpp"
#include "util/alloc_guard.hpp"
#include "util/sim_time.hpp"
#include "util/spsc_queue.hpp"

using sievestore::analysis::AccessLogConfig;
using sievestore::cache::BlockCache;
using sievestore::core::AdbaSelector;
using sievestore::core::AllocationPolicy;
using sievestore::core::AllocDecision;
using sievestore::core::Appliance;
using sievestore::core::ApplianceConfig;
using sievestore::core::AutoTunedSievePolicy;
using sievestore::core::AutoTuneConfig;
using sievestore::core::Imct;
using sievestore::core::Mct;
using sievestore::core::SieveStoreCConfig;
using sievestore::core::WindowSpec;
using sievestore::trace::BlockId;
using sievestore::trace::Request;
using sievestore::util::AllocGuard;
using sievestore::util::AllocGuardDisarm;
using sievestore::util::SpscQueue;

namespace {

/** Heap-allocating call the optimizer cannot elide. */
void
allocateSomething()
{
    auto p = std::make_unique<std::vector<uint64_t>>(64);
    ASSERT_NE(p->data(), nullptr);
}

/** The production appliance shape: flat cache, no occupancy tracker. */
ApplianceConfig
flatApplianceConfig()
{
    ApplianceConfig cfg;
    cfg.cache_blocks = 1024;
    cfg.track_occupancy = false;
    return cfg;
}

Request
readRequest(uint64_t time, uint64_t offset, uint32_t len)
{
    Request r;
    r.time = time;
    r.volume = 1;
    r.op = sievestore::trace::Op::Read;
    r.offset_blocks = offset;
    r.length_blocks = len;
    r.latency_us = 1000;
    return r;
}

/** An injected policy that breaks the contract: allocates per miss. */
class AllocatingPolicy : public AllocationPolicy
{
  public:
    AllocDecision
    onMiss(const sievestore::trace::BlockAccess &access) override
    {
        (void)access;
        allocateSomething();
        return AllocDecision::Bypass;
    }

    const char *name() const override { return "allocating"; }
};

/**
 * An injected epoch-batched policy that breaks the contract: it
 * installs blocks 0..7 of volume 1 for the next day and allocates on
 * every hit.
 */
class AllocatingEpochPolicy : public AllocationPolicy
{
  public:
    AllocDecision
    onMiss(const sievestore::trace::BlockAccess &access) override
    {
        (void)access;
        return AllocDecision::Bypass;
    }

    void
    onHit(const sievestore::trace::BlockAccess &access) override
    {
        (void)access;
        allocateSomething();
    }

    std::optional<std::vector<BlockId>>
    onDayClose(int day) override
    {
        (void)day;
        std::vector<BlockId> set;
        for (uint64_t b = 0; b < 8; ++b)
            set.push_back(sievestore::trace::makeBlockId(1, b));
        return set;
    }

    const char *name() const override { return "allocating-epoch"; }
};

/** SieveStore-D that records whether its misses ran armed. */
class ArmedProbeAdba : public AdbaSelector
{
  public:
    using AdbaSelector::AdbaSelector;

    AllocDecision
    onMiss(const sievestore::trace::BlockAccess &access) override
    {
        if (AllocGuard::active())
            ++armed_misses;
        return AdbaSelector::onMiss(access);
    }

    uint64_t armed_misses = 0;
};

/** Three days over a hot set (12 reads per block per day, past
 * ADBA's threshold) and a cold scatter, on volume 1. */
std::vector<Request>
epochTrace()
{
    std::vector<Request> reqs;
    for (uint64_t day = 0; day < 3; ++day) {
        for (uint64_t pass = 0; pass < 12; ++pass)
            for (uint64_t i = 0; i < 16; ++i)
                reqs.push_back(readRequest(
                    sievestore::util::makeTime(day, 1 + pass, i),
                    i * 8, 8));
        for (uint64_t i = 0; i < 200; ++i)
            reqs.push_back(readRequest(
                sievestore::util::makeTime(day, 20, i),
                100000 + day * 10000 + i * 8, 8));
    }
    return reqs;
}

} // namespace

#ifndef SIEVE_ALLOC_GUARD_DISABLED

TEST(AllocGuardDeathTest, AllocationInsideRegionAborts)
{
    EXPECT_DEATH(
        {
            SIEVE_ASSERT_NO_ALLOC;
            allocateSomething();
        },
        "AllocGuard");
}

TEST(AllocGuardDeathTest, EngagedConditionalRegionAborts)
{
    EXPECT_DEATH(
        {
            SIEVE_ASSERT_NO_ALLOC_WHEN(1 + 1 == 2);
            allocateSomething();
        },
        "AllocGuard");
}

TEST(AllocGuardDeathTest, NestedRegionStaysArmedAfterInnerExit)
{
    EXPECT_DEATH(
        {
            SIEVE_ASSERT_NO_ALLOC;
            {
                SIEVE_ASSERT_NO_ALLOC;
            }
            // The inner region closed; the outer one must still arm.
            allocateSomething();
        },
        "AllocGuard");
}

TEST(AllocGuardDeathTest, InjectedPolicyAllocatingOnMissAborts)
{
    // The batch region arms for every policy, not only the
    // built-in ones: an injected policy that allocates in onMiss
    // aborts inside processBatch.
    EXPECT_DEATH(
        {
            Appliance app(flatApplianceConfig(),
                          std::make_unique<AllocatingPolicy>());
            app.processRequest(readRequest(0, 0, 8));
        },
        "AllocGuard");
}

TEST(AllocGuardDeathTest, InjectedEpochPolicyAllocatingOnHitAborts)
{
    // Epoch-batched policies run under the same armed region: once
    // the day-0 close installs the policy's set, the day-1 hits reach
    // its allocating onHit inside processBatch.
    EXPECT_DEATH(
        {
            Appliance app(flatApplianceConfig(),
                          std::make_unique<AllocatingEpochPolicy>());
            app.processRequest(readRequest(0, 0, 8));
            app.finishDay(0);
            app.processRequest(
                readRequest(sievestore::util::makeTime(1), 0, 8));
        },
        "AllocGuard");
}

TEST(AllocGuard, DiskLoggedAdbaSpillsAndCompactsUnderTheArmedRegion)
{
    // The disk-backed SieveStore-D appends, spills and compacts its
    // access log from onMiss / onHit, inside the batch region; its
    // growth points exempt themselves, and its selections match the
    // in-memory counter's exactly.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("alloc_guard_adba_" + std::to_string(::getpid()));
    AccessLogConfig log;
    log.partitions = 2;
    log.flush_threshold = 16;          // spill every 16 appends
    log.compact_threshold_bytes = 256; // compact every 2nd spill
    auto disk = std::make_unique<ArmedProbeAdba>(10, dir.string(), log);
    const ArmedProbeAdba *probe = disk.get();
    Appliance disk_app(flatApplianceConfig(), std::move(disk));
    Appliance mem_app(flatApplianceConfig(),
                      std::make_unique<AdbaSelector>(10));

    sievestore::trace::VectorTrace disk_trace(epochTrace());
    sievestore::trace::VectorTrace mem_trace(epochTrace());
    sievestore::sim::runTrace(disk_trace, disk_app);
    sievestore::sim::runTrace(mem_trace, mem_app);

    // The last day's epoch is still on disk, already compacted into
    // sorted run files.
    bool compacted = false;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        compacted |= entry.path().extension() == ".run";
    EXPECT_TRUE(compacted);
    EXPECT_GT(probe->armed_misses, 0u);

    ASSERT_EQ(disk_app.daily().size(), mem_app.daily().size());
    for (size_t d = 0; d < disk_app.daily().size(); ++d) {
        const auto &a = disk_app.daily()[d];
        const auto &b = mem_app.daily()[d];
        EXPECT_EQ(a.accesses, b.accesses) << "day " << d;
        EXPECT_EQ(a.hits, b.hits) << "day " << d;
        EXPECT_EQ(a.batch_moved_blocks, b.batch_moved_blocks)
            << "day " << d;
        EXPECT_EQ(a.ssd_read_ios, b.ssd_read_ios) << "day " << d;
    }
    // Days 1 and 2 serve the hot set installed at the previous close.
    EXPECT_EQ(mem_app.daily()[1].hits, 12u * 16 * 8);
    EXPECT_EQ(mem_app.totals().hits, 2u * 12 * 16 * 8);
    EXPECT_EQ(mem_app.totals().allocation_write_blocks, 0u);

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

TEST(AllocGuard, AutoTunedSieveReplaysUnderTheArmedRegion)
{
    // The Section 7 auto-tuner steps t2 at day close, outside the
    // batch region, so a multi-day replay on the production appliance
    // shape runs clean — and still tightens under heavy churn.
    SieveStoreCConfig sieve;
    sieve.imct_slots = 1 << 12;
    sieve.t1 = 1;
    sieve.t2 = 1;
    AutoTuneConfig tune;
    tune.cache_blocks = 64; // budget: 64 allocations/day
    auto policy = std::make_unique<AutoTunedSievePolicy>(sieve, tune);
    const AutoTunedSievePolicy *view = policy.get();
    Appliance app(flatApplianceConfig(), std::move(policy));

    // Four days, each missing 800 fresh blocks twice.
    std::vector<Request> reqs;
    for (uint64_t day = 0; day < 4; ++day)
        for (uint64_t pass = 0; pass < 2; ++pass)
            for (uint64_t i = 0; i < 100; ++i)
                reqs.push_back(readRequest(
                    sievestore::util::makeTime(day, 1 + 2 * pass, i),
                    day * 100000 + i * 8, 8));
    sievestore::trace::VectorTrace trace(std::move(reqs));
    sievestore::sim::runTrace(trace, app);

    // runTrace closes days 0-2 (the last day ends with finishTrace):
    // day 0 churns past budget (t2 1 -> 2); at t2 = 2 two misses per
    // block no longer admit, so day 1 starves (2 -> 1); day 2 churns
    // again (1 -> 2).
    EXPECT_EQ(view->t2History(), (std::vector<uint32_t>{2, 1, 2}));
    EXPECT_EQ(view->currentT2(), 2u);
    EXPECT_EQ(app.totals().accesses, 4u * 2 * 100 * 8);
}

TEST(AllocGuard, ActiveTracksRegionScopes)
{
    EXPECT_FALSE(AllocGuard::active());
    {
        SIEVE_ASSERT_NO_ALLOC;
        EXPECT_TRUE(AllocGuard::active());
        {
            AllocGuardDisarm disarm;
            EXPECT_FALSE(AllocGuard::active());
        }
        EXPECT_TRUE(AllocGuard::active());
    }
    EXPECT_FALSE(AllocGuard::active());
}

TEST(AllocGuard, AllocationCountAdvancesOnNew)
{
    const uint64_t before = AllocGuard::allocationCount();
    allocateSomething();
    EXPECT_GT(AllocGuard::allocationCount(), before);
}

TEST(AllocGuard, SteadyStateCacheOpsAllocateNothing)
{
    // The quantitative form of the pass-through tests below: a
    // pre-reserved cache at capacity must run access, insert (with
    // eviction), and erase+reinsert without a single heap allocation,
    // in plain LRU and with a protected set whose victim scan rotates
    // protected blocks.
    constexpr uint64_t kCapacity = 64;
    for (const bool oracle : {false, true}) {
        BlockCache cache(kCapacity);
        for (uint64_t b = 0; b < kCapacity; ++b)
            cache.insert(b);
        ASSERT_EQ(cache.size(), kCapacity);
        if (oracle) {
            std::vector<BlockId> protect;
            for (uint64_t b = 0; b < kCapacity; b += 2)
                protect.push_back(b);
            cache.setProtected(protect);
        }

        const uint64_t before = AllocGuard::allocationCount();
        for (uint64_t i = 0; i < 2000; ++i) {
            cache.access(i % kCapacity);
            cache.insert(kCapacity + i); // evicts: stays at capacity
            cache.erase(kCapacity + i);
            cache.insert(kCapacity + i);
        }
        EXPECT_EQ(AllocGuard::allocationCount(), before)
            << (oracle ? "protected-set" : "LRU")
            << " cache allocated in steady state";
    }
}

TEST(AllocGuard, OracleApplianceReplaysUnderTheArmedRegion)
{
    // The Section 3.1 configuration: AOD with each day's protected set
    // installed between days, outside the region. The victim scan
    // runs inside the armed batch region on every eviction.
    Appliance app(flatApplianceConfig(),
                  std::make_unique<sievestore::core::AodPolicy>());
    // Protect the trace's hot blocks (16 requests x 8 blocks).
    std::vector<BlockId> protect;
    for (uint64_t b = 0; b < 16 * 8; ++b)
        protect.push_back(sievestore::trace::makeBlockId(1, b));
    app.blockCache().setProtected(protect);
    const std::vector<Request> reqs = epochTrace();
    sievestore::trace::VectorTrace trace(reqs);
    sievestore::sim::runTrace(trace, app);
    EXPECT_EQ(app.totals().accesses, reqs.size() * 8);
    EXPECT_GT(app.totals().hits, 0u);
    for (BlockId b : protect)
        EXPECT_TRUE(app.blockCache().contains(b)) << b;
}

#endif // SIEVE_ALLOC_GUARD_DISABLED

TEST(AllocGuard, DisarmPermitsAllocationInsideRegion)
{
    SIEVE_ASSERT_NO_ALLOC;
    AllocGuardDisarm disarm;
    allocateSomething();
}

TEST(AllocGuard, DisengagedConditionalRegionPermitsAllocation)
{
    SIEVE_ASSERT_NO_ALLOC_WHEN(2 + 2 == 5);
    allocateSomething();
}

TEST(AllocGuard, GuardedSieveAndQueueOpsRunCleanly)
{
    // The internally-guarded Mct/Imct hot paths and a guarded POD
    // queue hand-off must complete with the guard armed — these are
    // the ISSUE's "active in the hot path, zero violations" sites.
    const WindowSpec spec = WindowSpec::paperDefault();
    Mct mct(spec);
    Imct imct(256, spec, 42);
    for (uint64_t b = 0; b < 512; ++b) {
        mct.admit(b, b * 1000);
        mct.recordMiss(b, b * 1000);
        imct.recordMiss(b, b * 1000);
        EXPECT_GE(mct.count(b, b * 1000), 1u);
        EXPECT_GE(imct.count(b, b * 1000), 1u);
    }
    mct.prune(1);

    SpscQueue<uint64_t> queue(16);
    // Single-threaded here, so this test plays both SPSC endpoints.
    queue.assertProducerRole();
    queue.assertConsumerRole();
    for (uint64_t i = 0; i < 64; ++i) {
        {
            SIEVE_ASSERT_NO_ALLOC;
            queue.push(i);
        }
        uint64_t out = 0;
        SIEVE_ASSERT_NO_ALLOC;
        EXPECT_TRUE(queue.tryPop(out));
        EXPECT_EQ(out, i);
    }
}
