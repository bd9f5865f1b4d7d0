/**
 * @file
 * Differential proof that the flat block-index LRU cache makes the
 * same decisions as a node-based LRU model (tests/reference_lru.hpp),
 * and appliance-level pins of the request loop's totals.
 *
 * The cache-level claim is *bit-identical decisions*: the same victim
 * on every insert, in plain LRU and in the Section 3.1 protected-set
 * mode, the same BatchReplaceResult on every epoch swap, and the same
 * residency after every operation. The appliance-level claim is that
 * every probe-loop dispatch and decode batch size replays the same
 * per-day reports, equal to totals pinned from the node-based
 * replacement engine the flat cache replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "cache/block_cache.hpp"
#include "core/appliance.hpp"
#include "core/rand_sieve.hpp"
#include "core/sievestore_c.hpp"
#include "core/unsieved.hpp"
#include "reference_lru.hpp"
#include "sim/driver.hpp"
#include "util/random.hpp"

namespace {

using namespace sievestore;
using namespace sievestore::cache;
using core::DailyReport;
using sievestore::testing::ReferenceLru;
using sievestore::trace::BlockId;
using sievestore::util::Rng;

// ---- cache-level op stream ----------------------------------------

void
expectSameContents(const BlockCache &flat, const ReferenceLru &model,
                   const std::string &where)
{
    auto f = flat.contents();
    auto r = model.contents();
    std::sort(f.begin(), f.end());
    std::sort(r.begin(), r.end());
    ASSERT_EQ(f, r) << where;
}

/**
 * Drive the flat cache and the model with an identical random stream
 * and require identical observable behavior after every operation:
 * hit results, eviction victims, batch accounting, residency and
 * size. The ops are access (insert on miss, the appliance hot path),
 * erase, a probe-gather burst (probeBatch over up to kProbeBatch keys,
 * duplicates included, then touchProbed on the hits in order — the
 * appliance request loop's shape), batchReplace, and setProtected
 * (empty sets included, so the stream moves in and out of oracle
 * mode).
 */
void
differentialOpStream(uint64_t capacity, uint64_t key_space, uint64_t seed,
                     int ops)
{
    BlockCache flat(capacity);
    ReferenceLru model(capacity);
    Rng rng(seed);
    const std::string label = "capacity " + std::to_string(capacity) +
                              " keys " + std::to_string(key_space);

    for (int op = 0; op < ops; ++op) {
        const BlockId b = rng.nextBelow(key_space);
        switch (rng.nextBelow(16)) {
          case 0:
          case 1: { // erase
            const bool f = flat.erase(b);
            const bool r = model.erase(b);
            ASSERT_EQ(f, r) << label << " erase(" << b << ") op " << op;
            break;
          }
          case 2:
          case 3: { // probe-gather burst, hits touched in order
            constexpr size_t kMax = BlockCache::kProbeBatch;
            BlockId keys[kMax];
            PolicyState *st[kMax];
            const size_t n = 1 + rng.nextBelow(kMax);
            keys[0] = b;
            for (size_t i = 1; i < n; ++i)
                keys[i] = rng.nextBool(0.25) ? keys[rng.nextBelow(i)]
                                             : rng.nextBelow(key_space);
            flat.probeBatch(std::span<const BlockId>(keys, n),
                            std::span<PolicyState *>(st, n));
            for (size_t i = 0; i < n; ++i) {
                ASSERT_EQ(st[i] != nullptr, model.contains(keys[i]))
                    << label << " probe(" << keys[i] << ") op " << op;
                ASSERT_EQ(st[i] != nullptr, flat.contains(keys[i]))
                    << label << " probe(" << keys[i] << ") op " << op;
            }
            for (size_t i = 0; i < n; ++i) {
                if (st[i] != nullptr) {
                    flat.touchProbed(*st[i]);
                    model.access(keys[i]);
                }
            }
            break;
          }
          case 4: { // epoch batch: sometimes oversized or duplicated
            std::vector<BlockId> incoming;
            const uint64_t n = rng.nextBelow(2 * capacity + 2);
            for (uint64_t i = 0; i < n; ++i)
                incoming.push_back(rng.nextBelow(key_space));
            const BatchReplaceResult f = flat.batchReplace(incoming);
            const BatchReplaceResult r = model.batchReplace(incoming);
            ASSERT_EQ(f.retained, r.retained) << label << " op " << op;
            ASSERT_EQ(f.evicted, r.evicted) << label << " op " << op;
            ASSERT_EQ(f.allocated, r.allocated) << label << " op " << op;
            expectSameContents(flat, model,
                               label + " batch op " + std::to_string(op));
            ASSERT_FALSE(::testing::Test::HasFatalFailure());
            break;
          }
          case 5: { // a new protected set (a quarter of them empty)
            std::vector<BlockId> set;
            if (!rng.nextBool(0.25)) {
                const uint64_t n = 1 + rng.nextBelow(capacity + 1);
                for (uint64_t i = 0; i < n; ++i)
                    set.push_back(rng.nextBelow(key_space));
            }
            flat.setProtected(set);
            model.setProtected({set.begin(), set.end()});
            break;
          }
          default: { // access, insert on miss
            const bool f_hit = flat.access(b);
            ASSERT_EQ(f_hit, model.access(b))
                << label << " access(" << b << ") op " << op;
            if (!f_hit) {
                const auto f_victim = flat.insert(b);
                const auto r_victim = model.insert(b);
                ASSERT_EQ(f_victim, r_victim)
                    << label << " victim for insert(" << b << ") op "
                    << op;
            }
            break;
          }
        }
        ASSERT_EQ(flat.size(), model.size()) << label;
    }
    flat.checkInvariants();
    expectSameContents(flat, model, label + " end");
}

TEST(FlatCacheDifferential, OpStreamMatchesReferenceLru)
{
    // Tight key space: constant eviction pressure, protected scans
    // that often meet a fully protected cache.
    differentialOpStream(64, 256, 42, 60000);
    // Wide key space: mostly-miss streaming.
    differentialOpStream(64, 1 << 16, 43, 60000);
    // Capacity 1 and 2: the degenerate lists.
    differentialOpStream(1, 16, 44, 5000);
    differentialOpStream(2, 16, 45, 5000);
}

// ---- appliance-level ----------------------------------------------

/** Field-for-field equality of one day's report. */
void
expectReportEq(const DailyReport &got, const DailyReport &want,
               const std::string &where)
{
    EXPECT_EQ(got.accesses, want.accesses) << where;
    EXPECT_EQ(got.read_accesses, want.read_accesses) << where;
    EXPECT_EQ(got.hits, want.hits) << where;
    EXPECT_EQ(got.read_hits, want.read_hits) << where;
    EXPECT_EQ(got.write_hits, want.write_hits) << where;
    EXPECT_EQ(got.allocation_write_blocks, want.allocation_write_blocks)
        << where;
    EXPECT_EQ(got.batch_moved_blocks, want.batch_moved_blocks) << where;
    EXPECT_EQ(got.ssd_read_ios, want.ssd_read_ios) << where;
    EXPECT_EQ(got.ssd_write_ios, want.ssd_write_ios) << where;
    EXPECT_EQ(got.ssd_alloc_ios, want.ssd_alloc_ios) << where;
}

/**
 * A multi-day random trace with hot runs and a cold tail; requests
 * span 1..max_blocks blocks.
 */
std::vector<trace::Request>
randomTrace(uint64_t seed, size_t n, uint32_t max_blocks)
{
    Rng rng(seed);
    std::vector<trace::Request> reqs;
    uint64_t t = 0;
    for (size_t i = 0; i < n; ++i) {
        trace::Request r;
        t += rng.nextBelow(120 * 1000000); // ~3.5 simulated days total
        r.time = t;
        r.volume = static_cast<trace::VolumeId>(rng.nextBelow(4));
        r.server = static_cast<trace::ServerId>(rng.nextBelow(3));
        r.op = rng.nextBool(0.7) ? trace::Op::Read : trace::Op::Write;
        r.offset_blocks = rng.nextBool(0.5)
                              ? rng.nextBelow(64) * 8
                              : rng.nextBelow(1 << 18);
        r.length_blocks =
            1 + static_cast<uint32_t>(rng.nextBelow(max_blocks));
        r.latency_us = static_cast<uint32_t>(rng.nextBelow(5000000));
        reqs.push_back(r);
    }
    return reqs;
}

/** Builds one of the batched-kernel matrix's continuous sieves. */
using SieveFactory = std::unique_ptr<core::AllocationPolicy> (*)();

/** A continuous sieve and the totals it must replay to. */
struct PinnedRun
{
    SieveFactory make;
    DailyReport totals;
};

DailyReport
pinnedTotals(uint64_t accesses, uint64_t read_accesses, uint64_t hits,
             uint64_t read_hits, uint64_t write_hits,
             uint64_t allocation_write_blocks, uint64_t ssd_read_ios,
             uint64_t ssd_write_ios, uint64_t ssd_alloc_ios)
{
    DailyReport r;
    r.accesses = accesses;
    r.read_accesses = read_accesses;
    r.hits = hits;
    r.read_hits = read_hits;
    r.write_hits = write_hits;
    r.allocation_write_blocks = allocation_write_blocks;
    r.ssd_read_ios = ssd_read_ios;
    r.ssd_write_ios = ssd_write_ios;
    r.ssd_alloc_ios = ssd_alloc_ios;
    return r;
}

/**
 * LRU x {AOD, WMNA, SieveStore-C, RandSieve-C} on
 * randomTrace(555, 3000, 200) with a 512-block cache: the totals the
 * node-based replacement engine (std::list + unordered_map LRU behind
 * a virtual policy interface) produced at batch 1 before the flat
 * cache became the only engine. The flat appliance matched it field
 * for field then, and must keep matching it now.
 */
const PinnedRun kPinnedRuns[] = {
    {[]() -> std::unique_ptr<core::AllocationPolicy> {
         return std::make_unique<core::AodPolicy>();
     },
     pinnedTotals(297752, 208642, 16015, 11480, 4535, 281737, 1541, 603,
                  37184)},
    {[]() -> std::unique_ptr<core::AllocationPolicy> {
         return std::make_unique<core::WmnaPolicy>();
     },
     pinnedTotals(297752, 208642, 16991, 11665, 5326, 196977, 1566, 708,
                  26005)},
    {[]() -> std::unique_ptr<core::AllocationPolicy> {
         core::SieveStoreCConfig cfg;
         cfg.imct_slots = 1 << 12;
         return std::make_unique<core::SieveStoreCPolicy>(cfg);
     },
     pinnedTotals(297752, 208642, 30471, 21384, 9087, 16635, 5772, 2314,
                  8231)},
    {[]() -> std::unique_ptr<core::AllocationPolicy> {
         return std::make_unique<core::RandSieveCPolicy>(0.05, 17);
     },
     pinnedTotals(297752, 208642, 21673, 15385, 6288, 13749, 7065, 2899,
                  11767)},
};

/**
 * The one request loop across dispatches: for every probe-loop
 * dispatch (AVX2 on/off) and decode batch size, each sieve's appliance
 * replays per-day reports bit-identical to the scalar batch-1 run and
 * totals equal to the pinned ones. Requests run up to 200 blocks, so
 * probe-gather chunk boundaries fall mid-request.
 */
TEST(BatchKernelDifferential, ProcessBatchMatchesPinnedTotals)
{
    const auto reqs = randomTrace(555, 3000, 200);
    const bool prior_simd = util::batchSimdEnabled();

    for (const PinnedRun &run : kPinnedRuns) {
        core::ApplianceConfig cfg;
        cfg.cache_blocks = 512;
        cfg.track_occupancy = false; // the armed no-alloc configuration

        // Baseline: the scalar probe loop at batch 1.
        util::setBatchSimd(false);
        core::Appliance base_app(cfg, run.make());
        trace::VectorTrace base_trace(reqs);
        sim::DriverOptions base_options;
        base_options.batch = 1;
        sim::runTrace(base_trace, base_app, base_options);
        const std::vector<DailyReport> &base_days = base_app.daily();
        ASSERT_GE(base_days.size(), 2u)
            << base_app.policyName() << ": trace must span multiple days";
        expectReportEq(base_app.totals(), run.totals,
                       std::string(base_app.policyName()) + " pinned");

        for (const bool simd : {false, true}) {
            if (simd && !util::batchSimdSupported())
                continue;
            for (const size_t batch : {size_t{1}, size_t{8}, size_t{64}}) {
                util::setBatchSimd(simd);
                core::Appliance app(cfg, run.make());
                trace::VectorTrace tr(reqs);
                sim::DriverOptions options;
                options.batch = batch;
                sim::runTrace(tr, app, options);

                const std::string label =
                    std::string(app.policyName()) +
                    (simd ? " avx2" : " scalar-probe") + " batch " +
                    std::to_string(batch);
                const auto &days = app.daily();
                ASSERT_EQ(days.size(), base_days.size()) << label;
                for (size_t d = 0; d < days.size(); ++d)
                    expectReportEq(days[d], base_days[d],
                                   label + " day " + std::to_string(d));
                expectReportEq(app.totals(), run.totals,
                               label + " totals");
                app.checkInvariants();
            }
        }
        base_app.checkInvariants();
    }
    util::setBatchSimd(prior_simd);
}

} // namespace
