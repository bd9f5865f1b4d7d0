/**
 * @file
 * Differential proof that the flat block-index LRU cache makes the
 * same decisions as a node-based LRU model (tests/reference_lru.hpp),
 * and appliance-level pins of the request loop's totals and of the
 * allocation queue's pop order.
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
#include <cstdio>
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
#include "storage/backend.hpp"
#include "util/hashing.hpp"
#include "util/random.hpp"
#include "util/sim_time.hpp"

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
 * size. The ops are access (insert on miss), admit (insert unless
 * resident — the allocation drain's one-probe commit, resident blocks
 * included), erase, a probe-gather burst (probeBatch over up to kProbeBatch keys,
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
          case 6:
          case 7: { // admit: insert unless resident, recency untouched
            const bool resident = model.contains(b);
            const Admission a = flat.admit(b);
            ASSERT_EQ(a.inserted, !resident)
                << label << " admit(" << b << ") op " << op;
            if (resident)
                ASSERT_FALSE(a.victim.has_value())
                    << label << " admit(" << b << ") op " << op;
            else
                ASSERT_EQ(a.victim, model.insert(b))
                    << label << " victim for admit(" << b << ") op " << op;
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

// ---- allocation-queue order pin ------------------------------------

/**
 * AOD stress trace for the allocation queue. Per day: a dozen bursts
 * of requests 0-400 us apart with latencies up to 60 ms (dense
 * overlap), a quarter of them at latency 0 and a quarter below their
 * block count (tied completions), up to 150 blocks long (crossing the
 * 64-block probe chunk), plus one burst 30 ms before midnight whose
 * allocations are still in flight when the day closes.
 */
std::vector<trace::Request>
queueStressTrace(uint64_t seed)
{
    Rng rng(seed);
    std::vector<trace::Request> reqs;
    constexpr int kDays = 4;
    for (int day = 0; day < kDays; ++day) {
        const util::TimeUs day0 =
            static_cast<util::TimeUs>(day) * util::kUsPerDay;
        std::vector<util::TimeUs> starts;
        for (int b = 0; b < 12; ++b)
            starts.push_back(day0 + rng.nextBelow(util::kUsPerDay -
                                                  util::kUsPerHour));
        starts.push_back(day0 + util::kUsPerDay - 30000);
        for (const util::TimeUs start : starts) {
            util::TimeUs t = start;
            const uint64_t n = 20 + rng.nextBelow(40);
            for (uint64_t k = 0; k < n; ++k) {
                t += rng.nextBelow(3) == 0 ? 0 : rng.nextBelow(400);
                trace::Request r;
                r.time = t;
                r.volume = static_cast<trace::VolumeId>(rng.nextBelow(2));
                r.server = static_cast<trace::ServerId>(r.volume);
                r.op = rng.nextBool(0.6) ? trace::Op::Read
                                         : trace::Op::Write;
                r.offset_blocks = rng.nextBelow(2048);
                r.length_blocks =
                    1 + static_cast<uint32_t>(rng.nextBelow(150));
                switch (rng.nextBelow(4)) {
                  case 0:
                    r.latency_us = 0;
                    break;
                  case 1:
                    r.latency_us = static_cast<uint32_t>(
                        rng.nextBelow(r.length_blocks));
                    break;
                  default:
                    r.latency_us =
                        static_cast<uint32_t>(rng.nextBelow(60000));
                    break;
                }
                reqs.push_back(r);
            }
        }
    }
    std::stable_sort(reqs.begin(), reqs.end(), trace::requestTimeLess);
    return reqs;
}

/**
 * Storage observer that folds every trim — one per eviction, carrying
 * the evicting allocation's completion and the victim's page — into a
 * running hash, so the victim sequence can be pinned without
 * allocating inside the armed request path.
 */
class TrimRecorder : public storage::Backend
{
  public:
    struct Log
    {
        uint64_t trims = 0;
        uint64_t hash = 0;
    };

    explicit TrimRecorder(Log *log) : log_(log) {}

    const char *name() const override { return "trim-recorder"; }

    void
    readBlocks(std::span<const storage::StorageOp> ops,
               std::span<uint32_t> lat_ns) override
    {
        for (size_t i = 0; i < ops.size(); ++i) {
            lat_ns[i] = 0;
            noteRead(0);
        }
    }

    void
    writeBlocks(std::span<const storage::StorageOp> ops,
                std::span<uint32_t> lat_ns) override
    {
        for (size_t i = 0; i < ops.size(); ++i) {
            lat_ns[i] = 0;
            noteWrite(0);
        }
    }

    void
    trimBlocks(std::span<const storage::StorageOp> ops) override
    {
        for (const storage::StorageOp &op : ops) {
            log_->hash = util::mix64(log_->hash ^ op.time);
            log_->hash = util::mix64(log_->hash ^ op.page);
            ++log_->trims;
        }
        Backend::trimBlocks(ops);
    }

  private:
    Log *log_;
};

/** Order-independent hash of the resident set. */
uint64_t
contentsHash(const BlockCache &cache)
{
    auto blocks = cache.contents();
    std::sort(blocks.begin(), blocks.end());
    uint64_t h = 0;
    for (const BlockId b : blocks)
        h = util::mix64(h ^ b);
    return h;
}

/** Print a replay's pins in this file's source form. */
void
printPins(const std::vector<DailyReport> &days,
          const TrimRecorder::Log &log, uint64_t contents)
{
    for (const DailyReport &d : days)
        std::printf("    pinnedTotals(%llu, %llu, %llu, %llu, %llu, %llu, "
                    "%llu, %llu, %llu),\n",
                    static_cast<unsigned long long>(d.accesses),
                    static_cast<unsigned long long>(d.read_accesses),
                    static_cast<unsigned long long>(d.hits),
                    static_cast<unsigned long long>(d.read_hits),
                    static_cast<unsigned long long>(d.write_hits),
                    static_cast<unsigned long long>(
                        d.allocation_write_blocks),
                    static_cast<unsigned long long>(d.ssd_read_ios),
                    static_cast<unsigned long long>(d.ssd_write_ios),
                    static_cast<unsigned long long>(d.ssd_alloc_ios));
    std::printf("    trims %llu, trim hash 0x%016llx, contents hash "
                "0x%016llx\n",
                static_cast<unsigned long long>(log.trims),
                static_cast<unsigned long long>(log.hash),
                static_cast<unsigned long long>(contents));
}

/**
 * queueStressTrace(808) through AOD on a 512-block cache: per-day
 * reports, eviction count, victim-sequence hash and final resident
 * set, as the per-block allocation heap (one push_heap per allocated
 * block, equal-completion ties in heap-array order) produced them.
 */
const DailyReport kQueueStressDays[] = {
    pinnedTotals(36499, 21187, 4783, 3019, 1764, 26927, 475, 295, 3769),
    pinnedTotals(44598, 26962, 5651, 3170, 2481, 32215, 523, 395, 4547),
    pinnedTotals(35747, 22017, 3977, 2709, 1268, 27687, 436, 207, 3879),
    pinnedTotals(43486, 25787, 6147, 3482, 2665, 30484, 571, 420, 4341),
    // Day 4 holds only the last midnight burst's late completions.
    pinnedTotals(0, 0, 0, 0, 0, 277, 0, 0, 37),
};
constexpr uint64_t kQueueStressTrims = 117078;
constexpr uint64_t kQueueStressTrimHash = 0xccf5df95003fa5b8;
constexpr uint64_t kQueueStressContents = 0xd71932b1a02f681f;

/**
 * The allocation queue's order is model output: equal-completion ties
 * set LRU recency, so a tie popped out of heap order moves later
 * victims. Replay the stress trace at batch 1, 8 and 64 and require
 * the pinned per-day reports, victim sequence and resident set.
 */
TEST(BatchKernelDifferential, AodQueueStressMatchesPinnedOrder)
{
    const auto reqs = queueStressTrace(808);
    for (const size_t batch : {size_t{1}, size_t{8}, size_t{64}}) {
        TrimRecorder::Log log;
        core::ApplianceConfig cfg;
        cfg.cache_blocks = 512;
        cfg.track_occupancy = false; // the armed no-alloc configuration
        cfg.backend.factory = [&log]() -> std::unique_ptr<storage::Backend> {
            return std::make_unique<TrimRecorder>(&log);
        };
        core::Appliance app(cfg, std::make_unique<core::AodPolicy>());
        trace::VectorTrace tr(reqs);
        sim::DriverOptions options;
        options.batch = batch;
        sim::runTrace(tr, app, options);
        app.checkInvariants();

        const std::string label = "batch " + std::to_string(batch);
        const auto &days = app.daily();
        const uint64_t contents = contentsHash(app.blockCache());
        EXPECT_EQ(days.size(), std::size(kQueueStressDays)) << label;
        for (size_t d = 0;
             d < std::min(days.size(), std::size(kQueueStressDays)); ++d)
            expectReportEq(days[d], kQueueStressDays[d],
                           label + " day " + std::to_string(d));
        EXPECT_EQ(log.trims, kQueueStressTrims) << label;
        EXPECT_EQ(log.hash, kQueueStressTrimHash) << label;
        EXPECT_EQ(contents, kQueueStressContents) << label;
        if (::testing::Test::HasFailure())
            printPins(days, log, contents);
    }
}

} // namespace
