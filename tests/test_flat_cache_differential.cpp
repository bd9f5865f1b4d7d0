/**
 * @file
 * Differential proof that the flat block-index cache engine is
 * behavior-identical to the node-based Reference* policies it
 * replaced.
 *
 * The refactor's claim is not "roughly the same policy" but
 * *bit-identical decisions*: the same victim on every insert, the
 * same BatchReplaceResult on every epoch swap, and therefore the same
 * DailyReport on every node of every experiment. These tests drive
 * both engines op-for-op over randomized streams for every built-in
 * eviction kind, then replay full appliances (continuous and
 * discrete) and compare every field of every day's report.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/block_cache.hpp"
#include "cache/replacement.hpp"
#include "core/appliance.hpp"
#include "core/rand_sieve.hpp"
#include "core/sievestore_c.hpp"
#include "core/unsieved.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "util/random.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using namespace sievestore::cache;
using core::DailyReport;
using sievestore::trace::BlockId;
using sievestore::util::Rng;

const EvictionKind kAllKinds[] = {EvictionKind::Lru, EvictionKind::Fifo,
                                  EvictionKind::Clock, EvictionKind::Lfu,
                                  EvictionKind::Random};

/** Builds one of the batched-kernel matrix's continuous sieves. */
using SieveFactory = std::unique_ptr<core::AllocationPolicy> (*)();

/** AOD, WMNA, SieveStore-C and RandSieve-C, built by their
 * constructors and passed to Appliance(config, policy). */
const SieveFactory kSieves[] = {
    []() -> std::unique_ptr<core::AllocationPolicy> {
        return std::make_unique<core::AodPolicy>();
    },
    []() -> std::unique_ptr<core::AllocationPolicy> {
        return std::make_unique<core::WmnaPolicy>();
    },
    []() -> std::unique_ptr<core::AllocationPolicy> {
        core::SieveStoreCConfig cfg;
        cfg.imct_slots = 1 << 12;
        return std::make_unique<core::SieveStoreCPolicy>(cfg);
    },
    []() -> std::unique_ptr<core::AllocationPolicy> {
        return std::make_unique<core::RandSieveCPolicy>(0.05, 17);
    },
};

// ---- cache-level op stream ----------------------------------------

/**
 * Drive both engines with an identical random stream of access /
 * insert / erase / probe-gather bursts and require identical
 * observable behavior after every single operation: hit results,
 * eviction victims, residency, and size. The burst is the appliance
 * request loop's shape — probeBatch over up to kProbeBatch keys
 * (duplicates included), then touchProbed on the hits in order — so
 * the custom (reference) engine's probe-gather path is pinned
 * against the flat one.
 */
void
differentialOpStream(EvictionKind kind, uint64_t capacity,
                     uint64_t key_space, uint64_t seed, int ops)
{
    const EvictionSpec spec{kind, 11};
    BlockCache flat(capacity, spec);
    BlockCache reference(capacity, makeReferencePolicy(spec, capacity));
    Rng rng(seed);
    const std::string label = evictionKindName(kind);

    for (int op = 0; op < ops; ++op) {
        const BlockId b = rng.nextBelow(key_space);
        switch (rng.nextBelow(8)) {
          case 0: { // erase
            const bool f = flat.erase(b);
            const bool r = reference.erase(b);
            ASSERT_EQ(f, r) << label << " erase(" << b << ") op " << op;
            break;
          }
          case 1: { // probe-gather burst, hits touched in order
            constexpr size_t kMax = BlockCache::kProbeBatch;
            BlockId keys[kMax];
            PolicyState *f_st[kMax];
            PolicyState *r_st[kMax];
            const size_t n = 1 + rng.nextBelow(kMax);
            keys[0] = b;
            for (size_t i = 1; i < n; ++i)
                keys[i] = rng.nextBool(0.25) ? keys[rng.nextBelow(i)]
                                             : rng.nextBelow(key_space);
            flat.probeBatch(std::span<const BlockId>(keys, n),
                            std::span<PolicyState *>(f_st, n));
            reference.probeBatch(std::span<const BlockId>(keys, n),
                                 std::span<PolicyState *>(r_st, n));
            for (size_t i = 0; i < n; ++i) {
                ASSERT_EQ(f_st[i] != nullptr, r_st[i] != nullptr)
                    << label << " probe(" << keys[i] << ") op " << op;
                ASSERT_EQ(f_st[i] != nullptr, flat.contains(keys[i]))
                    << label << " probe(" << keys[i] << ") op " << op;
                if (f_st[i] != nullptr) {
                    flat.touchProbed(keys[i], *f_st[i]);
                    reference.touchProbed(keys[i], *r_st[i]);
                }
            }
            break;
          }
          default: { // access, insert on miss (the appliance hot path)
            const bool f_hit = flat.access(b);
            const bool r_hit = reference.access(b);
            ASSERT_EQ(f_hit, r_hit)
                << label << " access(" << b << ") op " << op;
            if (!f_hit) {
                const auto f_victim = flat.insert(b);
                const auto r_victim = reference.insert(b);
                ASSERT_EQ(f_victim, r_victim)
                    << label << " victim for insert(" << b << ") op "
                    << op;
            }
            break;
          }
        }
        ASSERT_EQ(flat.size(), reference.size()) << label;
    }
    flat.checkInvariants();
    reference.checkInvariants();

    auto f_contents = flat.contents();
    auto r_contents = reference.contents();
    std::sort(f_contents.begin(), f_contents.end());
    std::sort(r_contents.begin(), r_contents.end());
    EXPECT_EQ(f_contents, r_contents) << label;
}

TEST(FlatCacheDifferential, OpStreamMatchesReferenceEveryKind)
{
    for (const EvictionKind kind : kAllKinds) {
        // Tight key space: constant eviction pressure.
        differentialOpStream(kind, 64, 256, 42, 60000);
        // Wide key space: mostly-miss streaming.
        differentialOpStream(kind, 64, 1 << 16, 43, 60000);
        // Capacity 1 and 2: the degenerate rings/lists.
        differentialOpStream(kind, 1, 16, 44, 5000);
        differentialOpStream(kind, 2, 16, 45, 5000);
    }
}

// ---- batchReplace -------------------------------------------------

/**
 * Interleave continuous ops with epoch-style batch replacements and
 * require identical BatchReplaceResults and identical residency —
 * this is exactly the discrete appliance's usage pattern.
 */
void
differentialBatch(EvictionKind kind, uint64_t seed)
{
    const EvictionSpec spec{kind, 5};
    const uint64_t capacity = 128;
    BlockCache flat(capacity, spec);
    BlockCache reference(capacity, makeReferencePolicy(spec, capacity));
    Rng rng(seed);
    const std::string label = evictionKindName(kind);

    for (int epoch = 0; epoch < 30; ++epoch) {
        // A continuous phase...
        for (int op = 0; op < 500; ++op) {
            const BlockId b = rng.nextBelow(600);
            const bool f_hit = flat.access(b);
            ASSERT_EQ(f_hit, reference.access(b)) << label;
            if (!f_hit) {
                ASSERT_EQ(flat.insert(b), reference.insert(b))
                    << label;
            }
        }
        // ...then an epoch batch, sometimes oversized, sometimes
        // overlapping the resident set, sometimes with duplicates.
        std::vector<BlockId> incoming;
        const uint64_t n = rng.nextBelow(200);
        for (uint64_t i = 0; i < n; ++i)
            incoming.push_back(rng.nextBelow(600));
        const BatchReplaceResult f = flat.batchReplace(incoming);
        const BatchReplaceResult r = reference.batchReplace(incoming);
        EXPECT_EQ(f.retained, r.retained) << label << " epoch " << epoch;
        EXPECT_EQ(f.evicted, r.evicted) << label << " epoch " << epoch;
        EXPECT_EQ(f.allocated, r.allocated)
            << label << " epoch " << epoch;
        ASSERT_EQ(flat.size(), reference.size()) << label;
        flat.checkInvariants();
        reference.checkInvariants();

        auto f_contents = flat.contents();
        auto r_contents = reference.contents();
        std::sort(f_contents.begin(), f_contents.end());
        std::sort(r_contents.begin(), r_contents.end());
        ASSERT_EQ(f_contents, r_contents) << label;
    }
}

TEST(FlatCacheDifferential, BatchReplaceMatchesReferenceEveryKind)
{
    for (const EvictionKind kind : kAllKinds)
        differentialBatch(kind, 7 + static_cast<uint64_t>(kind));
}

// ---- appliance-level ----------------------------------------------

/** Field-for-field equality of one day's report. */
void
expectReportEq(const DailyReport &flat, const DailyReport &reference,
               const std::string &where)
{
    EXPECT_EQ(flat.accesses, reference.accesses) << where;
    EXPECT_EQ(flat.read_accesses, reference.read_accesses) << where;
    EXPECT_EQ(flat.hits, reference.hits) << where;
    EXPECT_EQ(flat.read_hits, reference.read_hits) << where;
    EXPECT_EQ(flat.write_hits, reference.write_hits) << where;
    EXPECT_EQ(flat.allocation_write_blocks,
              reference.allocation_write_blocks)
        << where;
    EXPECT_EQ(flat.batch_moved_blocks, reference.batch_moved_blocks)
        << where;
    EXPECT_EQ(flat.ssd_read_ios, reference.ssd_read_ios) << where;
    EXPECT_EQ(flat.ssd_write_ios, reference.ssd_write_ios) << where;
    EXPECT_EQ(flat.ssd_alloc_ios, reference.ssd_alloc_ios) << where;
}

/**
 * A multi-day random trace with hot runs and a cold tail; requests
 * span 1..max_blocks blocks.
 */
std::vector<trace::Request>
randomTrace(uint64_t seed, size_t n, uint32_t max_blocks = 32)
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

/**
 * The acceptance matrix: every built-in eviction kind × {AOD, WMNA,
 * SieveStore-C, SieveStore-D}, flat engine vs reference engine, with
 * per-day reports compared field for field. Requests run up to 200
 * blocks, so the request loop crosses probe-chunk boundaries and
 * SieveStore-D's staged observations flush across chunks.
 */
TEST(FlatCacheDifferential, ApplianceReportsMatchAcrossPolicyMatrix)
{
    const sim::PolicyKind policies[] = {
        sim::PolicyKind::AOD, sim::PolicyKind::WMNA,
        sim::PolicyKind::SieveStoreC, sim::PolicyKind::SieveStoreD};
    const auto reqs = randomTrace(99, 4000, 200);

    for (const EvictionKind kind : kAllKinds) {
        for (const sim::PolicyKind pk : policies) {
            const EvictionSpec spec{kind, 21};
            sim::PolicyConfig policy;
            policy.kind = pk;
            policy.adba_threshold = 3;
            policy.sieve_c.imct_slots = 1 << 12;

            core::ApplianceConfig flat_cfg;
            flat_cfg.cache_blocks = 512;
            flat_cfg.track_occupancy = true;
            flat_cfg.eviction = spec;
            core::ApplianceConfig ref_cfg = flat_cfg;
            ref_cfg.replacement = [spec] {
                return makeReferencePolicy(spec, 512);
            };

            auto flat_app = sim::makeAppliance(policy, flat_cfg);
            auto ref_app = sim::makeAppliance(policy, ref_cfg);

            trace::VectorTrace flat_trace(reqs);
            sim::runTrace(flat_trace, *flat_app);
            trace::VectorTrace ref_trace(reqs);
            sim::runTrace(ref_trace, *ref_app);

            const std::string label =
                std::string(evictionKindName(kind)) + " x " +
                flat_app->policyName();
            const auto &fd = flat_app->daily();
            const auto &rd = ref_app->daily();
            ASSERT_EQ(fd.size(), rd.size()) << label;
            ASSERT_GE(fd.size(), 2u)
                << label << ": trace must span multiple days";
            for (size_t d = 0; d < fd.size(); ++d)
                expectReportEq(fd[d], rd[d],
                               label + " day " + std::to_string(d));
            expectReportEq(flat_app->totals(), ref_app->totals(),
                           label + " totals");
            flat_app->checkInvariants();
            ref_app->checkInvariants();
        }
    }
}

// ---- batched-kernel differential ----------------------------------

/**
 * The one request loop across cache engines and dispatches: the
 * flat-cache appliance produces per-day DailyReports bit-identical to
 * the Reference*-replacement appliance replayed one request per
 * batch, for every probe-loop dispatch (AVX2 on/off), every decode
 * batch size, and every eviction kind × sieve kind. Requests run up
 * to 200 blocks, so probe-gather chunk boundaries fall mid-request.
 */
TEST(BatchKernelDifferential, ProcessBatchMatchesScalarAcrossMatrix)
{
    const auto reqs = randomTrace(555, 3000, 200);
    const bool prior_simd = util::batchSimdEnabled();

    for (const EvictionKind ek : kAllKinds) {
        for (const SieveFactory make_sieve : kSieves) {
            core::ApplianceConfig cfg;
            cfg.cache_blocks = 512;
            cfg.track_occupancy = false; // flat-engine configuration
            cfg.eviction = EvictionSpec{ek, 21};

            // Baseline: the Reference* replacement engine at batch 1.
            core::ApplianceConfig ref_cfg = cfg;
            ref_cfg.replacement = [spec = cfg.eviction] {
                return makeReferencePolicy(spec, 512);
            };
            core::Appliance ref_app(ref_cfg, make_sieve());
            trace::VectorTrace ref_trace(reqs);
            sim::DriverOptions ref_options;
            ref_options.batch = 1;
            sim::runTrace(ref_trace, ref_app, ref_options);
            const std::vector<DailyReport> &ref_days = ref_app.daily();

            for (const bool simd : {false, true}) {
                if (simd && !util::batchSimdSupported())
                    continue;
                for (const size_t batch : {size_t{1}, size_t{8},
                                           size_t{64}}) {
                    util::setBatchSimd(simd);
                    core::Appliance flat_app(cfg, make_sieve());
                    trace::VectorTrace flat_trace(reqs);
                    sim::DriverOptions options;
                    options.batch = batch;
                    sim::runTrace(flat_trace, flat_app, options);

                    const std::string label =
                        std::string(evictionKindName(ek)) + " x " +
                        flat_app.policyName() +
                        (simd ? " avx2" : " scalar-probe") +
                        " batch " + std::to_string(batch);
                    const auto &fd = flat_app.daily();
                    ASSERT_EQ(fd.size(), ref_days.size()) << label;
                    ASSERT_GE(fd.size(), 2u)
                        << label << ": trace must span multiple days";
                    for (size_t d = 0; d < fd.size(); ++d)
                        expectReportEq(fd[d], ref_days[d],
                                       label + " day " +
                                           std::to_string(d));
                    expectReportEq(flat_app.totals(), ref_app.totals(),
                                   label + " totals");
                    flat_app.checkInvariants();
                }
            }
            ref_app.checkInvariants();
        }
    }
    util::setBatchSimd(prior_simd);
}

} // namespace
