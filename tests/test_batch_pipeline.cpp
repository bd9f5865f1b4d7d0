/**
 * @file
 * Batched request-path pipeline tests (sim/batch.hpp and the four
 * drivers, each one sim::replay call). The pipeline's contract is that the
 * batch size is a pure performance knob: for ANY batch size, every
 * driver must produce reports bit-identical to the per-request
 * (batch=1) replay, across policies, shard counts, day gaps, and
 * day-boundary-straddling decode batches.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/appliance.hpp"
#include "core/sievestore_c.hpp"
#include "list_reader.hpp"
#include "sim/batch.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "sim/per_server.hpp"
#include "sim/sharded.hpp"
#include "trace/trace_reader.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using core::DailyReport;
using sievestore::util::FatalError;
using sievestore::util::Rng;

void
expectReportEq(const DailyReport &a, const DailyReport &b,
               const std::string &where)
{
    EXPECT_EQ(a.accesses, b.accesses) << where;
    EXPECT_EQ(a.read_accesses, b.read_accesses) << where;
    EXPECT_EQ(a.hits, b.hits) << where;
    EXPECT_EQ(a.read_hits, b.read_hits) << where;
    EXPECT_EQ(a.write_hits, b.write_hits) << where;
    EXPECT_EQ(a.allocation_write_blocks, b.allocation_write_blocks)
        << where;
    EXPECT_EQ(a.batch_moved_blocks, b.batch_moved_blocks) << where;
    EXPECT_EQ(a.ssd_read_ios, b.ssd_read_ios) << where;
    EXPECT_EQ(a.ssd_write_ios, b.ssd_write_ios) << where;
    EXPECT_EQ(a.ssd_alloc_ios, b.ssd_alloc_ios) << where;
}

void
expectDailyEq(const std::vector<DailyReport> &a,
              const std::vector<DailyReport> &b, const std::string &where)
{
    ASSERT_EQ(a.size(), b.size()) << where;
    for (size_t d = 0; d < a.size(); ++d)
        expectReportEq(a[d], b[d], where + " day " + std::to_string(d));
}

std::vector<trace::Request>
randomTrace(uint64_t seed, size_t n, uint64_t max_gap_us = 90 * 1000000)
{
    Rng rng(seed);
    std::vector<trace::Request> reqs;
    uint64_t t = 0;
    for (size_t i = 0; i < n; ++i) {
        trace::Request r;
        t += rng.nextBelow(max_gap_us);
        r.time = t;
        r.volume = static_cast<trace::VolumeId>(rng.nextBelow(4));
        r.server = static_cast<trace::ServerId>(rng.nextBelow(3));
        r.op = rng.nextBool(0.7) ? trace::Op::Read : trace::Op::Write;
        r.offset_blocks = rng.nextBool(0.5)
                              ? rng.nextBelow(64) * 8
                              : rng.nextBelow(1 << 18);
        r.length_blocks = 1 + static_cast<uint32_t>(rng.nextBelow(24));
        r.latency_us = static_cast<uint32_t>(rng.nextBelow(3000000));
        reqs.push_back(r);
    }
    return reqs;
}

sim::PolicyConfig
policyFor(sim::PolicyKind kind)
{
    sim::PolicyConfig policy;
    policy.kind = kind;
    policy.adba_threshold = 3;
    policy.sieve_c.imct_slots = 1 << 12;
    policy.rand_fraction = 0.05;
    return policy;
}

// ---- runTrace -----------------------------------------------------

TEST(BatchPipeline, RunTraceInvariantAcrossBatchSizesAndPolicies)
{
    const auto reqs = randomTrace(11, 3000);
    const sim::PolicyKind policies[] = {
        sim::PolicyKind::AOD, sim::PolicyKind::WMNA,
        sim::PolicyKind::SieveStoreC, sim::PolicyKind::SieveStoreD,
        sim::PolicyKind::RandSieveC};

    for (const sim::PolicyKind pk : policies) {
        core::ApplianceConfig ac;
        ac.cache_blocks = 512;
        const sim::PolicyConfig policy = policyFor(pk);

        sim::DriverOptions golden_opts;
        golden_opts.batch = 1; // the historical per-request path
        auto golden = sim::makeAppliance(policy, ac);
        trace::VectorTrace golden_trace(reqs);
        sim::runTrace(golden_trace, *golden, golden_opts);

        for (const size_t batch : {size_t(8), size_t(64), size_t(256)}) {
            sim::DriverOptions opts;
            opts.batch = batch;
            auto app = sim::makeAppliance(policy, ac);
            trace::VectorTrace reader(reqs);
            sim::runTrace(reader, *app, opts);
            expectDailyEq(golden->daily(), app->daily(),
                          std::string(app->policyName()) +
                              " batch=" + std::to_string(batch));
        }
    }
}

TEST(BatchPipeline, RunTraceHandlesMultiDayGaps)
{
    // A server idle across day boundaries still advances its epochs:
    // requests on days 0 and 3 only, so the pipeline must fire
    // finishDay for the empty days 1 and 2 exactly like batch=1.
    std::vector<trace::Request> reqs;
    for (const uint64_t day : {uint64_t(0), uint64_t(3)}) {
        for (int i = 0; i < 50; ++i) {
            trace::Request r;
            r.time = day * util::kUsPerDay + uint64_t(i) * 1000;
            r.offset_blocks = uint64_t(i % 16) * 8;
            r.length_blocks = 8;
            reqs.push_back(r);
        }
    }

    core::ApplianceConfig ac;
    ac.cache_blocks = 64;
    const auto policy = policyFor(sim::PolicyKind::SieveStoreD);

    sim::DriverOptions golden_opts;
    golden_opts.batch = 1;
    auto golden = sim::makeAppliance(policy, ac);
    trace::VectorTrace golden_trace(reqs);
    sim::runTrace(golden_trace, *golden, golden_opts);

    sim::DriverOptions opts;
    opts.batch = 64;
    auto app = sim::makeAppliance(policy, ac);
    trace::VectorTrace reader(reqs);
    sim::runTrace(reader, *app, opts);

    ASSERT_EQ(golden->daily().size(), 4u);
    expectDailyEq(golden->daily(), app->daily(), "multi-day gap");
}

TEST(BatchPipeline, EmptyTraceIsANoOp)
{
    core::ApplianceConfig ac;
    ac.cache_blocks = 64;
    auto app = sim::makeAppliance(policyFor(sim::PolicyKind::AOD), ac);
    trace::VectorTrace reader(std::vector<trace::Request>{});
    sim::runTrace(reader, *app);
    EXPECT_TRUE(app->daily().empty());
}

TEST(BatchPipeline, ZeroBatchIsFatal)
{
    core::ApplianceConfig ac;
    ac.cache_blocks = 64;
    auto app = sim::makeAppliance(policyFor(sim::PolicyKind::AOD), ac);
    trace::VectorTrace reader(randomTrace(1, 10));
    sim::DriverOptions opts;
    opts.batch = 0;
    EXPECT_THROW(sim::runTrace(reader, *app, opts), FatalError);

    sim::ShardedConfig sc;
    sc.shards = 2;
    sc.policy = policyFor(sim::PolicyKind::AOD);
    sc.node.cache_blocks = 64;
    sc.batch = 0;
    trace::VectorTrace sharded_reader(randomTrace(2, 10));
    EXPECT_THROW(sim::runSharded(sharded_reader, sc), FatalError);
    trace::VectorTrace parallel_reader(randomTrace(3, 10));
    EXPECT_THROW(sim::runShardedParallel(parallel_reader, sc),
                 FatalError);
}

TEST(BatchPipeline, TimeDisorderAcrossDaysIsFatal)
{
    // pumpBatches rejects day regressions uniformly for every driver.
    core::ApplianceConfig ac;
    ac.cache_blocks = 64;
    auto app = sim::makeAppliance(policyFor(sim::PolicyKind::AOD), ac);
    // VectorTrace rejects disorder at construction, hence a raw reader.
    trace::Request late, early;
    late.time = 2 * util::kUsPerDay;
    late.length_blocks = 8;
    early.length_blocks = 8;
    testutil::ListReader reader({late, early});
    EXPECT_THROW(sim::runTrace(reader, *app), FatalError);
}

// ---- sharded drivers ----------------------------------------------

TEST(BatchPipeline, ShardedDriversInvariantAcrossBatchAndShards)
{
    const auto reqs = randomTrace(21, 2000);

    for (const size_t shards : {size_t(1), size_t(2), size_t(4),
                                size_t(7)}) {
        sim::ShardedConfig golden_cfg;
        golden_cfg.shards = shards;
        golden_cfg.policy = policyFor(sim::PolicyKind::SieveStoreC);
        golden_cfg.node.cache_blocks = 256;
        golden_cfg.batch = 1;
        trace::VectorTrace golden_trace(reqs);
        const auto golden = sim::runSharded(golden_trace, golden_cfg);

        for (const size_t batch : {size_t(5), size_t(64)}) {
            sim::ShardedConfig cfg = golden_cfg;
            cfg.batch = batch;
            const std::string label = "shards=" + std::to_string(shards) +
                                      " batch=" + std::to_string(batch);

            trace::VectorTrace serial_trace(reqs);
            const auto serial = sim::runSharded(serial_trace, cfg);
            ASSERT_EQ(serial.nodes.size(), golden.nodes.size()) << label;
            for (size_t s = 0; s < shards; ++s)
                expectDailyEq(golden.nodes[s]->daily(),
                              serial.nodes[s]->daily(),
                              label + " serial shard " +
                                  std::to_string(s));

            trace::VectorTrace parallel_trace(reqs);
            const auto parallel =
                sim::runShardedParallel(parallel_trace, cfg);
            for (size_t s = 0; s < shards; ++s)
                expectDailyEq(golden.nodes[s]->daily(),
                              parallel.nodes[s]->daily(),
                              label + " parallel shard " +
                                  std::to_string(s));
        }
    }
}

TEST(BatchPipeline, ParallelBatchLargerThanQueueItemCap)
{
    // Decode batches above kQueueBatchRequests span several queue
    // items; results must not change.
    const auto reqs = randomTrace(31, 1500);
    sim::ShardedConfig cfg;
    cfg.shards = 3;
    cfg.policy = policyFor(sim::PolicyKind::AOD);
    cfg.node.cache_blocks = 128;
    cfg.batch = 1;
    trace::VectorTrace golden_trace(reqs);
    const auto golden = sim::runSharded(golden_trace, cfg);

    cfg.batch = 4 * sim::kQueueBatchRequests;
    trace::VectorTrace parallel_trace(reqs);
    const auto parallel = sim::runShardedParallel(parallel_trace, cfg);
    for (size_t s = 0; s < cfg.shards; ++s)
        expectDailyEq(golden.nodes[s]->daily(),
                      parallel.nodes[s]->daily(),
                      "oversized batch shard " + std::to_string(s));
}

// ---- per-server driver --------------------------------------------

TEST(BatchPipeline, PerServerInvariantAcrossBatchSizes)
{
    const auto reqs = randomTrace(41, 1500);
    sim::PerServerConfig golden_cfg;
    golden_cfg.capacities_blocks = {128, 64, 256};
    golden_cfg.policy = policyFor(sim::PolicyKind::SieveStoreC);
    golden_cfg.base.cache_blocks = 128;
    golden_cfg.batch = 1;
    trace::VectorTrace golden_trace(reqs);
    const auto golden = sim::runPerServer(golden_trace, golden_cfg);

    for (const size_t batch : {size_t(7), size_t(64), size_t(512)}) {
        sim::PerServerConfig cfg = golden_cfg;
        cfg.batch = batch;
        trace::VectorTrace reader(reqs);
        const auto result = sim::runPerServer(reader, cfg);
        const std::string label = "batch=" + std::to_string(batch);
        ASSERT_EQ(result.per_server.size(), golden.per_server.size())
            << label;
        for (size_t s = 0; s < result.per_server.size(); ++s)
            expectDailyEq(golden.per_server[s], result.per_server[s],
                          label + " server " + std::to_string(s));
        expectDailyEq(golden.combined, result.combined,
                      label + " combined");
    }
}

// ---- facade primitives --------------------------------------------

TEST(BatchPipeline, PumpBatchesSlicesAtDayBoundaries)
{
    // One decode batch spanning three days must arrive as three
    // slices with the two day-end callbacks interleaved in order.
    std::vector<trace::Request> reqs;
    for (const uint64_t day : {uint64_t(0), uint64_t(0), uint64_t(1),
                               uint64_t(2), uint64_t(2)}) {
        trace::Request r;
        r.time = day * util::kUsPerDay +
                 uint64_t(reqs.size()) * 1000 + 1;
        r.length_blocks = 8;
        reqs.push_back(r);
    }
    trace::VectorTrace reader(reqs);

    std::vector<std::string> events;
    sim::pumpBatches(
        reader, 64,
        [&](std::span<const trace::Request> slice) {
            events.push_back("slice:" + std::to_string(slice.size()));
        },
        [&](int day) {
            events.push_back("day-end:" + std::to_string(day));
        });

    const std::vector<std::string> expected = {
        "slice:2", "day-end:0", "slice:1", "day-end:1", "slice:2"};
    EXPECT_EQ(events, expected);
}

TEST(BatchPipeline, RequestBatcherFlushesFullBinsAndRemainder)
{
    std::vector<std::pair<size_t, size_t>> flushes; // (bin, count)
    auto flush = [&](size_t bin, std::span<const trace::Request> reqs) {
        flushes.emplace_back(bin, reqs.size());
    };
    sim::RequestBatcher<decltype(flush)> batcher(2, 3, flush);

    trace::Request r;
    r.length_blocks = 8;
    for (int i = 0; i < 7; ++i)
        batcher.add(0, r); // two full flushes of 3, remainder 1
    batcher.add(1, r);     // remainder 1 in the other bin
    batcher.flushAll();
    batcher.flushAll();    // idempotent on empty bins

    const std::vector<std::pair<size_t, size_t>> expected = {
        {0, 3}, {0, 3}, {0, 1}, {1, 1}};
    EXPECT_EQ(flushes, expected);
}

// ---- appliance batch entry point ----------------------------------

TEST(BatchPipeline, ProcessBatchMatchesPerRequestLoop)
{
    const auto reqs = randomTrace(51, 800, 30 * 1000000);
    core::ApplianceConfig cfg;
    cfg.cache_blocks = 256;
    core::SieveStoreCConfig sieve;
    sieve.imct_slots = 1 << 12;

    core::Appliance scalar(cfg,
                           std::make_unique<core::SieveStoreCPolicy>(sieve));
    for (const trace::Request &r : reqs)
        scalar.processRequest(r);
    scalar.finishTrace();

    core::Appliance batched(
        cfg, std::make_unique<core::SieveStoreCPolicy>(sieve));
    size_t i = 0;
    while (i < reqs.size()) {
        size_t j = i + 1;
        while (j < reqs.size() && j - i < 32 &&
               util::dayOf(reqs[j].time) == util::dayOf(reqs[i].time))
            ++j;
        batched.processBatch(std::span<const trace::Request>(
            reqs.data() + i, j - i));
        i = j;
    }
    batched.finishTrace();

    expectDailyEq(scalar.daily(), batched.daily(), "processBatch");
    scalar.checkInvariants();
    batched.checkInvariants();
}

} // namespace
