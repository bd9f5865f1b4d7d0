/**
 * @file
 * Unit tests for per-server caching simulation (Section 5.3), inline
 * and on worker threads.
 */

#include <gtest/gtest.h>

#include <string>

#include "list_reader.hpp"
#include "sim/per_server.hpp"
#include "sim/replay.hpp"
#include "trace/synthetic.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using namespace sievestore::trace;
using sievestore::util::FatalError;
using sievestore::util::makeTime;

Request
makeRequest(uint64_t time, ServerId server, uint64_t offset, uint32_t len)
{
    Request r;
    r.time = time;
    r.volume = server; // one volume per server in these tests
    r.server = server;
    r.op = Op::Read;
    r.offset_blocks = offset;
    r.length_blocks = len;
    r.latency_us = 100;
    return r;
}

sim::PerServerConfig
config(std::vector<uint64_t> capacities)
{
    sim::PerServerConfig cfg;
    cfg.capacities_blocks = std::move(capacities);
    cfg.policy.kind = sim::PolicyKind::AOD;
    cfg.base.track_occupancy = false;
    return cfg;
}

TEST(PerServer, IsolatesCaches)
{
    // Server 0 has room; server 1's cache is a single block and cannot
    // hold its 8-block working set.
    std::vector<Request> reqs = {
        makeRequest(1000, 0, 0, 8),
        makeRequest(2000, 1, 0, 8),
        makeRequest(10000000, 0, 0, 8),
        makeRequest(10001000, 1, 0, 8),
    };
    VectorTrace trace(std::move(reqs));
    const auto result = runPerServer(trace, config({1024, 1}));
    ASSERT_EQ(result.per_server.size(), 2u);
    const auto totals0 = core::sumReports(result.per_server[0]);
    const auto totals1 = core::sumReports(result.per_server[1]);
    EXPECT_EQ(totals0.hits, 8u);
    // With one frame, at most the last-allocated block can hit.
    EXPECT_LE(totals1.hits, 1u);
}

TEST(PerServer, CombinedSumsAcrossServers)
{
    std::vector<Request> reqs = {
        makeRequest(makeTime(0, 1), 0, 0, 4),
        makeRequest(makeTime(0, 2), 1, 0, 4),
        makeRequest(makeTime(1, 1), 0, 0, 4),
    };
    VectorTrace trace(std::move(reqs));
    const auto result = runPerServer(trace, config({64, 64}));
    ASSERT_EQ(result.combined.size(), 2u);
    EXPECT_EQ(result.combined[0].accesses, 8u);
    EXPECT_EQ(result.combined[1].accesses, 4u);
    EXPECT_EQ(result.total_capacity_blocks, 128u);
}

TEST(PerServer, StrandedCapacityCannotBeShared)
{
    // The O2 argument: server 1's big cache cannot help server 0's
    // large hot set. Ensemble-equivalent capacity split 50/50 loses.
    std::vector<Request> reqs;
    // Server 0 cycles over 64 blocks; server 1 touches 4.
    for (uint64_t round = 0; round < 3; ++round)
        for (uint64_t i = 0; i < 8; ++i)
            reqs.push_back(makeRequest(
                makeTime(0, 1 + round * 2, i), 0, i * 8, 8));
    for (uint64_t round = 0; round < 3; ++round)
        reqs.push_back(
            makeRequest(makeTime(0, 2 + round * 2), 1, 0, 4));
    std::sort(reqs.begin(), reqs.end(), requestTimeLess);
    VectorTrace trace(std::move(reqs));

    // Per-server: 34 blocks each (server 0 thrashes).
    auto split = runPerServer(trace, config({34, 34}));
    const auto split_hits = core::sumReports(split.combined).hits;

    // The same 68 blocks as one shared cache. Reuse the per-server
    // plumbing with every request mapped to one "server".
    trace.reset();
    std::vector<Request> remapped;
    Request r;
    while (trace.next(r)) {
        r.server = 0;
        remapped.push_back(r);
    }
    VectorTrace shared_trace(std::move(remapped));
    auto shared = runPerServer(shared_trace, config({68}));
    const auto shared_hits = core::sumReports(shared.combined).hits;

    EXPECT_GT(shared_hits, split_hits);
}

TEST(PerServer, RejectsOutOfRangeServer)
{
    std::vector<Request> reqs = {makeRequest(1000, 3, 0, 1)};
    VectorTrace trace(std::move(reqs));
    auto cfg = config({64, 64});
    EXPECT_THROW(runPerServer(trace, cfg), FatalError);
    EXPECT_THROW(runPerServer(trace, config({})), FatalError);
}

/** Field-for-field equality of one day's report. */
void
expectReportEq(const core::DailyReport &a, const core::DailyReport &b,
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
    EXPECT_EQ(a.tune_t1, b.tune_t1) << where;
    EXPECT_EQ(a.tune_t2, b.tune_t2) << where;
    EXPECT_EQ(a.tune_switches, b.tune_switches) << where;
    EXPECT_EQ(a.storage_read_ios, b.storage_read_ios) << where;
    EXPECT_EQ(a.storage_write_ios, b.storage_write_ios) << where;
    EXPECT_EQ(a.storage_read_errors, b.storage_read_errors) << where;
    EXPECT_EQ(a.storage_write_errors, b.storage_write_errors) << where;
    EXPECT_EQ(a.storage_read_ns, b.storage_read_ns) << where;
    EXPECT_EQ(a.storage_write_ns, b.storage_write_ns) << where;
}

TEST(PerServer, ThreadedReplayIsBitIdenticalToInline)
{
    // The paper's 13-server ensemble, one private appliance each. The
    // inline per-request runPerServer is the reference; sim::replay of
    // the same nodes at every thread count (13 = one worker per
    // server) and batch size must reproduce each server's per-day
    // reports exactly.
    trace::SyntheticConfig scfg;
    scfg.seed = 0x5e53;
    scfg.scale = 1.0 / 131072.0;
    auto gen = trace::SyntheticEnsembleGenerator::paper(
        trace::EnsembleConfig::paperEnsemble(), scfg);
    const size_t servers =
        trace::EnsembleConfig::paperEnsemble().serverCount();

    sim::PerServerConfig cfg;
    cfg.capacities_blocks.assign(servers, 96);
    cfg.policy.kind = sim::PolicyKind::SieveStoreC;
    cfg.policy.sieve_c.imct_slots = 1 << 12;
    cfg.base.track_occupancy = false;
    cfg.batch = 1;
    gen.reset();
    const auto golden = runPerServer(gen, cfg);
    ASSERT_EQ(golden.per_server.size(), servers);
    ASSERT_GT(core::sumReports(golden.combined).hits, 0u);

    for (const size_t threads :
         {size_t(0), size_t(1), size_t(2), size_t(13)}) {
        for (const size_t batch : {size_t(1), size_t(64)}) {
            sim::ReplayOptions options;
            options.threads = threads;
            options.batch = batch;
            const auto nodes = sim::makePerServerNodes(cfg);
            gen.reset();
            sim::replay(gen, nodes, sim::Route::byServer(), options);
            const std::string label = "threads=" +
                                      std::to_string(threads) +
                                      " batch=" + std::to_string(batch);
            ASSERT_EQ(nodes.size(), servers) << label;
            for (size_t s = 0; s < servers; ++s) {
                const auto &gd = golden.per_server[s];
                const auto &rd = nodes[s]->daily();
                ASSERT_EQ(gd.size(), rd.size()) << label << " server " << s;
                for (size_t d = 0; d < gd.size(); ++d)
                    expectReportEq(gd[d], rd[d],
                                   label + " server " +
                                       std::to_string(s) + " day " +
                                       std::to_string(d));
            }
        }
    }
}

TEST(PerServer, OutOfRangeServerOnWorkersIsFatalAndJoins)
{
    // Two days of traffic for servers 0 and 1, then a request from
    // server 5 mid-way through day 1. The reader raises FatalError
    // while both workers are live; replay must close the queues and
    // join them (an unjoined std::thread would terminate the process).
    std::vector<Request> reqs;
    for (uint64_t day = 0; day < 2; ++day)
        for (uint64_t i = 0; i < 200; ++i)
            reqs.push_back(makeRequest(makeTime(day, 1, 0, i),
                                       ServerId(i % 2), (i % 32) * 8, 8));
    reqs.push_back(makeRequest(makeTime(1, 2), 5, 0, 8));
    reqs.push_back(makeRequest(makeTime(1, 3), 0, 0, 8));
    VectorTrace trace(std::move(reqs));
    for (const bool deterministic : {true, false}) {
        sim::ReplayOptions options;
        options.threads = 2;
        options.batch = 16;
        options.deterministic = deterministic;
        const auto nodes = sim::makePerServerNodes(config({64, 64}));
        trace.reset();
        EXPECT_THROW(
            sim::replay(trace, nodes, sim::Route::byServer(), options),
            FatalError)
            << "deterministic=" << deterministic;
    }
}

TEST(ElasticCapacities, RejectsADayThatGoesBackwards)
{
    // Days 0, 1, 0: a later day-0 run must not fold into a fresh day.
    testutil::ListReader trace({makeRequest(makeTime(0, 1), 0, 0, 8),
                                makeRequest(makeTime(1, 1), 0, 8, 8),
                                makeRequest(makeTime(0, 2), 0, 16, 8)});
    EXPECT_THROW(sim::elasticTopPercentCapacities(trace, 1, 0.01),
                 FatalError);
}

TEST(ElasticCapacities, TopPercentOfDailyUnique)
{
    std::vector<Request> reqs;
    // Server 0: 800 unique blocks on day 0, 160 on day 1.
    for (uint64_t i = 0; i < 100; ++i)
        reqs.push_back(makeRequest(makeTime(0, 1, i), 0, i * 8, 8));
    for (uint64_t i = 0; i < 20; ++i)
        reqs.push_back(makeRequest(makeTime(1, 1, i), 0, i * 8, 8));
    // Server 1: 80 unique blocks on day 0 only.
    for (uint64_t i = 0; i < 10; ++i)
        reqs.push_back(makeRequest(makeTime(0, 2, i), 1, i * 8, 8));
    std::sort(reqs.begin(), reqs.end(), requestTimeLess);
    VectorTrace trace(std::move(reqs));

    const auto caps = sim::elasticTopPercentCapacities(trace, 2, 0.01);
    ASSERT_EQ(caps.size(), 2u);
    EXPECT_EQ(caps[0], 8u); // ceil(0.01 * 800)
    EXPECT_EQ(caps[1], 1u); // ceil(0.01 * 80)
}

TEST(PerServer, CombinedSumsMeasuredStorageColumns)
{
    // Two servers, two days: combined[d] is DailyReport::add over the
    // per-server day-d reports, and the measured storage columns must
    // sum exactly — no loss or double-count across servers or days.
    std::vector<Request> reqs = {
        makeRequest(makeTime(0, 1), 0, 0, 8),
        makeRequest(makeTime(0, 2), 1, 0, 8),
        makeRequest(makeTime(1, 1), 0, 64, 8),
        makeRequest(makeTime(1, 2), 1, 64, 8),
    };
    VectorTrace trace(std::move(reqs));
    const auto result = runPerServer(trace, config({64, 64}));
    ASSERT_EQ(result.per_server.size(), 2u);
    ASSERT_GE(result.combined.size(), 2u);
    uint64_t seen_ios = 0;
    for (size_t d = 0; d < result.combined.size(); ++d) {
        uint64_t read_ios = 0, write_ios = 0, read_errs = 0,
                 write_errs = 0, read_ns = 0, write_ns = 0;
        for (const auto &days : result.per_server) {
            if (d >= days.size())
                continue;
            read_ios += days[d].storage_read_ios;
            write_ios += days[d].storage_write_ios;
            read_errs += days[d].storage_read_errors;
            write_errs += days[d].storage_write_errors;
            read_ns += days[d].storage_read_ns;
            write_ns += days[d].storage_write_ns;
        }
        EXPECT_EQ(result.combined[d].storage_read_ios, read_ios);
        EXPECT_EQ(result.combined[d].storage_write_ios, write_ios);
        EXPECT_EQ(result.combined[d].storage_read_errors, read_errs);
        EXPECT_EQ(result.combined[d].storage_write_errors,
                  write_errs);
        EXPECT_EQ(result.combined[d].storage_read_ns, read_ns);
        EXPECT_EQ(result.combined[d].storage_write_ns, write_ns);
        seen_ios += read_ios + write_ios;
    }
    // The default AnalyticBackend was live on every server.
    EXPECT_GT(seen_ios, 0u);
}

} // namespace
