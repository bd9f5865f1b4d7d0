/**
 * @file
 * Differential tests for the parallel sharded replay engine.
 *
 * The whole value of runShardedParallel rests on one claim: for every
 * configuration, every node's per-day accounting is *bit-identical*
 * to what the serial runSharded produces — a silent counter
 * divergence in a parallel driver would be a wrong paper claim, not
 * a crash. These tests sweep the policy roster × shard counts ×
 * generator seeds and compare every field of every DailyReport, plus
 * the summed totals, between the two drivers. Threading knobs
 * (fewer workers than shards, tiny queues forcing backpressure,
 * free-running mode) must not change a single bit either.
 */

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/alloc_policy.hpp"
#include "sim/driver.hpp"
#include "sim/sharded.hpp"
#include "trace/synthetic.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using namespace sievestore::sim;
using namespace sievestore::trace;
using core::DailyReport;
using sievestore::util::FatalError;
using sievestore::util::makeTime;

/** Field-for-field equality of one day's report. */
void
expectReportEq(const DailyReport &serial, const DailyReport &parallel,
               const std::string &where)
{
    EXPECT_EQ(serial.accesses, parallel.accesses) << where;
    EXPECT_EQ(serial.read_accesses, parallel.read_accesses) << where;
    EXPECT_EQ(serial.hits, parallel.hits) << where;
    EXPECT_EQ(serial.read_hits, parallel.read_hits) << where;
    EXPECT_EQ(serial.write_hits, parallel.write_hits) << where;
    EXPECT_EQ(serial.allocation_write_blocks,
              parallel.allocation_write_blocks)
        << where;
    EXPECT_EQ(serial.batch_moved_blocks, parallel.batch_moved_blocks)
        << where;
    EXPECT_EQ(serial.ssd_read_ios, parallel.ssd_read_ios) << where;
    EXPECT_EQ(serial.ssd_write_ios, parallel.ssd_write_ios) << where;
    EXPECT_EQ(serial.ssd_alloc_ios, parallel.ssd_alloc_ios) << where;
    EXPECT_EQ(serial.tune_t1, parallel.tune_t1) << where;
    EXPECT_EQ(serial.tune_t2, parallel.tune_t2) << where;
    EXPECT_EQ(serial.tune_switches, parallel.tune_switches) << where;
}

/**
 * Run both drivers over the same trace and require bit-identical
 * per-node day-by-day reports and summed totals.
 */
void
expectBitIdentical(TraceReader &reader, const ShardedConfig &config,
                   const std::string &label)
{
    reader.reset();
    const ShardedResult serial = runSharded(reader, config);
    reader.reset();
    const ShardedResult parallel = runShardedParallel(reader, config);
    reader.reset();

    ASSERT_EQ(serial.nodes.size(), parallel.nodes.size()) << label;
    ASSERT_FALSE(serial.nodes.empty()) << label;
    const std::string where =
        std::string(serial.nodes.front()->policyName()) + " x " + label;
    for (size_t s = 0; s < serial.nodes.size(); ++s) {
        const auto &sd = serial.nodes[s]->daily();
        const auto &pd = parallel.nodes[s]->daily();
        ASSERT_EQ(sd.size(), pd.size())
            << where << " shard " << s << " day count";
        for (size_t d = 0; d < sd.size(); ++d)
            expectReportEq(sd[d], pd[d],
                           where + " shard " + std::to_string(s) +
                               " day " + std::to_string(d));
    }
    expectReportEq(serial.totals(), parallel.totals(),
                   where + " totals");
}

SyntheticEnsembleGenerator
makeGenerator(uint64_t seed, double inv_scale)
{
    SyntheticConfig scfg;
    scfg.seed = seed;
    scfg.scale = 1.0 / inv_scale;
    return SyntheticEnsembleGenerator::paper(
        EnsembleConfig::paperEnsemble(), scfg);
}

ShardedConfig
makeConfig(PolicyKind kind, size_t shards)
{
    ShardedConfig cfg;
    cfg.shards = shards;
    cfg.policy.kind = kind;
    cfg.policy.sieve_c.imct_slots = 1 << 12;
    cfg.node.cache_blocks = 2048 / shards + 64;
    cfg.node.track_occupancy = false;
    return cfg;
}

/**
 * The headline sweep: every continuous/discrete policy of the paper's
 * roster × {1, 2, 4, 7} shards × 3 generator seeds.
 */
TEST(ParallelReplay, DifferentialSweepMatchesSerialBitForBit)
{
    const PolicyKind kinds[] = {
        PolicyKind::AOD, PolicyKind::WMNA, PolicyKind::SieveStoreC,
        PolicyKind::SieveStoreD, PolicyKind::RandSieveC};
    const size_t shard_counts[] = {1, 2, 4, 7};
    const uint64_t seeds[] = {0x51e5e5704eULL, 1234567ULL,
                              0xdecafULL};

    for (const uint64_t seed : seeds) {
        auto gen = makeGenerator(seed, 131072.0);
        for (const PolicyKind kind : kinds) {
            for (const size_t shards : shard_counts) {
                const std::string label =
                    std::to_string(shards) + " shards, seed " +
                    std::to_string(seed);
                expectBitIdentical(gen, makeConfig(kind, shards),
                                   label);
            }
        }
    }
}

TEST(ParallelReplay, FewerThreadsThanShardsIsStillIdentical)
{
    auto gen = makeGenerator(99, 65536.0);
    ShardedConfig cfg = makeConfig(PolicyKind::SieveStoreC, 7);
    cfg.parallel.threads = 2; // each worker multiplexes 3-4 queues
    expectBitIdentical(gen, cfg, "7 shards on 2 workers");
    cfg.parallel.threads = 3;
    expectBitIdentical(gen, cfg, "7 shards on 3 workers");
}

TEST(ParallelReplay, TinyQueuesForceBackpressureNotDivergence)
{
    auto gen = makeGenerator(7, 65536.0);
    ShardedConfig cfg = makeConfig(PolicyKind::SieveStoreD, 4);
    cfg.parallel.queue_depth = 2; // constant full-queue stalls
    expectBitIdentical(gen, cfg, "queue_depth=2");
}

TEST(ParallelReplay, FreeRunningModeIsAlsoIdentical)
{
    // Counters cannot depend on the day barrier: shards share no
    // block state, so lockstep is an observability feature only.
    auto gen = makeGenerator(11, 65536.0);
    ShardedConfig cfg = makeConfig(PolicyKind::SieveStoreC, 4);
    cfg.parallel.deterministic = false;
    expectBitIdentical(gen, cfg, "free-running");
}

TEST(ParallelReplay, OversubscribedThreadCountIsClamped)
{
    auto gen = makeGenerator(23, 131072.0);
    ShardedConfig cfg = makeConfig(PolicyKind::AOD, 2);
    cfg.parallel.threads = 64; // clamped to the shard count
    expectBitIdentical(gen, cfg, "threads=64, shards=2");
}

TEST(ParallelReplay, EmptyTraceFinishesCleanly)
{
    VectorTrace empty{std::vector<Request>{}};
    const auto result =
        runShardedParallel(empty, makeConfig(PolicyKind::AOD, 4));
    ASSERT_EQ(result.nodes.size(), 4u);
    EXPECT_EQ(result.totals().accesses, 0u);
    for (const auto &node : result.nodes)
        EXPECT_EQ(node->lastFinishedDay(), INT_MIN);
}

TEST(ParallelReplay, MultiDayGapFiresEveryBoundaryOnEveryShard)
{
    // One request on day 0, one on day 3: days 0-2 must be closed on
    // every shard (idle shards still run their epoch boundaries).
    std::vector<Request> reqs;
    Request r;
    r.volume = 0;
    r.server = 0;
    r.op = Op::Read;
    r.latency_us = 1000;
    r.time = makeTime(0, 12);
    r.offset_blocks = 0;
    r.length_blocks = 8;
    reqs.push_back(r);
    r.time = makeTime(3, 12);
    r.offset_blocks = 64;
    reqs.push_back(r);
    VectorTrace tracev(reqs);

    ShardedConfig cfg = makeConfig(PolicyKind::SieveStoreD, 3);
    expectBitIdentical(tracev, cfg, "3-day gap");

    tracev.reset();
    const auto result = runShardedParallel(tracev, cfg);
    for (const auto &node : result.nodes)
        EXPECT_EQ(node->lastFinishedDay(), 2);
}

TEST(ParallelReplay, BatchSizeSweepIsBitIdentical)
{
    // The decode/hand-off batch size is a pure performance knob: the
    // serial golden at batch=1 pins every other batch size, including
    // sizes above the per-item cap (spanning several queue items) and
    // sizes that leave most of each item unused.
    auto gen = makeGenerator(47, 65536.0);
    ShardedConfig golden_cfg = makeConfig(PolicyKind::SieveStoreC, 4);
    golden_cfg.batch = 1;
    gen.reset();
    const ShardedResult golden = runSharded(gen, golden_cfg);

    for (const size_t batch :
         {size_t(1), size_t(8), kQueueBatchRequests,
          4 * kQueueBatchRequests}) {
        ShardedConfig cfg = golden_cfg;
        cfg.batch = batch;
        gen.reset();
        const ShardedResult parallel = runShardedParallel(gen, cfg);
        const std::string label = "batch=" + std::to_string(batch);
        ASSERT_EQ(golden.nodes.size(), parallel.nodes.size()) << label;
        for (size_t s = 0; s < golden.nodes.size(); ++s) {
            const auto &gd = golden.nodes[s]->daily();
            const auto &pd = parallel.nodes[s]->daily();
            ASSERT_EQ(gd.size(), pd.size()) << label << " shard " << s;
            for (size_t d = 0; d < gd.size(); ++d)
                expectReportEq(gd[d], pd[d],
                               label + " shard " + std::to_string(s) +
                                   " day " + std::to_string(d));
        }
        expectReportEq(golden.totals(), parallel.totals(),
                       label + " totals");
    }
}

TEST(ParallelReplay, WholeRouteOnOneWorkerMatchesRunTrace)
{
    // sim::replay of the whole route with threads = 1: the caller
    // decodes, one worker drives the appliance. Continuous and
    // epoch-batched policies alike must match the inline runTrace
    // field for field, day by day.
    auto gen = makeGenerator(0x1a2b, 65536.0);
    for (const PolicyKind kind :
         {PolicyKind::SieveStoreC, PolicyKind::SieveStoreD}) {
        PolicyConfig policy;
        policy.kind = kind;
        policy.sieve_c.imct_slots = 1 << 12;
        core::ApplianceConfig node;
        node.cache_blocks = 2048;
        node.track_occupancy = false;

        auto inline_app = makeAppliance(policy, node);
        gen.reset();
        runTrace(gen, *inline_app);

        ReplayOptions options;
        options.threads = 1;
        std::vector<std::unique_ptr<core::Appliance>> worker;
        worker.push_back(makeAppliance(policy, node));
        gen.reset();
        replay(gen, worker, Route::whole(), options);
        const auto &worker_app = worker.front();

        const auto &id = inline_app->daily();
        const auto &wd = worker_app->daily();
        const std::string where = inline_app->policyName();
        ASSERT_EQ(id.size(), wd.size()) << where;
        for (size_t d = 0; d < id.size(); ++d)
            expectReportEq(id[d], wd[d],
                           where + " day " + std::to_string(d));
        EXPECT_EQ(inline_app->lastFinishedDay(),
                  worker_app->lastFinishedDay())
            << where;
    }
}

/**
 * Bypasses every miss and fails its first day close, as a node whose
 * backend or access-log write fails would.
 */
class FatalAtDayClosePolicy : public core::AllocationPolicy
{
  public:
    core::AllocDecision
    onMiss(const BlockAccess &access) override
    {
        (void)access;
        return core::AllocDecision::Bypass;
    }

    std::optional<std::vector<BlockId>>
    onDayClose(int day) override
    {
        util::fatal("node failed to close day %d", day);
    }

    const char *name() const override { return "fatal-at-day-close"; }
};

/** Expect `fn` to raise the failing node's own FatalError. */
template <typename Fn>
void
expectNodeFatal(Fn &&fn, const std::string &where)
{
    try {
        fn();
        ADD_FAILURE() << where << ": replay returned";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("failed to close day 0"),
                  std::string::npos)
            << where << ": " << e.what();
    }
}

TEST(ParallelReplay, WorkerFatalReachesTheCaller)
{
    // Node 0 fails its first day close while nodes 1 and 2 are
    // healthy. On workers, the failure must reach the caller as the
    // node's own FatalError, whether the other worker is parked at the
    // day barrier or running free, and whether the reader is blocked
    // on a full queue (queue_depth 2) or not.
    auto gen = makeGenerator(0xfa7a1, 65536.0);
    PolicyConfig healthy;
    healthy.kind = PolicyKind::AOD;
    core::ApplianceConfig node;
    node.cache_blocks = 512;
    node.track_occupancy = false;
    for (const size_t threads : {size_t(0), size_t(1), size_t(2)}) {
        for (const bool deterministic : {true, false}) {
            for (const size_t queue_depth : {size_t(2), size_t(1) << 12}) {
                std::vector<std::unique_ptr<core::Appliance>> nodes;
                nodes.push_back(std::make_unique<core::Appliance>(
                    node, std::make_unique<FatalAtDayClosePolicy>()));
                for (int i = 0; i < 2; ++i)
                    nodes.push_back(makeAppliance(healthy, node));
                ReplayOptions options;
                options.threads = threads;
                options.deterministic = deterministic;
                options.queue_depth = queue_depth;
                options.batch = 16;
                gen.reset();
                expectNodeFatal(
                    [&] { replay(gen, nodes, Route::byPage(0), options); },
                    "threads " + std::to_string(threads) +
                        (deterministic ? " lockstep" : " free") +
                        " queue " + std::to_string(queue_depth));
            }
        }
    }
    // The whole route on one worker: nobody else drains or waits.
    ReplayOptions one;
    one.threads = 1;
    std::vector<std::unique_ptr<core::Appliance>> single;
    single.push_back(std::make_unique<core::Appliance>(
        node, std::make_unique<FatalAtDayClosePolicy>()));
    gen.reset();
    expectNodeFatal([&] { replay(gen, single, Route::whole(), one); },
                    "whole route, threads 1");
}

TEST(ParallelReplay, RejectsBadConfig)
{
    VectorTrace empty{std::vector<Request>{}};
    ShardedConfig zero = makeConfig(PolicyKind::AOD, 1);
    zero.shards = 0;
    EXPECT_THROW(runShardedParallel(empty, zero), FatalError);
    ShardedConfig oracle = makeConfig(PolicyKind::AOD, 2);
    oracle.policy.kind = PolicyKind::Ideal;
    EXPECT_THROW(runShardedParallel(empty, oracle), FatalError);
    ShardedConfig no_queue = makeConfig(PolicyKind::AOD, 2);
    no_queue.parallel.queue_depth = 0;
    EXPECT_THROW(runShardedParallel(empty, no_queue), FatalError);
}

/**
 * The adaptive sieve through runShardedParallel: each shard
 * carries its own shadow candidates and ghost caches, day closes
 * switch thresholds per shard, and the parallel batch=64 replay must
 * reproduce the serial batch=1 tuning trajectory (tune_* columns
 * included) bit for bit.
 */
TEST(ParallelReplay, AdaptiveSieveShardedParallelMatchesSerial)
{
    SyntheticConfig scfg;
    scfg.seed = 0xada;
    scfg.scale = 1.0 / 131072.0;
    auto gen = SyntheticEnsembleGenerator::paper(
        EnsembleConfig::paperEnsemble(), scfg);

    ShardedConfig cfg;
    cfg.shards = 4;
    cfg.policy.kind = PolicyKind::Adaptive;
    cfg.policy.sieve_c.imct_slots = 1 << 12;
    cfg.policy.sieve_c.t1 = 4;
    cfg.policy.sieve_c.t2 = 2;
    cfg.policy.adaptive.imct_slots = 1 << 10;
    cfg.policy.adaptive.ghost_budget = 512;
    cfg.node.cache_blocks = 2048 / cfg.shards + 64;
    cfg.node.track_occupancy = false;

    ShardedConfig serial_cfg = cfg;
    serial_cfg.batch = 1;
    gen.reset();
    const ShardedResult serial = runSharded(gen, serial_cfg);

    ShardedConfig parallel_cfg = cfg;
    parallel_cfg.batch = 64;
    gen.reset();
    const ShardedResult parallel =
        runShardedParallel(gen, parallel_cfg);

    ASSERT_EQ(serial.nodes.size(), parallel.nodes.size());
    bool any_tuning = false;
    for (size_t s = 0; s < serial.nodes.size(); ++s) {
        const auto &sd = serial.nodes[s]->daily();
        const auto &pd = parallel.nodes[s]->daily();
        ASSERT_EQ(sd.size(), pd.size()) << "shard " << s;
        for (size_t d = 0; d < sd.size(); ++d) {
            expectReportEq(sd[d], pd[d],
                           "adaptive shard " + std::to_string(s) +
                               " day " + std::to_string(d));
            any_tuning = any_tuning || sd[d].tune_t1 != 0;
        }
        serial.nodes[s]->checkInvariants();
        parallel.nodes[s]->checkInvariants();
    }
    EXPECT_TRUE(any_tuning)
        << "no shard ever reported its tuned thresholds";
    expectReportEq(serial.totals(), parallel.totals(),
                   "adaptive totals");
}

} // namespace
