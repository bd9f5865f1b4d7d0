/**
 * @file
 * Sharded SieveStore (the paper's Section 7 "scaling" direction).
 *
 * One appliance node ultimately saturates: the paper shows a single
 * enterprise SSD absorbs the 13-server ensemble, but a larger ensemble
 * (or a faster one) needs more nodes. The natural scale-out keeps the
 * ensemble-level sharing property by hash-partitioning the *block
 * space* — not the servers — across N appliance nodes: every node
 * still sees a uniform slice of every server's hot set, so capacity is
 * never stranded the way a per-server split strands it (observation
 * O2), while request traffic and metastate divide ~evenly.
 *
 * Requests are split at 4 KB page granularity (a page never straddles
 * nodes, so page-coalesced SSD I/O accounting is preserved): both
 * drivers here are sim::replay (sim/replay.hpp) over the shard nodes
 * with Route::byPage, inline or on worker threads.
 */

#ifndef SIEVESTORE_SIM_SHARDED_HPP
#define SIEVESTORE_SIM_SHARDED_HPP

#include <memory>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/replay.hpp"
#include "trace/trace_reader.hpp"

namespace sievestore {
namespace sim {

/** Configuration for a sharded deployment. */
struct ShardedConfig
{
    /** Number of appliance nodes (>= 1). */
    size_t shards = 2;
    /** Per-node policy (instantiated independently per node). */
    PolicyConfig policy;
    /**
     * Per-node appliance template. cache_blocks and the SSD model are
     * per *node*: a 2-shard deployment with 8 GB nodes has 16 GB total.
     */
    core::ApplianceConfig node;
    /** Hash seed for the page -> shard mapping. */
    uint64_t seed = 0;
    /** ReplayOptions::batch of both drivers. */
    size_t batch = trace::kDefaultBatchRequests;
    /** The threading knobs (read by runShardedParallel only, where
     * threads == 0 means one worker per shard). */
    ParallelOptions parallel;
};

/** Outcome of a sharded run. */
struct ShardedResult
{
    /** One appliance per node, in shard order. */
    std::vector<std::unique_ptr<core::Appliance>> nodes;

    /** Reports summed across nodes. */
    core::DailyReport totals() const;
    /** Largest per-node drives-needed at the given coverage. */
    uint32_t maxDrivesAtCoverage(double coverage) const;
    /** Worst-case spread: max node accesses / mean node accesses. */
    double loadImbalance() const;

    /** The replay audit (checkNodeInvariants) over the nodes. */
    void checkInvariants() const;
};

/**
 * Instantiate the per-node appliances for a sharded deployment
 * (decorrelated seeds, per-shard ADBA log directories). Shared by the
 * serial and parallel drivers so both replay against identical nodes.
 * Throws FatalError on zero shards or the oracle policy.
 */
std::vector<std::unique_ptr<core::Appliance>>
makeShardNodes(const ShardedConfig &config);

/**
 * Replay a trace through a sharded deployment, inline. Requests are
 * split into per-shard subrequests at page granularity
 * (forEachSubrequest); day boundaries fire on every node.
 */
ShardedResult runSharded(trace::TraceReader &reader,
                         const ShardedConfig &config);

/**
 * runSharded on worker threads: the caller decodes and routes into
 * bounded SPSC queues while ParallelOptions::threads workers (0 = one
 * per shard) drive the shard nodes. Every node consumes exactly the
 * subrequest/day-marker stream runSharded would feed it, so the
 * per-node DailyReports are bit-identical to runSharded's (the
 * differential tests assert this field-for-field).
 */
ShardedResult runShardedParallel(trace::TraceReader &reader,
                                 const ShardedConfig &config);

} // namespace sim
} // namespace sievestore

#endif // SIEVESTORE_SIM_SHARDED_HPP
