/**
 * @file
 * The one replay driver.
 *
 * sim::replay streams a time-ordered trace into appliance nodes: a
 * closed Route picks each request's node, and ReplayOptions pick
 * inline replay or SPSC-fed worker threads. runTrace (one node, whole
 * route), runSharded / runShardedParallel (page route) and
 * runPerServer (server route) are node builds plus one replay call.
 * Pipeline: pumpBatches slices at day boundaries (sim/batch.hpp), the
 * route splits each slice, a RequestBatcher bins per node, and each
 * bin reaches its node as one processBatch or one queue item. Every
 * bin is flushed before a day boundary fires finishDay on every node,
 * so each node sees the same request / finishDay sequence — and gives
 * bit-identical reports — whatever the thread count or batch size.
 */

#ifndef SIEVESTORE_SIM_REPLAY_HPP
#define SIEVESTORE_SIM_REPLAY_HPP

#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "core/appliance.hpp"
#include "trace/trace_reader.hpp"
#include "util/check.hpp"

namespace sievestore {
namespace sim {

/** Default for ReplayOptions::check_invariants: the
 * SIEVE_CHECK_INVARIANTS environment variable when set (any value but
 * 0 enables), else whether SIEVE_DCHECK is compiled in. */
bool defaultCheckInvariants();

/** Requests per queue item of threaded replay: the hand-off batch is
 * ReplayOptions::batch clamped to it. */
inline constexpr size_t kQueueBatchRequests = 64;

/** The inline knobs of replay, and runTrace's options. */
struct DriverOptions
{
    /** Audit every node's checkInvariants() and the summed totals at
     * every day boundary and at end of trace. */
    bool check_invariants = defaultCheckInvariants();
    /** Requests per decode batch (sim/batch.hpp); never changes
     * results, and 1 is the per-request path. */
    size_t batch = trace::kDefaultBatchRequests;
};

/** The threading knobs of replay. */
struct ParallelOptions
{
    /** Worker threads; 0 replays inline. Clamped to the node count;
     * nodes go round-robin to workers, which multiplex their queues.
     * (runShardedParallel reads 0 as one per shard.) */
    size_t threads = 0;
    /** Requests buffered per node queue (at least 2 items, rounded
     * up to a power of two), so backpressure tracks requests whatever
     * the batch size. */
    size_t queue_depth = 4096;
    /** Lockstep mode: day barriers hold every node at the same epoch
     * boundary, so the cross-node audit sees a consistent cut. Reports
     * are bit-identical either way; free-running workers audit only
     * their own nodes at day ends. */
    bool deterministic = true;
};

/** Every replay knob. */
struct ReplayOptions : DriverOptions, ParallelOptions
{
};

/** How replay assigns each request to a node: a closed set. */
struct Route
{
    enum class Kind : uint8_t {
        Whole,    ///< every request, whole, to node 0
        ByPage,   ///< split into per-node runs by forEachSubrequest
        ByServer, ///< whole, to node req.server (fatal if out of range)
    };
    Kind kind = Kind::Whole;
    /** Page-hash seed (ByPage only). */
    uint64_t seed = 0;

    static constexpr Route whole() { return {Kind::Whole, 0}; }
    static constexpr Route byPage(uint64_t s) { return {Kind::ByPage, s}; }
    static constexpr Route byServer() { return {Kind::ByServer, 0}; }
};

/** Node index of a block under Route::byPage (stable page hash). */
size_t shardOf(trace::BlockId block, size_t shards, uint64_t seed);

/**
 * Split one request into per-shard subrequests — maximal runs of
 * consecutive blocks mapping to the same shard — and invoke
 * fn(shard, subrequest) for each run in block order. Latency is
 * inherited; each subrequest keeps its own interpolation span.
 * Zero-length requests produce no subrequests.
 */
template <typename Fn>
void
forEachSubrequest(const trace::Request &req, size_t shards,
                  uint64_t seed, Fn &&fn)
{
    if (req.length_blocks == 0)
        return;
    uint32_t run_start = 0;
    size_t run_shard = shardOf(req.blockAt(0), shards, seed);
    for (uint32_t i = 1; i <= req.length_blocks; ++i) {
        const size_t shard =
            i < req.length_blocks
                ? shardOf(req.blockAt(i), shards, seed)
                : SIZE_MAX;
        if (shard == run_shard)
            continue;
        trace::Request sub = req;
        sub.offset_blocks = req.offset_blocks + run_start;
        sub.length_blocks = i - run_start;
        fn(run_shard, sub);
        run_start = i;
        run_shard = shard;
    }
}

/** The replay audit over any range of Appliance pointers: every
 * node's own invariants and consistent summed totals. Aborts on
 * violation. */
template <typename Nodes>
void
checkNodeInvariants(const Nodes &nodes)
{
    SIEVE_CHECK(!std::empty(nodes), "replay has no nodes");
    core::DailyReport sum;
    for (const auto &node : nodes) {
        SIEVE_CHECK(node != nullptr);
        node->checkInvariants();
        sum.add(node->totals());
    }
    SIEVE_CHECK(sum.hits <= sum.accesses);
    SIEVE_CHECK(sum.read_hits + sum.write_hits == sum.hits);
}

/**
 * Replay a whole trace into `nodes` (not owned): finishDay() on every
 * node for every crossed day boundary (empty days included),
 * finishTrace() at the end, and the audit at both when
 * options.check_invariants. Worker threads are joined before return,
 * also when the trace or the route raises FatalError. An exception
 * raised inside a node on a worker (processBatch, finishDay,
 * finishTrace — e.g. a backend or access-log write failure) stops the
 * replay and is rethrown on the calling thread after the join, as it
 * is inline (threads == 0).
 */
void replay(trace::TraceReader &reader,
            std::span<core::Appliance *const> nodes, Route route,
            const ReplayOptions &options);

/** replay() over owned nodes. */
void replay(trace::TraceReader &reader,
            const std::vector<std::unique_ptr<core::Appliance>> &nodes,
            Route route, const ReplayOptions &options);

} // namespace sim
} // namespace sievestore

#endif // SIEVESTORE_SIM_REPLAY_HPP
