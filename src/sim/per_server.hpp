/**
 * @file
 * Per-server caching configurations (Section 5.3, quadrants III/IV).
 *
 * The paper compares SieveStore's ensemble-level cache against idealized
 * per-server caching: (a) an iso-capacity configuration under an
 * "elastic SSD" assumption, where each server's private cache is sized
 * to exactly hold the top 1 % of its own accessed blocks, and (b)
 * fixed-size private SSDs per server. Because the hot set migrates
 * across servers (O2), static partitions strand capacity on servers
 * with few hot blocks; these simulators quantify that.
 *
 * runPerServer is sim::replay (sim/replay.hpp) over one private
 * appliance per server with Route::byServer; sim::replay over
 * makePerServerNodes runs the same replay on worker threads.
 */

#ifndef SIEVESTORE_SIM_PER_SERVER_HPP
#define SIEVESTORE_SIM_PER_SERVER_HPP

#include <memory>
#include <vector>

#include "sim/experiment.hpp"
#include "trace/trace_reader.hpp"

namespace sievestore {
namespace sim {

/** Configuration for a per-server caching simulation. */
struct PerServerConfig
{
    /** Private cache capacity per server, in 512-byte blocks. */
    std::vector<uint64_t> capacities_blocks;
    /** Allocation policy instantiated independently per server. */
    PolicyConfig policy;
    /** Appliance template (cache_blocks is overridden per server). */
    core::ApplianceConfig base;
    /** Requests per replay batch (see sim/batch.hpp); results are
     * independent of this value. */
    size_t batch = trace::kDefaultBatchRequests;
};

/** Outcome of a per-server simulation. */
struct PerServerResult
{
    /** Daily reports per server ([server][day]). */
    std::vector<std::vector<core::DailyReport>> per_server;
    /** Reports summed across servers, by day. */
    std::vector<core::DailyReport> combined;
    /** Sum of private capacities, in blocks. */
    uint64_t total_capacity_blocks = 0;
};

/**
 * Instantiate one private appliance per server (cache_blocks from
 * capacities_blocks, decorrelated seeds, per-server ADBA log
 * directories). runPerServer replays these inline; sim::replay with
 * Route::byServer() runs the same nodes on worker threads. Throws
 * FatalError on zero capacities.
 */
std::vector<std::unique_ptr<core::Appliance>>
makePerServerNodes(const PerServerConfig &config);

/**
 * Replay a trace inline through makePerServerNodes(config). Day
 * boundaries fire on every appliance (a server idle across a boundary
 * still advances its epoch). Throws FatalError on zero capacities or
 * a request whose server has no capacity.
 */
PerServerResult runPerServer(trace::TraceReader &reader,
                             const PerServerConfig &config);

/**
 * Profiling pass for the elastic iso-capacity configuration: for each
 * server, the maximum over days of ceil(fraction x that day's unique
 * blocks) — the smallest private cache that could hold the server's
 * daily top-fraction set every day. Days are sliced by pumpBatches, so
 * a trace that is not time-ordered is fatal.
 */
std::vector<uint64_t>
elasticTopPercentCapacities(trace::TraceReader &reader, size_t servers,
                            double fraction = 0.01);

} // namespace sim
} // namespace sievestore

#endif // SIEVESTORE_SIM_PER_SERVER_HPP
