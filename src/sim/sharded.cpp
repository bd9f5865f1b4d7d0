#include "sim/sharded.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace sievestore {
namespace sim {

core::DailyReport
ShardedResult::totals() const
{
    core::DailyReport sum;
    for (const auto &node : nodes)
        sum.add(node->totals());
    return sum;
}

uint32_t
ShardedResult::maxDrivesAtCoverage(double coverage) const
{
    uint32_t worst = 0;
    for (const auto &node : nodes) {
        const auto *occ = node->occupancy();
        if (occ)
            worst = std::max(worst, occ->drivesForCoverage(coverage));
    }
    return worst;
}

double
ShardedResult::loadImbalance() const
{
    if (nodes.empty())
        return 0.0;
    uint64_t max_accesses = 0, total = 0;
    for (const auto &node : nodes) {
        const uint64_t a = node->totals().accesses;
        max_accesses = std::max(max_accesses, a);
        total += a;
    }
    if (total == 0)
        return 1.0;
    const double mean =
        static_cast<double>(total) / static_cast<double>(nodes.size());
    return static_cast<double>(max_accesses) / mean;
}

void
ShardedResult::checkInvariants() const
{
    checkNodeInvariants(nodes);
}

std::vector<std::unique_ptr<core::Appliance>>
makeShardNodes(const ShardedConfig &config)
{
    if (config.shards == 0)
        util::fatal("sharded deployment requires at least one node");
    if (config.policy.kind == PolicyKind::Ideal)
        util::fatal("sharded runs do not support the oracle policy");

    std::vector<std::unique_ptr<core::Appliance>> nodes;
    nodes.reserve(config.shards);
    for (size_t s = 0; s < config.shards; ++s) {
        PolicyConfig pc = config.policy;
        pc.seed += s;
        pc.sieve_c.seed += s; // decorrelate the nodes' IMCTs
        if (pc.adba_disk_log)
            pc.adba_log_dir += "/shard" + std::to_string(s);
        nodes.push_back(makeAppliance(pc, config.node));
    }
    return nodes;
}

namespace {

/** Build the shard nodes and replay them on `threads` workers. */
ShardedResult
replayShards(trace::TraceReader &reader, const ShardedConfig &config,
             size_t threads)
{
    ShardedResult result{makeShardNodes(config)};
    ReplayOptions options;
    static_cast<ParallelOptions &>(options) = config.parallel;
    options.threads = threads;
    options.batch = config.batch;
    replay(reader, result.nodes, Route::byPage(config.seed), options);
    return result;
}

} // namespace

ShardedResult
runSharded(trace::TraceReader &reader, const ShardedConfig &config)
{
    return replayShards(reader, config, 0);
}

ShardedResult
runShardedParallel(trace::TraceReader &reader,
                   const ShardedConfig &config)
{
    return replayShards(reader, config,
                        config.parallel.threads == 0
                            ? config.shards
                            : config.parallel.threads);
}

} // namespace sim
} // namespace sievestore
