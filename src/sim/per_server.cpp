#include "sim/per_server.hpp"

#include <cmath>
#include <unordered_set>

#include "sim/batch.hpp"
#include "sim/replay.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace sim {

std::vector<std::unique_ptr<core::Appliance>>
makePerServerNodes(const PerServerConfig &config)
{
    const size_t n = config.capacities_blocks.size();
    if (n == 0)
        util::fatal("per-server simulation requires at least one server");

    std::vector<std::unique_ptr<core::Appliance>> appliances;
    appliances.reserve(n);
    for (size_t s = 0; s < n; ++s) {
        core::ApplianceConfig ac = config.base;
        ac.cache_blocks = std::max<uint64_t>(1,
                                             config.capacities_blocks[s]);
        PolicyConfig pc = config.policy;
        pc.seed += s; // decorrelate randomized policies across servers
        if (pc.adba_disk_log)
            pc.adba_log_dir += "/server" + std::to_string(s);
        appliances.push_back(makeAppliance(pc, ac));
    }
    return appliances;
}

PerServerResult
runPerServer(trace::TraceReader &reader, const PerServerConfig &config)
{
    const auto appliances = makePerServerNodes(config);
    const size_t n = appliances.size();
    ReplayOptions options;
    options.batch = config.batch;
    replay(reader, appliances, Route::byServer(), options);

    PerServerResult result;
    for (size_t s = 0; s < n; ++s) {
        const auto &days = appliances[s]->daily();
        result.per_server.push_back(days);
        result.total_capacity_blocks += config.capacities_blocks[s];
        if (days.size() > result.combined.size())
            result.combined.resize(days.size());
        for (size_t d = 0; d < days.size(); ++d)
            result.combined[d].add(days[d]);
    }
    return result;
}

std::vector<uint64_t>
elasticTopPercentCapacities(trace::TraceReader &reader, size_t servers,
                            double fraction)
{
    std::vector<uint64_t> best(servers, 0);
    std::vector<std::unordered_set<trace::BlockId>> uniq(servers);

    auto fold = [&]() {
        for (size_t s = 0; s < servers; ++s) {
            const uint64_t top = static_cast<uint64_t>(std::ceil(
                fraction * static_cast<double>(uniq[s].size())));
            best[s] = std::max(best[s], top);
            uniq[s].clear();
        }
    };

    pumpBatches(
        reader, trace::kDefaultBatchRequests,
        [&](std::span<const trace::Request> slice) {
            for (const trace::Request &req : slice) {
                if (req.server >= servers)
                    util::fatal(
                        "request from server %u but only %zu servers",
                        unsigned(req.server), servers);
                for (uint32_t i = 0; i < req.length_blocks; ++i)
                    uniq[req.server].insert(req.blockAt(i));
            }
        },
        [&](int) { fold(); });
    fold(); // the last day (a no-op on an empty trace)
    return best;
}

} // namespace sim
} // namespace sievestore
