#include "sim/experiment.hpp"

#include "analysis/popularity.hpp"
#include "core/discrete.hpp"
#include "core/rand_sieve.hpp"
#include "core/unsieved.hpp"
#include "sim/batch.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace sievestore {
namespace sim {

std::unique_ptr<core::Appliance>
makeAppliance(const PolicyConfig &policy,
              const core::ApplianceConfig &appliance)
{
    using core::Appliance;
    switch (policy.kind) {
      case PolicyKind::Ideal:
        util::fatal("PolicyKind::Ideal requires a profiling pass; "
                    "use makeIdealAppliance()");
      case PolicyKind::SieveStoreD:
        return std::make_unique<Appliance>(
            appliance, policy.adba_disk_log
                           ? std::make_unique<core::AdbaSelector>(
                                 policy.adba_threshold,
                                 policy.adba_log_dir)
                           : std::make_unique<core::AdbaSelector>(
                                 policy.adba_threshold));
      case PolicyKind::SieveStoreC:
        return std::make_unique<Appliance>(
            appliance,
            std::make_unique<core::SieveStoreCPolicy>(policy.sieve_c));
      case PolicyKind::RandSieveBlkD:
        return std::make_unique<Appliance>(
            appliance, std::make_unique<core::RandomBlockSelector>(
                           policy.rand_fraction, policy.seed));
      case PolicyKind::RandSieveC:
        return std::make_unique<Appliance>(
            appliance, std::make_unique<core::RandSieveCPolicy>(
                           policy.rand_fraction, policy.seed));
      case PolicyKind::AOD:
        return std::make_unique<Appliance>(
            appliance, std::make_unique<core::AodPolicy>());
      case PolicyKind::WMNA:
        return std::make_unique<Appliance>(
            appliance, std::make_unique<core::WmnaPolicy>());
      case PolicyKind::Adaptive: {
        core::AdaptiveSieveConfig adaptive = policy.adaptive;
        adaptive.base = policy.sieve_c;
        return std::make_unique<Appliance>(
            appliance,
            std::make_unique<core::AdaptiveSievePolicy>(adaptive));
      }
    }
    util::panic("unknown policy kind");
}

std::vector<std::vector<trace::BlockId>>
perDayTopBlocks(trace::TraceReader &reader, double fraction)
{
    reader.reset();
    std::vector<std::vector<trace::BlockId>> sets;
    analysis::BlockCounts counts;
    int current_day = -1;

    auto fold = [&](int day) {
        if (sets.size() <= static_cast<size_t>(day))
            sets.resize(static_cast<size_t>(day) + 1);
        analysis::PopularityProfile profile(counts, 1);
        sets[static_cast<size_t>(day)] = profile.topBlocks(fraction);
        counts.clear();
    };

    pumpBatches(
        reader, trace::kDefaultBatchRequests,
        [&](std::span<const trace::Request> slice) {
            current_day = static_cast<int>(util::dayOf(slice[0].time));
            for (const trace::Request &req : slice)
                for (uint32_t i = 0; i < req.length_blocks; ++i)
                    ++counts[req.blockAt(i)];
        },
        fold);
    if (current_day >= 0)
        fold(current_day);
    reader.reset();
    return sets;
}

std::unique_ptr<core::Appliance>
makeIdealAppliance(trace::TraceReader &reader, const PolicyConfig &policy,
                   const core::ApplianceConfig &appliance)
{
    (void)policy; // the oracle has no tunables
    auto sets = perDayTopBlocks(reader, kIdealFraction);
    // The first day with a non-empty top set is preloaded; every later
    // day's set is installed by the oracle's onDayClose.
    int first_day = -1;
    for (size_t d = 0; d < sets.size(); ++d) {
        if (!sets[d].empty()) {
            first_day = static_cast<int>(d);
            break;
        }
    }
    auto first_set = first_day >= 0
                         ? sets[static_cast<size_t>(first_day)]
                         : std::vector<trace::BlockId>{};
    auto app = std::make_unique<core::Appliance>(
        appliance,
        std::make_unique<core::OracleDaySelector>(std::move(sets)));
    if (first_day >= 0)
        app->preload(first_set, first_day);
    return app;
}

CostSummary
summarizeCost(const core::Appliance &appliance, double trace_days)
{
    CostSummary cost;
    const auto *occ = appliance.occupancy();
    if (!occ)
        return cost;
    cost.max_drives = occ->maxDrives();
    cost.drives_999 = occ->drivesForCoverage(0.999);
    cost.drives_99 = occ->drivesForCoverage(0.99);
    cost.drives_90 = occ->drivesForCoverage(0.90);
    cost.coverage_one_drive = occ->coverageWithDrives(1);
    cost.endurance_years =
        ssd::enduranceYears(occ->model(), occ->bytesWritten(), trace_days);
    return cost;
}

} // namespace sim
} // namespace sievestore
