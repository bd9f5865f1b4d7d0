/**
 * @file
 * Epoch-batched (discrete) sieve policies (Section 3.2).
 *
 * SieveStore-D performs no online allocation: every access is observed
 * (logged), and at each epoch boundary the policy returns the block
 * set to batch-allocate for the next epoch. The paper's variant selects
 * by access count (ADBA: access-count based discrete batch-allocation,
 * threshold 10/day); the evaluation also uses a randomized selector
 * (RandSieve-BlkD) and the per-day oracle (top 1 % of blocks).
 *
 * All three are AllocationPolicy subclasses: onMiss and onHit count the
 * access (onMiss always answers Bypass), prefetchMiss and prefetchHit
 * pull the counter slot toward L1, and onDayClose returns the epoch
 * set, which Appliance::finishDay installs with cancellation of
 * retained blocks.
 * Counting runs inside the appliance's batch no-alloc region; the
 * counter's table growth and the access log's buffer growth, spill and
 * compaction exempt themselves.
 */

#ifndef SIEVESTORE_CORE_DISCRETE_HPP
#define SIEVESTORE_CORE_DISCRETE_HPP

#include <memory>
#include <string>
#include <vector>

#include "analysis/access_counter.hpp"
#include "analysis/access_log.hpp"
#include "core/alloc_policy.hpp"
#include "trace/request.hpp"
#include "util/random.hpp"

namespace sievestore {
namespace core {

/**
 * SieveStore-D's ADBA selector: blocks whose epoch access count meets
 * the threshold (paper: 10). Counting backend is either the
 * map-reduce-style on-disk AccessLog — the mechanism the paper
 * describes, with metastate never on the access critical path — or an
 * in-memory counter for fast simulation sweeps.
 */
class AdbaSelector : public AllocationPolicy
{
  public:
    /** In-memory counting backend. */
    explicit AdbaSelector(uint64_t threshold = 10);

    /** Disk-backed counting backend (the paper's log + reduce). */
    AdbaSelector(uint64_t threshold, const std::string &log_directory,
                 analysis::AccessLogConfig log_config = {});

    AllocDecision onMiss(const trace::BlockAccess &access) override;
    void onHit(const trace::BlockAccess &access) override;
    void prefetchMiss(trace::BlockId block) const override;
    void
    prefetchHit(trace::BlockId block) const override
    {
        AdbaSelector::prefetchMiss(block);
    }
    std::optional<std::vector<trace::BlockId>>
    onDayClose(int day) override;
    const char *name() const override { return "SieveStore-D"; }
    uint64_t metastateBytes() const override;
    void checkInvariants() const override;

    uint64_t threshold() const { return threshold_; }

  private:
    /** Count one access in the active backend. */
    void countAccess(trace::BlockId block);

    uint64_t threshold_;
    std::unique_ptr<analysis::AccessLog> disk_log;
    /** In-memory backend: flat per-block epoch counts. */
    analysis::AccessCounter mem_counts;
};

/** RandSieve-BlkD: a uniformly random 1 % of the epoch's blocks. */
class RandomBlockSelector : public AllocationPolicy
{
  public:
    explicit RandomBlockSelector(double fraction = 0.01,
                                 uint64_t seed = 11);

    AllocDecision onMiss(const trace::BlockAccess &access) override;
    void onHit(const trace::BlockAccess &access) override;
    void prefetchMiss(trace::BlockId block) const override;
    void
    prefetchHit(trace::BlockId block) const override
    {
        RandomBlockSelector::prefetchMiss(block);
    }
    std::optional<std::vector<trace::BlockId>>
    onDayClose(int day) override;
    const char *name() const override { return "RandSieve-BlkD"; }
    uint64_t metastateBytes() const override;
    void checkInvariants() const override;

  private:
    double fraction;
    util::Rng rng;
    /** Epoch's distinct-block set (counts unused). */
    analysis::AccessCounter seen;
};

/**
 * The per-day oracle (Section 5.1's "ideal"): holds each day's top 1 %
 * of blocks *during that day*, which requires future knowledge. The
 * per-day sets come from a profiling pass over the trace
 * (sim::perDayTopBlocks); the first day's set must be preloaded into
 * the appliance (Appliance::preload) before replay.
 */
class OracleDaySelector : public AllocationPolicy
{
  public:
    /** @param day_sets day_sets[d] = blocks to hold during calendar
     *                  day d */
    explicit OracleDaySelector(
        std::vector<std::vector<trace::BlockId>> day_sets);

    /** Nothing to learn: the oracle already knows the future. */
    AllocDecision
    onMiss(const trace::BlockAccess &) override
    {
        return AllocDecision::Bypass;
    }
    /** day_sets[day + 1]; an empty set past either end of the trace. */
    std::optional<std::vector<trace::BlockId>>
    onDayClose(int day) override;
    const char *name() const override { return "Ideal"; }

  private:
    std::vector<std::vector<trace::BlockId>> day_sets;
};

} // namespace core
} // namespace sievestore

#endif // SIEVESTORE_CORE_DISCRETE_HPP
