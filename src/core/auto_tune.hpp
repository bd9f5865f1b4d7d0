/**
 * @file
 * Self-tuning sieve (the paper's Section 7 "tuning" direction).
 *
 * SieveStore-C's thresholds (t1, t2) were hand-tuned against one
 * ensemble's traces. A deployment-quality appliance should hold its
 * allocation rate to a churn budget on its own: if daily
 * allocation-writes exceed the budget (as a fraction of cache
 * capacity), the sieve is too loose — raise t2; if allocations run far
 * below budget while misses abound, it is too tight — lower t2. The
 * controller adjusts one step per day within configured bounds, which
 * keeps the feedback loop stable against the day-scale workload drift
 * of observation O2.
 */

#ifndef SIEVESTORE_CORE_AUTO_TUNE_HPP
#define SIEVESTORE_CORE_AUTO_TUNE_HPP

#include <memory>
#include <utility>
#include <vector>

#include "cache/ghost_cache.hpp"
#include "core/sievestore_c.hpp"
#include "util/check.hpp"

namespace sievestore {
namespace core {

/** Controller parameters for the self-tuning sieve. */
struct AutoTuneConfig
{
    /** Daily allocation budget as a fraction of cache capacity
     * (1.0 = at most one full cache turnover per day). */
    double churn_budget = 1.0;
    /** Cache capacity in blocks (the budget's denominator). */
    uint64_t cache_blocks = (16ULL << 30) / trace::kBlockBytes;
    /** Hysteresis: only tighten above budget * (1 + slack), only
     * loosen below budget * (1 - slack). */
    double slack = 0.25;
    /** Bounds for the adjusted MCT threshold t2; the sieve's t1 +
     * max_t2 must not exceed kMaxThresholdSum. */
    uint32_t min_t2 = 1;
    uint32_t max_t2 = 16;
};

/**
 * SieveStore-C with a per-day feedback controller on t2.
 *
 * Implemented as an allocation policy wrapping the standard two-tier
 * sieve; the controller steps at each day close
 * (Appliance::finishDay -> onDayClose), off the request path.
 */
class AutoTunedSievePolicy : public AllocationPolicy
{
  public:
    AutoTunedSievePolicy(SieveStoreCConfig sieve, AutoTuneConfig tune);

    AllocDecision onMiss(const trace::BlockAccess &access) override;
    void onHit(const trace::BlockAccess &access) override;
    /**
     * Close day `day`: compare its allocation volume to the churn
     * budget and nudge t2 by one step with hysteresis. A day with no
     * onHit/onMiss since the previous close is skipped entirely — t2
     * and the history stay untouched — so idle days never count as
     * "far under budget".
     */
    std::optional<std::vector<trace::BlockId>>
    onDayClose(int day) override;
    const char *name() const override { return "SieveStore-C/auto"; }
    uint64_t metastateBytes() const override;

    /** Audit the controller bounds and the wrapped sieve. */
    void
    checkInvariants() const override
    {
        SIEVE_CHECK(t2 >= tune.min_t2 && t2 <= tune.max_t2,
                    "auto-tuned t2=%u escaped [%u, %u]", t2,
                    tune.min_t2, tune.max_t2);
        sieve->checkInvariants();
    }

    /** Current MCT threshold. */
    uint32_t currentT2() const { return t2; }
    /** t2 value in force on each day seen so far. */
    const std::vector<uint32_t> &t2History() const { return history; }
    /** Allocations granted on the current day so far. */
    uint64_t allocationsToday() const { return allocs_today; }

  private:
    SieveStoreCConfig sieve_cfg;
    AutoTuneConfig tune;
    std::unique_ptr<SieveStoreCPolicy> sieve;
    uint32_t t2;
    /** Some onHit/onMiss arrived since the last day close. */
    bool active_today = false;
    uint64_t allocs_today = 0;
    std::vector<uint32_t> history;
};

/**
 * Parameters of the online adaptive sieve (AdaptiveSievePolicy).
 * Shadow structures are deliberately small relative to the production
 * sieve: they estimate a *ranking* between neighboring threshold
 * settings, not exact hit counts.
 */
struct AdaptiveSieveConfig
{
    /** Starting setting of the production sieve; also the center of
     * the first shadow neighborhood. */
    SieveStoreCConfig base;
    /** Per-candidate simulated residency budget in blocks (the shadow
     * ghost cache's capacity). */
    uint64_t ghost_budget = 1 << 15;
    /** Shadow sieves' IMCT size (metastate cost per candidate). */
    size_t imct_slots = 1 << 14;
    /** Threshold bounds; max_t1 + max_t2 must not exceed
     * kMaxThresholdSum. */
    uint32_t min_t1 = 1;
    uint32_t max_t1 = 64;
    uint32_t min_t2 = 1;
    uint32_t max_t2 = 16;
};

/**
 * Online adaptive sieve: SieveStore-C whose (t1, t2) thresholds chase
 * the setting that would capture the most accesses.
 *
 * Five candidate settings — the current one plus its four
 * one-step neighbors — each run a small shadow sieve over the full
 * access stream. When a candidate's shadow admits a block, the block
 * enters the candidate's ghost cache (a fixed-budget LRU residency
 * set standing in for the cache it would have filled); every access
 * landing in a candidate's ghost counts as an access that setting
 * would have captured. At each day close (Appliance::finishDay ->
 * onDayClose) the candidate with the most captured accesses wins:
 * the production sieve switches to its thresholds (keeping its
 * accumulated IMCT/MCT state), the neighborhood re-centers, and the
 * per-epoch counters reset. Ties favor the incumbent, so a flat
 * neighborhood never flaps.
 *
 * Decisions still come only from the production sieve; shadows and
 * ghosts observe the same model-side stream and steer nothing within
 * a day, so replay stays deterministic and shard-mergeable.
 */
class AdaptiveSievePolicy : public AllocationPolicy
{
  public:
    /** Neighborhood radius: candidate settings are the current
     * (t1, t2) plus (t1 +- kT1Step, t2) and (t1, t2 +- kT2Step),
     * clamped to the config's bounds. */
    static constexpr uint32_t kT1Step = 2;
    static constexpr uint32_t kT2Step = 1;

    explicit AdaptiveSievePolicy(AdaptiveSieveConfig config = {});

    AllocDecision onMiss(const trace::BlockAccess &access) override;
    void onHit(const trace::BlockAccess &access) override;
    /** Forwarded table prefetch (see SieveStoreCPolicy::prefetchMiss);
     * shadows are not prefetched — they are off the latency path. */
    void prefetchMiss(trace::BlockId block) const override;
    const char *name() const override { return "SieveStore-C/adaptive"; }
    uint64_t metastateBytes() const override;
    std::optional<std::vector<trace::BlockId>>
    onDayClose(int day) override;
    std::optional<SieveTuning> tuning() const override;
    void checkInvariants() const override;

    /** Production-sieve thresholds currently in force. */
    uint32_t currentT1() const { return t1_; }
    uint32_t currentT2() const { return t2_; }
    /** Threshold switches performed so far. */
    uint64_t switches() const { return switches_; }
    /** (t1, t2) adopted at each day close so far. */
    const std::vector<std::pair<uint32_t, uint32_t>> &
    history() const
    {
        return history_;
    }
    /** Number of candidate settings (the incumbent is index 0). */
    size_t candidateCount() const { return candidates_.size(); }
    /** Accesses candidate `i`'s ghost captured this epoch. */
    uint64_t candidateCaptured(size_t i) const;
    /** Candidate `i`'s thresholds. */
    std::pair<uint32_t, uint32_t> candidateSetting(size_t i) const;
    /** The wrapped production sieve. */
    const SieveStoreCPolicy &production() const { return main_; }

  private:
    /** One shadow setting under evaluation. */
    struct Candidate
    {
        uint32_t t1;
        uint32_t t2;
        SieveStoreCPolicy shadow;
        // sieve-lint: charged(summed by AdaptiveSievePolicy::metastateBytes)
        cache::GhostCache ghost;
        /** Accesses the ghost captured this epoch. */
        uint64_t captured = 0;

        Candidate(const SieveStoreCConfig &shadow_cfg,
                  uint64_t ghost_budget)
            : t1(shadow_cfg.t1), t2(shadow_cfg.t2), shadow(shadow_cfg),
              ghost(ghost_budget)
        {
        }
    };

    /** Feed one access to every candidate's mini-simulation. */
    void observe(const trace::BlockAccess &access);
    /** Re-derive the neighborhood around (t1_, t2_) and reset the
     * per-epoch counters. Ghost contents survive re-centering: the
     * simulated residency self-corrects within the next epoch. */
    void recenter();
    uint32_t clampT1(int64_t t1) const;
    uint32_t clampT2(int64_t t2) const;

    AdaptiveSieveConfig cfg_;
    /** Production sieve: the only decision maker. */
    SieveStoreCPolicy main_;
    /** Index 0 is always the incumbent setting. */
    std::vector<std::unique_ptr<Candidate>> candidates_;
    uint32_t t1_;
    uint32_t t2_;
    uint64_t switches_ = 0;
    std::vector<std::pair<uint32_t, uint32_t>> history_;
};

} // namespace core
} // namespace sievestore

#endif // SIEVESTORE_CORE_AUTO_TUNE_HPP
