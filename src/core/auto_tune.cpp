#include "core/auto_tune.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace core {

AutoTunedSievePolicy::AutoTunedSievePolicy(SieveStoreCConfig sieve_cfg_,
                                           AutoTuneConfig tune_)
    : sieve_cfg(sieve_cfg_), tune(tune_), t2(sieve_cfg_.t2)
{
    if (tune.min_t2 == 0 || tune.min_t2 > tune.max_t2)
        util::fatal("auto-tune t2 bounds must satisfy 1 <= min <= max");
    if (uint64_t{sieve_cfg.t1} + tune.max_t2 > kMaxThresholdSum)
        util::fatal("auto-tune t1 + max_t2 must be at most %u",
                    kMaxThresholdSum);
    if (tune.churn_budget <= 0.0)
        util::fatal("auto-tune churn budget must be positive");
    if (t2 < tune.min_t2)
        t2 = tune.min_t2;
    if (t2 > tune.max_t2)
        t2 = tune.max_t2;
    sieve_cfg.t2 = t2;
    sieve = std::make_unique<SieveStoreCPolicy>(sieve_cfg);
}

AllocDecision
AutoTunedSievePolicy::onMiss(const trace::BlockAccess &access)
{
    active_today = true;
    const AllocDecision decision = sieve->onMiss(access);
    if (decision == AllocDecision::Allocate)
        ++allocs_today;
    return decision;
}

void
AutoTunedSievePolicy::onHit(const trace::BlockAccess &access)
{
    active_today = true;
    sieve->onHit(access);
}

std::optional<std::vector<trace::BlockId>>
AutoTunedSievePolicy::onDayClose(int day)
{
    (void)day;
    if (!active_today)
        return std::nullopt;
    const double budget_blocks =
        tune.churn_budget * static_cast<double>(tune.cache_blocks);
    const double allocs = static_cast<double>(allocs_today);
    if (allocs > budget_blocks * (1.0 + tune.slack) && t2 < tune.max_t2) {
        ++t2;
    } else if (allocs < budget_blocks * (1.0 - tune.slack) &&
               t2 > tune.min_t2) {
        --t2;
    }
    sieve->setT2(t2);
    history.push_back(t2);
    active_today = false;
    allocs_today = 0;
    return std::nullopt;
}

uint64_t
AutoTunedSievePolicy::metastateBytes() const
{
    return sieve->metastateBytes();
}

// ---- online adaptive sieve ----------------------------------------

AdaptiveSievePolicy::AdaptiveSievePolicy(AdaptiveSieveConfig config)
    : cfg_(config), main_(config.base)
{
    if (cfg_.min_t1 == 0 || cfg_.min_t1 > cfg_.max_t1)
        util::fatal("adaptive sieve t1 bounds must satisfy "
                    "1 <= min <= max");
    if (cfg_.min_t2 == 0 || cfg_.min_t2 > cfg_.max_t2)
        util::fatal("adaptive sieve t2 bounds must satisfy "
                    "1 <= min <= max");
    if (uint64_t{cfg_.max_t1} + cfg_.max_t2 > kMaxThresholdSum)
        util::fatal("adaptive sieve max_t1 + max_t2 must be at most %u",
                    kMaxThresholdSum);
    if (cfg_.ghost_budget == 0)
        util::fatal("adaptive sieve ghost budget must be positive");
    t1_ = clampT1(cfg_.base.t1);
    t2_ = clampT2(cfg_.base.t2);
    main_.setThresholds(t1_, t2_);

    // Five fixed slots: the incumbent plus its four one-step
    // neighbors. Clamping can make a neighbor coincide with the
    // incumbent; the duplicate is harmless because ties favor slot 0.
    SieveStoreCConfig shadow_cfg = cfg_.base;
    shadow_cfg.imct_slots = cfg_.imct_slots;
    for (size_t i = 0; i < 5; ++i)
        candidates_.push_back(std::make_unique<Candidate>(
            shadow_cfg, cfg_.ghost_budget));
    recenter();
}

uint32_t
AdaptiveSievePolicy::clampT1(int64_t t1) const
{
    return static_cast<uint32_t>(std::clamp<int64_t>(
        t1, cfg_.min_t1, cfg_.max_t1));
}

uint32_t
AdaptiveSievePolicy::clampT2(int64_t t2) const
{
    return static_cast<uint32_t>(std::clamp<int64_t>(
        t2, cfg_.min_t2, cfg_.max_t2));
}

void
AdaptiveSievePolicy::recenter()
{
    const int64_t t1 = t1_, t2 = t2_;
    const int64_t s1 = kT1Step, s2 = kT2Step;
    const std::pair<uint32_t, uint32_t> settings[5] = {
        {t1_, t2_},
        {clampT1(t1 - s1), t2_},
        {clampT1(t1 + s1), t2_},
        {t1_, clampT2(t2 - s2)},
        {t1_, clampT2(t2 + s2)},
    };
    for (size_t i = 0; i < candidates_.size(); ++i) {
        Candidate &c = *candidates_[i];
        c.t1 = settings[i].first;
        c.t2 = settings[i].second;
        c.shadow.setThresholds(c.t1, c.t2);
        c.captured = 0;
    }
}

void
AdaptiveSievePolicy::observe(const trace::BlockAccess &access)
{
    // Each candidate runs a mini cache simulation: its ghost is the
    // LRU residency set of blocks its shadow sieve would have
    // allocated. A ghost hit is an access that setting would have
    // captured (and refreshes recency); a ghost miss consults the
    // shadow sieve, which admits or rejects exactly like the
    // production algorithm at the candidate's thresholds.
    for (auto &cp : candidates_) {
        Candidate &c = *cp;
        if (c.ghost.contains(access.block)) {
            ++c.captured;
            c.ghost.insert(access.block); // refresh
        } else if (c.shadow.onMiss(access) == AllocDecision::Allocate) {
            c.ghost.insert(access.block);
        }
    }
}

AllocDecision
AdaptiveSievePolicy::onMiss(const trace::BlockAccess &access)
{
    observe(access);
    return main_.onMiss(access);
}

void
AdaptiveSievePolicy::onHit(const trace::BlockAccess &access)
{
    observe(access);
    main_.onHit(access);
}

void
AdaptiveSievePolicy::prefetchMiss(trace::BlockId block) const
{
    main_.prefetchMiss(block);
}

// SIEVE_MAY_ALLOC: the per-day-close history append — once per
// simulated day, off the batch no-alloc path (finishDay runs between
// processBatch calls).
std::optional<std::vector<trace::BlockId>> SIEVE_MAY_ALLOC
AdaptiveSievePolicy::onDayClose(int day)
{
    (void)day;
    // Winner takes the thresholds. Strict > keeps ties (including a
    // fully idle day, all counters zero) with the incumbent.
    size_t best = 0;
    for (size_t i = 1; i < candidates_.size(); ++i)
        if (candidates_[i]->captured > candidates_[best]->captured)
            best = i;
    const Candidate &win = *candidates_[best];
    if (win.t1 != t1_ || win.t2 != t2_) {
        t1_ = win.t1;
        t2_ = win.t2;
        main_.setThresholds(t1_, t2_);
        ++switches_;
    }
    history_.emplace_back(t1_, t2_);
    recenter();
    return std::nullopt;
}

std::optional<SieveTuning>
AdaptiveSievePolicy::tuning() const
{
    return SieveTuning{t1_, t2_, switches_};
}

uint64_t
AdaptiveSievePolicy::metastateBytes() const
{
    // The adaptive sieve is honest about its full cost: production
    // tables plus every shadow sieve and shadow ghost.
    uint64_t bytes = main_.metastateBytes();
    for (const auto &c : candidates_)
        bytes += c->shadow.metastateBytes() + c->ghost.memoryBytes();
    return bytes;
}

uint64_t
AdaptiveSievePolicy::candidateCaptured(size_t i) const
{
    SIEVE_CHECK(i < candidates_.size(),
                "candidate index %zu out of %zu", i,
                candidates_.size());
    return candidates_[i]->captured;
}

std::pair<uint32_t, uint32_t>
AdaptiveSievePolicy::candidateSetting(size_t i) const
{
    SIEVE_CHECK(i < candidates_.size(),
                "candidate index %zu out of %zu", i,
                candidates_.size());
    return {candidates_[i]->t1, candidates_[i]->t2};
}

void
AdaptiveSievePolicy::checkInvariants() const
{
    SIEVE_CHECK(t1_ >= cfg_.min_t1 && t1_ <= cfg_.max_t1,
                "adaptive t1=%u escaped [%u, %u]", t1_, cfg_.min_t1,
                cfg_.max_t1);
    SIEVE_CHECK(t2_ >= cfg_.min_t2 && t2_ <= cfg_.max_t2,
                "adaptive t2=%u escaped [%u, %u]", t2_, cfg_.min_t2,
                cfg_.max_t2);
    SIEVE_CHECK(!candidates_.empty() &&
                    candidates_[0]->t1 == t1_ &&
                    candidates_[0]->t2 == t2_,
                "candidate slot 0 must mirror the incumbent setting");
    main_.checkInvariants();
    for (const auto &c : candidates_) {
        SIEVE_CHECK(c->t1 >= cfg_.min_t1 && c->t1 <= cfg_.max_t1 &&
                        c->t2 >= cfg_.min_t2 && c->t2 <= cfg_.max_t2,
                    "shadow setting (%u, %u) escaped the bounds",
                    c->t1, c->t2);
        c->shadow.checkInvariants();
        c->ghost.checkInvariants();
    }
}

} // namespace core
} // namespace sievestore
