/**
 * @file
 * Allocation-policy interface: the sieving abstraction.
 *
 * The paper's central claim is that the *allocation* policy — who gets
 * into the cache — is the lever that matters for ensemble-level SSD
 * caching, independent of the replacement policy. Both of the paper's
 * sieve families decide through this one interface:
 *
 *  - continuous policies (SieveStore-C, RandSieve-C, AOD, WMNA, the
 *    adaptive sieve) answer onMiss per access: sieved ones Allocate
 *    only for blocks whose recent miss history proves popularity,
 *    unsieved ones answer from the request type alone;
 *  - epoch-batched policies (SieveStore-D, RandSieve-BlkD, Ideal in
 *    core/discrete.hpp) count accesses in onMiss / onHit, always
 *    Bypass, and return the next epoch's block set from onDayClose,
 *    which the appliance batch-installs.
 *
 * The appliance consults every policy — the built-in kinds
 * sim::makeAppliance builds and injected ones alike — through this
 * interface, so a new admission scheme costs one subclass plus (for a
 * built-in kind) one sim::PolicyKind and one factory case. On a flat,
 * occupancy-free appliance the request-path hooks run inside the batch
 * no-alloc region, whoever built the policy: onMiss / onHit and the
 * prefetchMiss / prefetchHit hints must not allocate (amortized table
 * and log growth exempts itself); onDayClose runs outside it.
 */

#ifndef SIEVESTORE_CORE_ALLOC_POLICY_HPP
#define SIEVESTORE_CORE_ALLOC_POLICY_HPP

#include <optional>
#include <vector>

#include "trace/request.hpp"
#include "util/flow_annotations.hpp"

namespace sievestore {
namespace core {

/**
 * Observable state of a self-tuning sieve: the thresholds currently
 * in force and how many times the tuner has switched them. Reported
 * into DailyReport's tune_* columns at day boundaries.
 */
struct SieveTuning
{
    uint32_t t1 = 0;
    uint32_t t2 = 0;
    /** Cumulative threshold switches since construction. */
    uint64_t switches = 0;
};

/** Outcome of a sieve consultation on a miss. */
enum class AllocDecision : uint8_t {
    /** Serve from the backing ensemble; do not cache. */
    Bypass,
    /** Allocate a frame: incurs one allocation-write per block. */
    Allocate,
};

/**
 * Allocation policy, consulted per access and at every day close.
 * Stateful implementations (SieveStore-C, the epoch-batched counters)
 * also observe hits.
 */
class AllocationPolicy
{
  public:
    virtual ~AllocationPolicy() = default;

    // The request-path hooks are sieve-flow taint sinks: admit
    // decisions and the sieve metastate they read must never see
    // measured device data (the observe-never-decide storage
    // contract). The marks sit on the virtual declarations, so every
    // override inherits the contract.

    /**
     * Consulted on every miss.
     * @param access the missed block access
     * @return whether to allocate the block
     */
    virtual SIEVE_TAINT_SINK AllocDecision
    onMiss(const trace::BlockAccess &access) = 0;

    /**
     * Hint that onMiss for this block is imminent (the appliance's
     * sieve-prefetch phase issues it for every gathered miss of a
     * chunk before the in-order decide pass). Pure — no decision or
     * counter may change. Table-backed sieves pull their lines toward
     * L1 here; the default ignores the hint.
     */
    virtual SIEVE_TAINT_SINK void
    prefetchMiss(trace::BlockId block) const
    {
        (void)block;
    }

    /**
     * Hint that onHit for this block is imminent, issued in the same
     * sieve-prefetch phase for every gathered hit. Pure, like
     * prefetchMiss. Policies that count hits (the epoch-batched
     * counters) pull their counter line here; the default ignores
     * the hint.
     */
    virtual SIEVE_TAINT_SINK void
    prefetchHit(trace::BlockId block) const
    {
        (void)block;
    }

    /** Observe a hit (default: ignore). */
    virtual SIEVE_TAINT_SINK void
    onHit(const trace::BlockAccess &access)
    {
        (void)access;
    }

    /**
     * Calendar day `day` just closed (Appliance::finishDay). The hook
     * for epoch-scale decisions, off the request path, so
     * implementations may allocate. The adaptive sieve compares its
     * shadow settings here and may switch thresholds for the next
     * day; an epoch-batched policy returns the block set the cache
     * must hold during `day + 1` (descending priority; the cache
     * truncates to capacity), which the appliance installs with
     * cancellation of retained blocks.
     * @return the next epoch's block set, or nullopt when there is
     *         nothing to install (the default)
     */
    virtual std::optional<std::vector<trace::BlockId>>
    onDayClose(int day)
    {
        (void)day;
        return std::nullopt;
    }

    /**
     * Self-tuning observability: the thresholds in force and the
     * cumulative switch count, or nullopt for policies that do not
     * tune themselves (the default).
     */
    virtual std::optional<SieveTuning> tuning() const
    {
        return std::nullopt;
    }

    /** Policy name for reports. */
    virtual const char *name() const = 0;

    /** Approximate metastate footprint in bytes (for cost reporting). */
    virtual uint64_t metastateBytes() const { return 0; }

    /** Audit policy invariants; aborts on violation (default: none). */
    virtual void checkInvariants() const {}
};

} // namespace core
} // namespace sievestore

#endif // SIEVESTORE_CORE_ALLOC_POLICY_HPP
