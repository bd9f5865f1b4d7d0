/**
 * @file
 * Allocation-policy interface: the sieving abstraction.
 *
 * The paper's central claim is that the *allocation* policy — who gets
 * into the cache — is the lever that matters for ensemble-level SSD
 * caching, independent of the replacement policy. A continuous
 * AllocationPolicy is consulted on every miss; sieved policies
 * (SieveStore-C) answer Allocate only for blocks whose recent miss
 * history proves popularity, unsieved policies (AOD, WMNA) answer from
 * the request type alone.
 *
 * This is the one sieve engine: the appliance consults every
 * continuous policy — the built-in kinds sim::makeAppliance builds and
 * injected ones alike — through this interface, so a new sieve costs
 * one subclass plus (for a built-in kind) one sim::PolicyKind and one
 * factory case. On a flat, occupancy-free appliance the request-path
 * hooks run inside the batch no-alloc region, whoever built the
 * policy: onMiss / onHit / prefetchMiss must not allocate (amortized
 * table growth exempts itself); onDayClose runs outside it.
 */

#ifndef SIEVESTORE_CORE_ALLOC_POLICY_HPP
#define SIEVESTORE_CORE_ALLOC_POLICY_HPP

#include <optional>

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
 * Continuous (per-access) allocation policy. Stateful implementations
 * (SieveStore-C) also observe hits to keep their windows honest.
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

    /** Observe a hit (default: ignore). */
    virtual SIEVE_TAINT_SINK void
    onHit(const trace::BlockAccess &access)
    {
        (void)access;
    }

    /**
     * Calendar day `day` just closed (Appliance::finishDay). The hook
     * for epoch-scale adaptation: the adaptive sieve compares its
     * shadow settings here and may switch thresholds for the next
     * day. Off the request path, so implementations may allocate.
     * Default: ignore.
     */
    virtual void onDayClose(int day) { (void)day; }

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
