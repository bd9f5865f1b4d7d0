/**
 * @file
 * Plain-data selection of a built-in continuous sieve, and the one
 * factory that builds it.
 *
 * The paper's hot loop consults the sieve once per missed block access
 * (Section 3.2). SievePolicySpec names one of the continuous policies
 * (AOD, WMNA, SieveStore-C, RandSieve-C, the adaptive sieve) as plain
 * data — exactly like cache::EvictionSpec names a replacement policy —
 * so configs, sweeps and shard layouts can copy it around freely;
 * makeSievePolicy turns it into the AllocationPolicy the appliance
 * consults. Adding a built-in sieve is one AllocationPolicy subclass,
 * one SieveKind, one factory case and one name.
 */

#ifndef SIEVESTORE_CORE_SIEVE_SPEC_HPP
#define SIEVESTORE_CORE_SIEVE_SPEC_HPP

#include <memory>

#include "core/alloc_policy.hpp"
#include "core/auto_tune.hpp"
#include "core/sievestore_c.hpp"

namespace sievestore {
namespace core {

/** Built-in continuous allocation policies (Section 3, Table 2). */
enum class SieveKind : uint8_t {
    /** Allocate-on-demand: every miss allocates. */
    Aod,
    /** Write-miss no-allocate: only read misses allocate. */
    Wmna,
    /** Two-tier hysteresis sieve (IMCT -> MCT, Section 3.3). */
    SieveStoreC,
    /** Allocate a random fraction of misses (Section 5.1). */
    RandSieveC,
    /** SieveStore-C with online (t1, t2) adaptation: shadow ghost
     * caches score neighboring settings each day and the sieve
     * switches to the winner at day close (Section 7's tuning
     * direction, taken online). */
    Adaptive,
};

/**
 * Exhaustiveness anchor for the built-in sieves: every switch over
 * SieveKind is written without a default case, so -Wswitch (an error
 * in this tree) flags each switch a new kind has not reached — and
 * this count pins the enum itself.
 */
inline constexpr size_t kSieveKindCount = 5;
static_assert(static_cast<size_t>(SieveKind::Adaptive) + 1 ==
                  kSieveKindCount,
              "SieveKind grew: bump kSieveKindCount and add the new "
              "kind to makeSievePolicy and sieveKindName");

/** Policy name as used in reports ("AOD", "SieveStore-C", ...). */
const char *sieveKindName(SieveKind kind);

/**
 * Plain-data selection of a continuous sieve, the allocation-side
 * analogue of cache::EvictionSpec. Fields beyond `kind` configure the
 * stateful kinds and are ignored by the stateless ones.
 */
struct SievePolicySpec
{
    SieveKind kind = SieveKind::Aod;
    /** RandSieve-C allocation probability. */
    double rand_probability = 0.01;
    /** RandSieve-C RNG seed. */
    uint64_t rand_seed = 7;
    /** SieveStore-C tunables (used only when kind == SieveStoreC). */
    SieveStoreCConfig sieve_c;
    /** Adaptive-sieve tunables (used only when kind == Adaptive). */
    AdaptiveSieveConfig adaptive;
};

/**
 * Build the AllocationPolicy a spec selects: the policy
 * Appliance(ApplianceConfig) consults on every miss.
 */
std::unique_ptr<AllocationPolicy>
makeSievePolicy(const SievePolicySpec &spec);

} // namespace core
} // namespace sievestore

#endif // SIEVESTORE_CORE_SIEVE_SPEC_HPP
