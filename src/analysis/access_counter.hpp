/**
 * @file
 * In-memory per-block access counting.
 *
 * The trace characterization of Section 2 and the ideal/discrete sieves
 * of Section 3 all reduce a day of accesses to per-block counts. This is
 * the in-memory counter; the file-backed, map-reduce-like counter that
 * SieveStore-D's appliance would really run is in access_log.hpp.
 */

#ifndef SIEVESTORE_ANALYSIS_ACCESS_COUNTER_HPP
#define SIEVESTORE_ANALYSIS_ACCESS_COUNTER_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace/request.hpp"
#include "util/flat_index.hpp"

namespace sievestore {
namespace analysis {

/** Per-block access counts, keyed by BlockId. */
using BlockCounts = std::unordered_map<trace::BlockId, uint64_t>;

/** A (block, count) pair, the unit the sieving reductions emit. */
struct BlockCount
{
    trace::BlockId block;
    uint64_t count;
};

/** Count the per-block accesses of a batch of requests. */
BlockCounts countBlockAccesses(const std::vector<trace::Request> &requests);

/** Total accesses recorded in a count map. */
uint64_t totalAccesses(const BlockCounts &counts);

/**
 * Flatten a count map, sorted by descending count (ties broken by
 * BlockId for determinism).
 */
std::vector<BlockCount> sortedByCount(const BlockCounts &counts);

/** Sort (block, count) pairs descending by count, ascending BlockId. */
void sortDescendingByCount(std::vector<BlockCount> &counts);

/**
 * Per-block access counter on the flat block index
 * (util/flat_index.hpp): one open-addressing probe per observation
 * instead of a node-based unordered_map insert. This is the counting
 * state of the epoch-batched policies (SieveStore-D's in-memory ADBA
 * backend and RandSieve-BlkD). observe() runs inside the appliance's
 * batch no-alloc region, so its amortized table growth exempts itself;
 * clear() keeps the slot array so epoch boundaries do not re-grow from
 * scratch.
 */
class AccessCounter
{
  public:
    /**
     * Record one access to `block`. Table growth is the one
     * allocation and runs out of line under util::AllocGuardDisarm,
     * so an enclosing no-alloc region stays armed across it.
     */
    void
    observe(trace::BlockId block)
    {
        if (!counts_.hasCapacityFor(1)) {
            observeGrowing(block);
            return;
        }
        ++*counts_.findOrInsert(block).first;
    }

    /** Pull `block`'s home slot toward L1 ahead of observe(). */
    void prefetch(trace::BlockId block) const { counts_.prefetch(block); }

    /** Access count of `block` (0 if never observed). */
    uint64_t count(trace::BlockId block) const;

    /** Distinct blocks observed this epoch. */
    size_t uniqueBlocks() const { return counts_.size(); }
    bool empty() const { return counts_.empty(); }

    /** Sum of all counts. */
    uint64_t totalAccesses() const;

    /** Pairs with count >= threshold, descending count / ascending
     * block. */
    std::vector<BlockCount> countsAtLeast(uint64_t threshold) const;

    /** Observed blocks in ascending BlockId order. */
    std::vector<trace::BlockId> sortedBlocks() const;

    /** Drop all counts but keep the slot array (epoch boundary). */
    void clear() { counts_.clear(); }

    /** Metastate footprint (util/footprint.hpp convention). */
    uint64_t memoryBytes() const { return counts_.memoryBytes(); }

    /** Audit the underlying table; aborts on violation. */
    void checkInvariants() const { counts_.checkInvariants(); }

  private:
    /** observe() when the insert may grow the table. */
    void observeGrowing(trace::BlockId block);

    util::FlatIndex<uint64_t> counts_;
};

} // namespace analysis
} // namespace sievestore

#endif // SIEVESTORE_ANALYSIS_ACCESS_COUNTER_HPP
