/**
 * @file
 * Fully-associative LRU block cache (Section 4) over one flat block
 * index.
 *
 * Tracks residency at 512-byte block granularity. Capacity is
 * expressed in blocks (a 16 GB SSD cache holds 31.25 M blocks).
 * Supports both the continuous model (insert with LRU eviction) and
 * SieveStore-D's discrete model (batchReplace with allocation/
 * replacement cancellation at epoch boundaries).
 *
 * Hot-path layout: residency and the block's recency-list node live in
 * a single open-addressing FlatIndex slot per block (PolicyState
 * payload), so a resident hit is one hash probe that both answers the
 * residency test and reaches the node to promote. The recency order is
 * an index-linked arena (util::IndexList), not a pointer-linked
 * std::list. The table is pre-sized for `capacity_blocks` at
 * construction, so steady-state replay never rehashes.
 *
 * The paper's continuous configurations all use LRU; allocation, not
 * replacement, is the lever for SSD writes. The one other replacement
 * the experiments need is the Section 3.1 oracle ("evicts only those
 * blocks that are not in the top 1% frequently accessed blocks"),
 * which is a mode of the same engine: setProtected() installs the
 * day's protected set, and the victim scan skips protected blocks.
 */

#ifndef SIEVESTORE_CACHE_BLOCK_CACHE_HPP
#define SIEVESTORE_CACHE_BLOCK_CACHE_HPP

#include <optional>
#include <span>
#include <vector>

#include "trace/block.hpp"
#include "util/flat_index.hpp"
#include "util/flow_annotations.hpp"

namespace sievestore {
namespace cache {

/** Result of a discrete batch replacement (epoch boundary). */
struct BatchReplaceResult
{
    /** Blocks newly written into the cache (allocation-writes). */
    uint64_t allocated = 0;
    /**
     * Blocks present in both the outgoing and incoming sets; their
     * "replacement and allocation cancel each other to eliminate
     * unnecessary block moves" (Section 3.2).
     */
    uint64_t retained = 0;
    /** Blocks dropped from the cache. */
    uint64_t evicted = 0;
};

/** Result of BlockCache::admit. */
struct Admission
{
    /** False when the block was already resident (nothing changed). */
    bool inserted = false;
    /** The block evicted to make room, if any. */
    std::optional<trace::BlockId> victim;
};

/**
 * Per-resident-block state, stored inline in the block index slot:
 * the block's node in the recency arena.
 */
struct PolicyState
{
    uint32_t node;
};

/** Fully-associative LRU set of resident blocks with bounded capacity. */
class BlockCache
{
  public:
    /** @param capacity_blocks capacity in 512-byte blocks (>= 1) */
    explicit BlockCache(uint64_t capacity_blocks);

    /** Chunk width of probeBatch (== FlatIndex's). */
    static constexpr size_t kProbeBatch = util::FlatIndex<PolicyState>::kBatchChunk;

    /** Residency test with no side effects. */
    bool contains(trace::BlockId block) const;

    /**
     * Access a block: if resident, promotes it to the hot end of the
     * LRU order and returns true; otherwise returns false. One hash
     * probe. Taint sink: cache mutation entry point —
     * residency state must never depend on measured data (this and
     * every mutator below).
     */
    SIEVE_TAINT_SINK bool access(trace::BlockId block);

    /**
     * Probe-gather for the appliance's request loop: `st[i]` points
     * at blocks[i]'s index slot, or nullptr if absent. Runs the
     * FlatIndex hash-ahead/prefetch kernel. Pointers follow the
     * FlatIndex invalidation rule: consume them before any
     * insert/erase on this cache.
     */
    SIEVE_TAINT_SINK void probeBatch(std::span<const trace::BlockId> blocks,
                                     std::span<PolicyState *> st);

    /** Promote a gathered resident block (the mutate phase of a
     *  probe-gathered hit). */
    SIEVE_TAINT_SINK void touchProbed(PolicyState &st);

    /**
     * Make a block resident, evicting a victim if at capacity.
     * @return the evicted block, if any
     * @pre the block is not already resident
     */
    SIEVE_TAINT_SINK std::optional<trace::BlockId>
    insert(trace::BlockId block);

    /**
     * Insert unless resident: one residency probe, then (at capacity)
     * the victim's erase and the find-or-insert. A resident block is
     * left untouched (its recency does not move).
     */
    SIEVE_TAINT_SINK Admission admit(trace::BlockId block);

    /** Remove a block. @retval true if it was resident. */
    bool erase(trace::BlockId block);

    /**
     * Discrete-epoch replacement: make the cache hold exactly
     * `new_set` (first-come priority, deduplicated, truncated to
     * capacity if larger). Returns the move accounting used by
     * SieveStore-D's allocation-write counts.
     *
     * The optional out-vectors are cleared and filled with the blocks
     * actually installed (in install order — the storage layer
     * page-coalesces them into device writes) and the blocks dropped
     * (in eviction order — they become trims). Passing null skips the
     * capture; the accounting result is identical either way.
     */
    SIEVE_TAINT_SINK BatchReplaceResult
    batchReplace(const std::vector<trace::BlockId> &new_set,
                 std::vector<trace::BlockId> *allocated_out = nullptr,
                 std::vector<trace::BlockId> *evicted_out = nullptr);

    /**
     * Section 3.1 oracle mode: replace the protected set. While it is
     * non-empty, the victim is the coldest unprotected block; protected
     * blocks met at the cold end are moved to the hot end so repeated
     * evictions do not rescan them (amortized O(1) per eviction, and
     * they are protected anyway, so the move cannot change which
     * blocks survive). If every resident block is protected the
     * victim is the LRU tail. An empty set is plain LRU. Allocates;
     * call it between days, outside the batch no-alloc region.
     */
    SIEVE_TAINT_SINK void
    setProtected(std::span<const trace::BlockId> blocks);

    uint64_t size() const { return index.size(); }
    uint64_t capacity() const { return capacity_blocks; }
    bool full() const { return index.size() >= capacity_blocks; }

    /** Snapshot of resident blocks (unordered). */
    std::vector<trace::BlockId> contents() const;

    /**
     * Footprint of all per-block cache metadata — the residency index,
     * the recency arena and the protected set (util/footprint.hpp
     * convention).
     */
    uint64_t memoryBytes() const;

    /**
     * Audit occupancy accounting: the block index is structurally
     * sound, never exceeds capacity, and the recency arena mirrors it
     * exactly. O(size); aborts on violation.
     */
    void checkInvariants() const;

  private:
    using BlockIndex = util::FlatIndex<PolicyState>;

    /** The block to evict next. @pre the cache is not empty. */
    trace::BlockId victim();

    /** Evict `block`: arena unlink plus index removal. */
    void eraseResident(trace::BlockId block);

    uint64_t capacity_blocks;

    /** Residency + recency node, one slot per block. */
    BlockIndex index;
    /** Recency order, front = hottest. */
    util::IndexList order;
    /** Oracle mode's protected set (empty = plain LRU); only the
     * victim scan reads it. */
    util::FlatIndex<uint8_t> protected_blocks;
};

} // namespace cache
} // namespace sievestore

#endif // SIEVESTORE_CACHE_BLOCK_CACHE_HPP
