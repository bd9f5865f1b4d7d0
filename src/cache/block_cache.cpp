#include "cache/block_cache.hpp"

#include <algorithm>

#include "util/alloc_guard.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace cache {

using trace::BlockId;
using util::IndexList;

BlockCache::BlockCache(uint64_t capacity) : capacity_blocks(capacity)
{
    if (capacity_blocks == 0)
        util::fatal("cache capacity must be at least one block");
    // The recency arena links nodes by 32-bit index; at 512-byte
    // blocks the cap is a 2 TB cache, far past the paper's 32 GB.
    SIEVE_CHECK(capacity_blocks < IndexList::kNull,
                "cache capacity %llu exceeds the 2^32-1 block arena",
                static_cast<unsigned long long>(capacity_blocks));
    // Steady-state inserts recycle the victim's node, and warmup
    // growth runs under insert()'s disarm, so only the index is
    // reserved up front.
    index.reserve(capacity_blocks);
}

bool
BlockCache::contains(BlockId block) const
{
    return index.contains(block);
}

bool
BlockCache::access(BlockId block)
{
    // A resident hit is one probe plus an arena splice; never
    // allocates.
    SIEVE_ASSERT_NO_ALLOC;
    PolicyState *st = index.find(block);
    if (!st)
        return false;
    order.moveToFront(st->node);
    return true;
}

void
BlockCache::probeBatch(std::span<const BlockId> blocks,
                       std::span<PolicyState *> st)
{
    SIEVE_DCHECK(st.size() >= blocks.size());
    SIEVE_ASSERT_NO_ALLOC;
    index.findBatch(blocks, st);
}

void
BlockCache::touchProbed(PolicyState &st)
{
    // Same contract as access().
    SIEVE_ASSERT_NO_ALLOC;
    order.moveToFront(st.node);
}

std::optional<BlockId>
BlockCache::insert(BlockId block)
{
    const Admission admitted = admit(block);
    if (!admitted.inserted)
        util::panic("BlockCache: insert of resident block %llx",
                    static_cast<unsigned long long>(block));
    return admitted.victim;
}

Admission
BlockCache::admit(BlockId block)
{
    // Steady state (cache full) recycles: the victim's index slot and
    // arena node are released before the insert reuses them, and the
    // pre-reserved table never rehashes. Warmup below capacity may
    // still grow the arena, so the region engages only once the cache
    // is full.
    const bool steady = index.size() >= capacity_blocks;
    SIEVE_ASSERT_NO_ALLOC_WHEN(steady);
    // Warmup growth is amortized and legitimate even when a caller
    // (Appliance::processBatch) holds a batch-wide no-alloc region.
    std::optional<util::AllocGuardDisarm> warmup_growth;
    if (!steady)
        warmup_growth.emplace(); // sieve-analyze: allow(no-alloc)
    Admission result;
    if (steady) {
        // Resolve residency before evicting: at capacity the victim
        // could be the block itself.
        if (index.contains(block))
            return result;
        const BlockId v = victim();
        eraseResident(v);
        result.victim = v;
    }
    const auto [st, inserted] = index.findOrInsert(block);
    if (!inserted)
        return result; // resident, below capacity
    st->node = order.pushFront(block);
    result.inserted = true;
    return result;
}

bool
BlockCache::erase(BlockId block)
{
    // Backward-shift deletion and freelist recycling: never allocates.
    SIEVE_ASSERT_NO_ALLOC;
    if (!index.contains(block))
        return false;
    eraseResident(block);
    return true;
}

BatchReplaceResult
BlockCache::batchReplace(const std::vector<BlockId> &new_set,
                         std::vector<BlockId> *allocated_out,
                         std::vector<BlockId> *evicted_out)
{
    BatchReplaceResult result;
    if (allocated_out)
        allocated_out->clear();
    if (evicted_out)
        evicted_out->clear();

    // Deduplicate and truncate to capacity in first-come priority
    // order (the selector emits its set hottest-first).
    util::FlatIndex<uint8_t> incoming(
            std::min<size_t>(new_set.size(), capacity_blocks));
    std::vector<BlockId> install;
    install.reserve(std::min<size_t>(new_set.size(), capacity_blocks));
    for (BlockId b : new_set) {
        if (install.size() >= capacity_blocks)
            break;
        if (incoming.findOrInsert(b).second)
            install.push_back(b);
    }

    // Evict residents that are not retained; retained blocks cancel
    // their replacement+allocation pair.
    std::vector<BlockId> to_evict;
    to_evict.reserve(index.size());
    index.forEach([&](uint64_t key, const PolicyState &) {
        if (incoming.contains(key))
            ++result.retained;
        else
            to_evict.push_back(key);
    });
    for (BlockId b : to_evict)
        eraseResident(b);
    result.evicted = to_evict.size();
    if (evicted_out)
        *evicted_out = std::move(to_evict);

    for (BlockId b : install) {
        const auto [st, inserted] = index.findOrInsert(b);
        if (!inserted)
            continue; // retained
        st->node = order.pushFront(b);
        ++result.allocated;
        if (allocated_out)
            allocated_out->push_back(b);
    }
    return result;
}

void
BlockCache::setProtected(std::span<const BlockId> blocks)
{
    protected_blocks.clear();
    protected_blocks.reserve(blocks.size());
    for (BlockId b : blocks)
        protected_blocks.findOrInsert(b);
}

std::vector<BlockId>
BlockCache::contents() const
{
    std::vector<BlockId> blocks;
    blocks.reserve(index.size());
    index.forEach([&](uint64_t key, const PolicyState &) {
        blocks.push_back(key);
    });
    return blocks;
}

uint64_t
BlockCache::memoryBytes() const
{
    return index.memoryBytes() + order.memoryBytes() +
           protected_blocks.memoryBytes();
}

BlockId
BlockCache::victim()
{
    SIEVE_CHECK(!index.empty(), "victim() on empty cache");
    if (!protected_blocks.empty()) {
        // Oracle mode: scan from the cold end, rotating protected
        // blocks to the hot end, for at most one full lap.
        for (size_t scanned = 0, lap = order.size(); scanned < lap;
             ++scanned) {
            const uint32_t cold = order.tail();
            if (!protected_blocks.contains(order.value(cold)))
                return order.value(cold);
            order.moveToFront(cold);
        }
        // Everything is protected: fall back to plain LRU.
    }
    return order.value(order.tail());
}

void
BlockCache::eraseResident(BlockId block)
{
    const bool erased = index.eraseWith(block, [&](const PolicyState &st) {
        order.erase(st.node);
    });
    SIEVE_CHECK(erased, "evicted block %llx was not resident",
                static_cast<unsigned long long>(block));
}

void
BlockCache::checkInvariants() const
{
    SIEVE_CHECK(capacity_blocks >= 1);
    SIEVE_CHECK(index.size() <= capacity_blocks,
                "resident set %zu exceeds capacity %llu", index.size(),
                static_cast<unsigned long long>(capacity_blocks));
    index.checkInvariants();
    protected_blocks.checkInvariants();

    // Arena mirror: every node is resident and its block links back to
    // it, and the arena holds exactly the resident set.
    order.checkInvariants();
    SIEVE_CHECK(order.size() == index.size(),
                "recency order tracks %zu blocks, cache holds %zu",
                order.size(), index.size());
    for (uint32_t n = order.head(); n != IndexList::kNull;
         n = order.next(n)) {
        const PolicyState *st = index.find(order.value(n));
        SIEVE_CHECK(st != nullptr, "recency-order block %llx is not resident",
                    static_cast<unsigned long long>(order.value(n)));
        SIEVE_CHECK(st->node == n,
                    "block %llx links node %u, found at node %u",
                    static_cast<unsigned long long>(order.value(n)),
                    st->node, n);
    }
}

} // namespace cache
} // namespace sievestore
