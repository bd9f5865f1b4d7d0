/**
 * @file
 * Test-only node-based LRU model of cache::BlockCache: a std::list
 * recency order plus an unordered_map from block to list node, with
 * the Section 3.1 protected-set victim scan. The differential suites
 * drive it op-for-op beside the flat cache; it shares no code with
 * the engine it checks.
 */

#ifndef SIEVESTORE_TESTS_REFERENCE_LRU_HPP
#define SIEVESTORE_TESTS_REFERENCE_LRU_HPP

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <list>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/block_cache.hpp"
#include "trace/block.hpp"

namespace sievestore {
namespace testing {

class ReferenceLru
{
  public:
    explicit ReferenceLru(uint64_t capacity) : capacity_(capacity) {}

    bool
    contains(trace::BlockId block) const
    {
        return where_.count(block) != 0;
    }

    /** Promote on a hit. */
    bool
    access(trace::BlockId block)
    {
        const auto it = where_.find(block);
        if (it == where_.end())
            return false;
        order_.splice(order_.begin(), order_, it->second);
        return true;
    }

    /** @pre block is not resident. @return the evicted block, if any */
    std::optional<trace::BlockId>
    insert(trace::BlockId block)
    {
        std::optional<trace::BlockId> evicted;
        if (where_.size() >= capacity_) {
            evicted = victim();
            erase(*evicted);
        }
        order_.push_front(block);
        where_[block] = order_.begin();
        return evicted;
    }

    bool
    erase(trace::BlockId block)
    {
        const auto it = where_.find(block);
        if (it == where_.end())
            return false;
        order_.erase(it->second);
        where_.erase(it);
        return true;
    }

    /** The epoch swap: retained blocks keep their place, new ones are
     * pushed hot in install order. */
    cache::BatchReplaceResult
    batchReplace(const std::vector<trace::BlockId> &new_set)
    {
        cache::BatchReplaceResult result;
        std::vector<trace::BlockId> install;
        std::unordered_set<trace::BlockId> incoming;
        for (trace::BlockId b : new_set) {
            if (install.size() >= capacity_)
                break;
            if (incoming.insert(b).second)
                install.push_back(b);
        }
        for (auto it = order_.begin(); it != order_.end();) {
            if (incoming.count(*it)) {
                ++result.retained;
                ++it;
            } else {
                where_.erase(*it);
                it = order_.erase(it);
                ++result.evicted;
            }
        }
        for (trace::BlockId b : install) {
            if (contains(b))
                continue;
            order_.push_front(b);
            where_[b] = order_.begin();
            ++result.allocated;
        }
        return result;
    }

    void
    setProtected(std::unordered_set<trace::BlockId> blocks)
    {
        protected_ = std::move(blocks);
    }

    /** Section 3.1 oracle scan: rotate protected cold blocks to the
     * hot end, return the first unprotected one; LRU tail if all are
     * protected. */
    trace::BlockId
    victim()
    {
        for (size_t scanned = 0, lap = order_.size(); scanned < lap;
             ++scanned) {
            const auto cold = std::prev(order_.end());
            if (!protected_.count(*cold))
                return *cold;
            order_.splice(order_.begin(), order_, cold);
        }
        return order_.back();
    }

    size_t size() const { return where_.size(); }

    /** Resident blocks, hottest first. */
    std::vector<trace::BlockId>
    contents() const
    {
        return {order_.begin(), order_.end()};
    }

  private:
    uint64_t capacity_;
    std::list<trace::BlockId> order_;
    std::unordered_map<trace::BlockId, std::list<trace::BlockId>::iterator>
        where_;
    std::unordered_set<trace::BlockId> protected_;
};

} // namespace testing
} // namespace sievestore

#endif // SIEVESTORE_TESTS_REFERENCE_LRU_HPP
