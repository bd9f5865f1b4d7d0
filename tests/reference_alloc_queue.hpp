/**
 * @file
 * Test-only model of the appliance's allocation queue as a plain
 * per-block queue: every allocation is a min-heap push (a raw vector
 * driven by std::push_heap/pop_heap on completion time, the order a
 * std::priority_queue with std::greater yields) plus a pending-set
 * insert, and every drain pops the heap. Equal-completion ties pop in
 * the heap array's order, which is the order core::AllocQueue must
 * reproduce exactly. It shares no code with the queue it checks.
 */

#ifndef SIEVESTORE_TESTS_REFERENCE_ALLOC_QUEUE_HPP
#define SIEVESTORE_TESTS_REFERENCE_ALLOC_QUEUE_HPP

#include <algorithm>
#include <cstddef>
#include <unordered_set>
#include <vector>

#include "core/alloc_queue.hpp"
#include "trace/block.hpp"
#include "util/sim_time.hpp"

namespace sievestore {
namespace testing {

class ReferenceAllocQueue
{
  public:
    void
    push(const core::PendingAlloc &ev)
    {
        pending_.insert(ev.block);
        heap_.push_back(ev);
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    bool
    inFlight(trace::BlockId block) const
    {
        return pending_.count(block) != 0;
    }

    template <class Commit>
    void
    drain(util::TimeUs up_to, Commit &&commit)
    {
        while (!heap_.empty() && heap_.front().completion <= up_to) {
            const core::PendingAlloc ev = heap_.front();
            std::pop_heap(heap_.begin(), heap_.end(), later);
            heap_.pop_back();
            pending_.erase(ev.block);
            commit(ev);
        }
    }

    size_t size() const { return heap_.size(); }

  private:
    static bool
    later(const core::PendingAlloc &a, const core::PendingAlloc &b)
    {
        return a.completion > b.completion;
    }

    std::vector<core::PendingAlloc> heap_;
    std::unordered_set<trace::BlockId> pending_;
};

} // namespace testing
} // namespace sievestore

#endif // SIEVESTORE_TESTS_REFERENCE_ALLOC_QUEUE_HPP
