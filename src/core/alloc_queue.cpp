#include "core/alloc_queue.hpp"

#include "util/alloc_guard.hpp"
#include "util/check.hpp"

namespace sievestore {
namespace core {

namespace {

/** Initial capacity of each in-flight structure: 1024 entries keeps
 * the run's reserve at 24 KiB. */
constexpr size_t kPendingReserve = 1024;

} // namespace

AllocQueue::AllocQueue()
{
    run_.reserve(kPendingReserve);
    heap_.reserve(kPendingReserve);
    pending_.reserve(kPendingReserve);
}

void
AllocQueue::push(const PendingAlloc &ev)
{
    if (heap_.empty()) {
        if (run_.empty() || ev.completion > run_.back().completion) {
            appendRun(ev);
            return;
        }
        spill(0); // a tie: the heap decides its order
    }
    notePending(ev.block);
    pushHeap(ev);
}

void
AllocQueue::spill(size_t committed)
{
    for (const PendingAlloc &ev : run_)
        pushHeap(ev);
    for (size_t i = 0; i < committed; ++i) {
        std::pop_heap(heap_.begin(), heap_.end(),
                      std::greater<PendingAlloc>());
        heap_.pop_back();
    }
    for (const PendingAlloc &ev : heap_)
        notePending(ev.block);
    run_.clear();
}

void
AllocQueue::appendRun(const PendingAlloc &ev)
{
    if (run_.size() == run_.capacity()) {
        // Amortized growth is the one legitimate allocation here;
        // exempt it so the batch-level no-alloc region stays armed
        // across it.
        util::AllocGuardDisarm growth;
        run_.reserve(run_.capacity() * 2);
    }
    run_.push_back(ev);
}

void
AllocQueue::pushHeap(const PendingAlloc &ev)
{
    if (heap_.size() == heap_.capacity()) {
        // Amortized heap growth, exempt like the run's.
        util::AllocGuardDisarm growth;
        heap_.reserve(std::max<size_t>(kPendingReserve,
                                       heap_.capacity() * 2));
    }
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(),
                   std::greater<PendingAlloc>());
}

void
AllocQueue::notePending(trace::BlockId block)
{
    if (!pending_.hasCapacityFor(1)) {
        util::AllocGuardDisarm growth; // amortized table growth
        pending_.reserve(std::max<size_t>(kPendingReserve,
                                          pending_.size() * 2));
    }
    pending_.findOrInsert(block);
}

void
AllocQueue::checkInvariants() const
{
    if (!run_.empty())
        SIEVE_CHECK(heap_.empty() && pending_.empty(),
                    "allocation run of %zu beside %zu heap entries and "
                    "%zu pending blocks",
                    run_.size(), heap_.size(), pending_.size());
    for (size_t i = 1; i < run_.size(); ++i)
        SIEVE_CHECK(run_[i - 1].completion < run_[i].completion,
                    "allocation run completions not strictly "
                    "increasing at entry %zu",
                    i);
    SIEVE_CHECK(std::is_heap(heap_.begin(), heap_.end(),
                             std::greater<PendingAlloc>()),
                "allocation queue lost its heap ordering");
    // Pending set == the heap's blocks: a duplicate-free heap whose
    // blocks are all pending, and no more pending blocks than that.
    std::vector<trace::BlockId> blocks;
    blocks.reserve(heap_.size());
    for (const PendingAlloc &ev : heap_) {
        SIEVE_CHECK(pending_.contains(ev.block),
                    "queued allocation of block %llx is not pending",
                    static_cast<unsigned long long>(ev.block));
        blocks.push_back(ev.block);
    }
    std::sort(blocks.begin(), blocks.end());
    SIEVE_CHECK(std::adjacent_find(blocks.begin(), blocks.end()) ==
                    blocks.end(),
                "a block is queued for allocation twice");
    SIEVE_CHECK(pending_.size() == heap_.size(),
                "%zu pending blocks vs %zu queued allocations",
                pending_.size(), heap_.size());
    pending_.checkInvariants();
}

} // namespace core
} // namespace sievestore
