/**
 * @file
 * The appliance's allocation queue: allocations waiting for the
 * completion time of the request that triggered them (Section 4).
 *
 * The ordering authority is a min-heap on completion time, kept as a
 * raw vector driven by std::push_heap/pop_heap with the std::greater
 * comparator a std::priority_queue would use. Equal-completion ties
 * pop in whatever order the heap array yields, and that order feeds
 * LRU recency, so it is part of the model output. A pending set beside
 * the heap answers "is this block already in flight?".
 *
 * The common case needs neither. A request that starts with nothing in
 * flight appends its allocations to a FIFO *run*, and the next drain
 * commits them front to back. Within one request completions are
 * non-decreasing in block index (trace::interpolatedCompletion) and
 * the blocks are distinct, so while every appended completion is
 * strictly above the last one, the run's order is exactly the heap's
 * pop order and no in-flight probe can hit. The run is *spilled* into
 * the heap when that stops holding:
 *  - push() of an entry whose completion is not above the run's last
 *    one (a tie, latency_us < length_blocks);
 *  - a drain that leaves run entries in flight, i.e. the next request
 *    would start with allocations pending.
 * A spill replays the run's exact history on the heap vector — every
 * push, then the pops the drain already committed — and notes the
 * survivors in the pending set. The heap array is then the one the
 * per-block path would hold, so every later pop, ties included,
 * matches it; the heap path runs until the queue empties again.
 */

#ifndef SIEVESTORE_CORE_ALLOC_QUEUE_HPP
#define SIEVESTORE_CORE_ALLOC_QUEUE_HPP

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "trace/block.hpp"
#include "util/flat_index.hpp"
#include "util/sim_time.hpp"

namespace sievestore {
namespace core {

/** Pending allocation, applied at block completion time. */
struct PendingAlloc
{
    util::TimeUs completion;
    trace::BlockId block;
    bool new_io_unit; ///< first block of its 4 KB unit in the request

    bool
    operator>(const PendingAlloc &o) const
    {
        return completion > o.completion;
    }
};

/** Allocations in flight, popped in completion order (see file doc). */
class AllocQueue
{
  public:
    AllocQueue();

    /**
     * Schedule an allocation. Entries pushed between two drains are
     * one request's: their blocks are distinct and were each checked
     * with inFlight() first.
     */
    void push(const PendingAlloc &ev);

    /** True while `block` has an allocation in flight. @pre `block`
     * was not pushed since the last drain. */
    bool
    inFlight(trace::BlockId block) const
    {
        return !pending_.empty() && pending_.contains(block);
    }

    /** Start the in-flight probe's line toward L1 (no-op while the
     * pending set is empty, as it always is on the run path). */
    void
    prefetch(trace::BlockId block) const
    {
        if (!pending_.empty())
            pending_.prefetch(block);
    }

    /**
     * Pop every allocation with completion <= `up_to`, in completion
     * order, calling `commit(const PendingAlloc &)` on each. Run
     * entries left in flight are spilled into the heap.
     */
    template <class Commit>
    void
    drain(util::TimeUs up_to, Commit &&commit)
    {
        size_t head = 0;
        while (head < run_.size() && run_[head].completion <= up_to)
            commit(run_[head++]);
        if (head == run_.size())
            run_.clear();
        else
            spill(head);
        while (!heap_.empty() && heap_.front().completion <= up_to) {
            const PendingAlloc ev = heap_.front();
            std::pop_heap(heap_.begin(), heap_.end(),
                          std::greater<PendingAlloc>());
            heap_.pop_back();
            pending_.erase(ev.block);
            commit(ev);
        }
    }

    /** Allocations in flight. */
    size_t size() const { return run_.size() + heap_.size(); }

    /**
     * Audit the queue: a non-empty run implies an empty heap and an
     * empty pending set; run completions strictly increase; the heap
     * keeps its ordering; the pending set holds exactly the heap's
     * blocks. O(size); aborts on violation.
     */
    void checkInvariants() const;

  private:
    /** Replay the run (all pushes, then `committed` pops) onto the
     * heap and note the survivors as pending. */
    void spill(size_t committed);
    /** Run append with growth exemption. */
    void appendRun(const PendingAlloc &ev);
    /** Heap push with growth exemption. */
    void pushHeap(const PendingAlloc &ev);
    /** Pending-set insert with growth exemption. */
    void notePending(trace::BlockId block);

    /** The current request's allocations, completions strictly
     * increasing (empty whenever the heap is not). */
    std::vector<PendingAlloc> run_;
    /** Min-heap on completion (std::push_heap/pop_heap order). */
    std::vector<PendingAlloc> heap_;
    /** The heap's blocks (payload unused). */
    util::FlatIndex<uint8_t> pending_;
};

} // namespace core
} // namespace sievestore

#endif // SIEVESTORE_CORE_ALLOC_QUEUE_HPP
