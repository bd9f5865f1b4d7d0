/**
 * @file
 * The batching facade of sim::replay (sim/replay.hpp).
 *
 * TraceReader::nextBatch() decodes N requests per virtual call,
 * pumpBatches() slices each decoded batch at calendar-day boundaries
 * and emits day-end events between slices, and RequestBatcher bins
 * routed requests per node so each hand-off — Appliance::processBatch
 * or one SPSC push — happens once per batch. pumpBatches is also the
 * day-slicing seam of the profiling passes (perDayTopBlocks,
 * elasticTopPercentCapacities), so every consumer in src/sim shares
 * its time-order check.
 *
 * A slice never straddles a day, and replay flushes every bin before
 * a day-end event, so batching changes only the grouping of each
 * node's request stream, never its order or its interleaving with
 * finishDay() (test_batch_pipeline, test_parallel_replay). The
 * single-day slice is also what lets processBatch hoist its day-report
 * lookup and no-alloc region once per slice (DESIGN.md §12).
 */

#ifndef SIEVESTORE_SIM_BATCH_HPP
#define SIEVESTORE_SIM_BATCH_HPP

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "trace/trace_reader.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace sievestore {
namespace sim {

/**
 * Drain `reader` in decode batches of `batch` requests, slicing each
 * batch at calendar-day boundaries.
 *
 * @param on_slice   invoked with each maximal single-day run of
 *                   requests (span into an internal buffer, valid for
 *                   the duration of the call)
 * @param on_day_end invoked once per crossed day boundary, with the
 *                   day being closed, strictly between the slices it
 *                   separates (including runs of empty days)
 *
 * Fatals on batch == 0 and on a request whose time precedes its
 * predecessor's (the error names the request's 1-based ordinal in
 * the pumped stream and both timestamps): the appliance assumes
 * in-day time order, so a disordered trace is never replayed.
 */
template <typename OnSlice, typename OnDayEnd>
void
pumpBatches(trace::TraceReader &reader, size_t batch, OnSlice &&on_slice,
            OnDayEnd &&on_day_end)
{
    if (batch == 0)
        util::fatal("batched replay requires a batch size >= 1");
    std::vector<trace::Request> buf(batch);
    uint64_t pumped = 0; // requests decoded before this batch
    util::TimeUs last_time = 0;
    int current_day = 0;
    for (;;) {
        const size_t n = reader.nextBatch({buf.data(), buf.size()});
        if (n == 0)
            break;
        for (size_t i = 0; i < n; ++i) {
            if (buf[i].time < last_time)
                util::fatal("trace is not time-ordered: request %llu at "
                            "%llu us follows one at %llu us",
                            static_cast<unsigned long long>(pumped + i + 1),
                            static_cast<unsigned long long>(buf[i].time),
                            static_cast<unsigned long long>(last_time));
            last_time = buf[i].time;
        }
        if (pumped == 0)
            current_day = static_cast<int>(util::dayOf(buf[0].time));
        pumped += n;
        size_t start = 0;
        while (start < n) {
            const int day =
                static_cast<int>(util::dayOf(buf[start].time));
            while (current_day < day) {
                on_day_end(current_day);
                ++current_day;
            }
            size_t end = start + 1;
            while (end < n &&
                   static_cast<int>(util::dayOf(buf[end].time)) == day)
                ++end;
            on_slice(std::span<const trace::Request>(buf.data() + start,
                                                     end - start));
            start = end;
        }
    }
}

/**
 * Fixed-capacity per-bin request accumulator: the hand-off half of the
 * facade. Requests routed to a bin (a node) are buffered
 * until the bin fills or flushAll() is called; `flush(bin, span)`
 * delivers each non-empty bin downstream. All storage is allocated at
 * construction, so add() is allocation-free and may run inside a
 * no-alloc region.
 */
template <typename Flush>
class RequestBatcher
{
  public:
    /**
     * @param bins     number of destinations
     * @param capacity requests buffered per bin before an automatic
     *                 flush (clamped to >= 1)
     * @param flush    callable (size_t bin, span<const Request>)
     */
    RequestBatcher(size_t bins, size_t capacity, Flush flush)
        : cap(std::max<size_t>(1, capacity)), flush_(std::move(flush)),
          buf(bins * cap), fill(bins, 0)
    {
    }

    /** Number of destinations. */
    size_t bins() const { return fill.size(); }

    /** Append one request to `bin`, flushing the bin when full. */
    void
    add(size_t bin, const trace::Request &req)
    {
        trace::Request *base = buf.data() + bin * cap;
        base[fill[bin]++] = req;
        if (fill[bin] == cap)
            flushBin(bin);
    }

    /**
     * Flush every partially-filled bin. Replay calls this before every
     * day-end event and at end of trace, so no request is ever held
     * across a finishDay() and bins never mix calendar days.
     */
    void
    flushAll()
    {
        for (size_t bin = 0; bin < fill.size(); ++bin)
            flushBin(bin);
    }

  private:
    void
    flushBin(size_t bin)
    {
        if (fill[bin] == 0)
            return;
        flush_(bin, std::span<const trace::Request>(
                        buf.data() + bin * cap, fill[bin]));
        fill[bin] = 0;
    }

    size_t cap;
    Flush flush_;
    std::vector<trace::Request> buf;
    std::vector<size_t> fill;
};

} // namespace sim
} // namespace sievestore

#endif // SIEVESTORE_SIM_BATCH_HPP
