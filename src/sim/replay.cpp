/**
 * @file
 * The replay engine behind sim::replay (see DESIGN.md §3).
 *
 * Threaded replay: the calling thread routes each request into a
 * bounded SPSC queue per node, in items of up to kQueueBatchRequests
 * requests, and pushes a day-end marker to *every* queue at each
 * calendar-day crossing after flushing every partial item. Each worker
 * drains its queues strictly in order, so every node sees the request
 * / finishDay sequence of the inline path and its reports are
 * bit-identical without any barrier. The day barrier of deterministic
 * mode only gives the cross-node audit a consistent cut.
 *
 * Deadlock-freedom: workers poll their queues non-blockingly and
 * round-robin, so a full queue is always eventually drained by its
 * owner; the reader blocks only on a full queue, and every item that
 * precedes a barrier round is already enqueued before the reader can
 * block on the next round's items.
 *
 * Failure: an exception inside a node (processBatch, finishDay,
 * finishTrace) stops its worker, which records it, raises the shared
 * abort flag and releases the day barrier. The other workers leave at
 * their next idle poll or barrier, the reader gives up once it finds a
 * queue full with the flag raised (it reads the flag only then), and
 * the calling thread rethrows the recorded exception after the join.
 */

#include "sim/replay.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

#include "sim/batch.hpp"
#include "sim/driver.hpp"
#include "util/alloc_guard.hpp"
#include "util/hashing.hpp"
#include "util/logging.hpp"
#include "util/spsc_queue.hpp"
#include "util/thread_annotations.hpp"

namespace sievestore {
namespace sim {

bool
defaultCheckInvariants()
{
    if (const char *env = std::getenv("SIEVE_CHECK_INVARIANTS"))
        return std::strcmp(env, "0") != 0;
    return SIEVE_DCHECKS_ENABLED;
}

size_t
shardOf(trace::BlockId block, size_t shards, uint64_t seed)
{
    // Page-granular so a 4 KB unit never straddles nodes.
    const uint64_t key =
        (static_cast<uint64_t>(trace::volumeOf(block)) << 48) |
        trace::pageOf(block);
    return static_cast<size_t>(
        util::reduceRange(util::seededHash(key, seed), shards));
}

namespace {

using Nodes = std::span<core::Appliance *const>;

/**
 * Bin every request of `slice` by node as the route directs. The route
 * is switched on once per slice, so each per-request loop makes direct
 * (inlinable) calls only.
 */
template <typename Flush>
void
routeSlice(Route route, std::span<const trace::Request> slice,
           RequestBatcher<Flush> &batcher)
{
    const size_t nodes = batcher.bins();
    auto bin = [&batcher](size_t node, const trace::Request &req) {
        batcher.add(node, req);
    };
    switch (route.kind) {
      case Route::Kind::Whole:
        for (const trace::Request &req : slice)
            bin(0, req);
        return;
      case Route::Kind::ByPage:
        for (const trace::Request &req : slice)
            forEachSubrequest(req, nodes, route.seed, bin);
        return;
      case Route::Kind::ByServer:
        for (const trace::Request &req : slice) {
            if (req.server >= nodes)
                util::fatal("request from server %u but only %zu nodes",
                            unsigned(req.server), nodes);
            bin(req.server, req);
        }
        return;
    }
}

void
replayInline(trace::TraceReader &reader, Nodes nodes, Route route,
             const ReplayOptions &options)
{
    auto close_day = [&](int day) {
        for (core::Appliance *node : nodes)
            node->finishDay(day);
        if (options.check_invariants)
            checkNodeInvariants(nodes);
    };
    if (route.kind == Route::Kind::Whole) {
        core::Appliance &node = *nodes[0];
        pumpBatches(
            reader, options.batch,
            [&node](std::span<const trace::Request> slice) {
                node.processBatch(slice);
            },
            close_day);
    } else {
        // Per-node accumulation: requests buffer until a node's bin
        // fills or a day ends, then hit that node as one processBatch.
        auto deliver = [nodes](size_t node,
                               std::span<const trace::Request> reqs) {
            nodes[node]->processBatch(reqs);
        };
        RequestBatcher<decltype(deliver)> batcher(nodes.size(),
                                                  options.batch, deliver);
        pumpBatches(
            reader, options.batch,
            [&](std::span<const trace::Request> slice) {
                routeSlice(route, slice, batcher);
            },
            [&](int day) {
                batcher.flushAll();
                close_day(day);
            });
        batcher.flushAll();
    }
    for (core::Appliance *node : nodes)
        node->finishTrace();
}

/**
 * One queue entry: a batch of routed requests (all of one calendar
 * day), or a day boundary. The payload is a fixed POD array written
 * and consumed in place in the ring slot (pushWith / tryConsumeWith),
 * so only the count-prefix of `reqs` is ever copied.
 */
struct Item
{
    enum class Kind : uint8_t { Requests, DayEnd };
    Kind kind = Kind::Requests;
    /** Valid entries in `reqs` (Requests only). */
    uint16_t count = 0;
    /** Day being closed (DayEnd only). */
    int day = 0;
    std::array<trace::Request, kQueueBatchRequests> reqs;
};

using ItemQueue = util::SpscQueue<Item>;

/**
 * Cyclic barrier with a serial phase: the last thread to arrive runs
 * `serial_fn` while the others are parked, then everyone is released.
 * The mutex hand-off makes every worker's finishDay effects visible
 * to the serial phase and vice versa. The state is GUARDED_BY(mu),
 * the wait predicate included (REQUIRES(mu): it runs under the
 * reacquired lock). abort() releases every waiter for good, so a
 * failed worker never leaves the others parked.
 */
class DayBarrier
{
  public:
    explicit DayBarrier(size_t parties) : parties_(parties) {}

    /** @return false once the barrier is aborted (no serial phase) */
    template <typename Fn>
    bool
    arriveAndWait(Fn &&serial_fn)
    {
        util::MutexLock lock(mu);
        if (aborted)
            return false;
        if (++arrived == parties_) {
            serial_fn();
            arrived = 0;
            ++generation;
            cv.notify_all();
            return true;
        }
        const uint64_t gen = generation;
        // condition_variable_any waits on the annotated (BasicLockable)
        // scoped lock.
        cv.wait(lock, [&]() REQUIRES(mu) {
            return generation != gen || aborted;
        });
        return generation != gen;
    }

    void
    abort()
    {
        util::MutexLock lock(mu);
        aborted = true;
        cv.notify_all();
    }

  private:
    util::Mutex mu;
    std::condition_variable_any cv;
    const size_t parties_;
    size_t arrived GUARDED_BY(mu) = 0;
    uint64_t generation GUARDED_BY(mu) = 0;
    bool aborted GUARDED_BY(mu) = false;
};

/** Where one node stands within the current replay round. */
enum class Phase : uint8_t { Running, AtDayEnd, Closed };

/** Everything a worker thread needs; the nodes are not owned. */
struct WorkerArgs
{
    std::vector<size_t> owned; ///< node indices, round-robin assigned
    const std::vector<std::unique_ptr<ItemQueue>> *queues = nullptr;
    Nodes nodes;
    DayBarrier *barrier = nullptr; ///< null in free-running mode
    bool audit = false;
    /** Raised by the first worker that fails; shared by all. */
    std::atomic<bool> *aborted = nullptr;
    /** What stopped this worker, read by the caller after the join. */
    std::exception_ptr error;
};

/**
 * Drain whatever node queue `queue` has available. Advances the node
 * through requests until the queue momentarily empties (Running), a
 * day-end marker is consumed (AtDayEnd, day stored in *day_out), or
 * the queue is closed and fully drained (Closed, after finishTrace).
 */
Phase
pollNode(ItemQueue &queue, core::Appliance &node, int *day_out)
{
    // Only the owning worker consumes a node's queue.
    queue.assertConsumerRole();
    for (;;) {
        // The node processes the batch straight out of the ring slot
        // before releasing it; the ring has >= 2 slots, so the reader
        // keeps staging the next item meanwhile.
        bool day_end = false;
        auto consume = [&](const Item &item) {
            if (item.kind == Item::Kind::Requests) {
                node.processBatch(std::span<const trace::Request>(
                    item.reqs.data(), item.count));
            } else {
                node.finishDay(item.day);
                *day_out = item.day;
                day_end = true;
            }
        };
        bool got = queue.tryConsumeWith(consume);
        if (!got && queue.closed()) {
            // Re-check after observing the close flag: items pushed
            // before close() may race with the flag's visibility.
            got = queue.tryConsumeWith(consume);
            if (!got)
                break;
        }
        if (!got)
            return Phase::Running;
        if (day_end)
            return Phase::AtDayEnd;
    }
    node.finishTrace();
    return Phase::Closed;
}

void
driveWorker(const WorkerArgs &args)
{
    const auto &queues = *args.queues;
    const size_t n = args.owned.size();
    std::vector<Phase> phase(n, Phase::Running);
    size_t closed_count = 0;

    while (closed_count < n) {
        // One round: advance every owned node to its next day-end
        // marker (or to close). Non-blocking round-robin polling so a
        // stalled node never prevents draining another — the
        // reader's backpressure depends on it.
        size_t running = n - closed_count;
        int round_day = 0;
        bool saw_day_end = false;
        while (running > 0) {
            bool progressed = false;
            for (size_t k = 0; k < n; ++k) {
                if (phase[k] != Phase::Running)
                    continue;
                const size_t i = args.owned[k];
                int day = 0;
                const Phase p = pollNode(*queues[i], *args.nodes[i], &day);
                if (p == Phase::Running)
                    continue;
                phase[k] = p;
                --running;
                progressed = true;
                if (p == Phase::AtDayEnd) {
                    SIEVE_CHECK(!saw_day_end || day == round_day,
                                "nodes diverged within one round: "
                                "day %d vs %d",
                                day, round_day);
                    saw_day_end = true;
                    round_day = day;
                    if (!args.barrier && args.audit)
                        args.nodes[i]->checkInvariants();
                } else {
                    ++closed_count;
                }
            }
            if (running > 0 && !progressed) {
                if (args.aborted->load(std::memory_order_relaxed))
                    return;
                std::this_thread::yield();
            }
        }

        // The reader pushes each marker to every queue before any
        // later item, so a round ends uniformly: either every owned
        // node hit the same day-end or every one closed.
        if (saw_day_end) {
            SIEVE_CHECK(closed_count == 0 || closed_count == n,
                        "round mixed day-end and close markers");
            // Serial phase: every worker has arrived, so all nodes
            // closed `round_day`. Audit the lockstep property and (when
            // enabled) the same cross-node invariants the inline path
            // checks per day.
            auto audit_day = [&args, round_day] {
                for (const core::Appliance *node : args.nodes)
                    SIEVE_CHECK(node->lastFinishedDay() == round_day,
                                "node not in epoch lockstep: "
                                "cursor %d, barrier day %d",
                                node->lastFinishedDay(), round_day);
                if (args.audit)
                    checkNodeInvariants(args.nodes);
            };
            if (args.barrier && !args.barrier->arriveAndWait(audit_day))
                return; // another worker failed

            for (size_t k = 0; k < n; ++k)
                if (phase[k] == Phase::AtDayEnd)
                    phase[k] = Phase::Running;
        }
    }
}

void
runWorker(WorkerArgs &args)
{
    try {
        driveWorker(args);
    } catch (...) {
        // An exception escaping the thread would terminate the
        // process: hand it to the caller instead, and free everyone
        // who could be waiting on this worker.
        args.error = std::current_exception();
        args.aborted->store(true, std::memory_order_release);
        if (args.barrier)
            args.barrier->abort();
    }
}

/**
 * The reader's hand-off into `queue`. The abort flag is read only
 * while the queue is full, so the non-blocking path never touches it;
 * a full queue whose worker failed would otherwise block forever.
 */
template <typename Fn>
void
pushOrAbort(ItemQueue &queue, const std::atomic<bool> &aborted, Fn &&fill)
{
    queue.assertProducerRole();
    while (!queue.tryPushWith(fill)) {
        if (aborted.load(std::memory_order_acquire))
            util::fatal("replay worker failed");
        std::this_thread::yield();
    }
}

void
replayThreaded(trace::TraceReader &reader, Nodes nodes, Route route,
               const ReplayOptions &options)
{
    if (options.queue_depth == 0)
        util::fatal("parallel replay requires queue_depth >= 1");
    const size_t workers = std::min(options.threads, nodes.size());

    // queue_depth counts buffered *requests*, so the ring's item
    // capacity shrinks as hand-off batches grow.
    const size_t queue_batch =
        std::min(options.batch, kQueueBatchRequests);
    const size_t item_depth =
        std::max<size_t>(2, options.queue_depth / queue_batch);

    std::vector<std::unique_ptr<ItemQueue>> queues;
    for (size_t i = 0; i < nodes.size(); ++i)
        queues.push_back(std::make_unique<ItemQueue>(item_depth));

    DayBarrier barrier(workers);
    std::atomic<bool> aborted{false};
    std::vector<WorkerArgs> args(workers);
    for (size_t w = 0; w < workers; ++w) {
        for (size_t i = w; i < nodes.size(); i += workers)
            args[w].owned.push_back(i);
        args[w].queues = &queues;
        args[w].nodes = nodes;
        args[w].barrier = options.deterministic ? &barrier : nullptr;
        args[w].audit = options.check_invariants;
        args[w].aborted = &aborted;
    }

    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w)
        threads.emplace_back(runWorker, std::ref(args[w]));

    // Reader: the inline path's day/route logic, staging each bin
    // straight into a ring slot — one copy, no heap, even while
    // blocked on a full queue.
    auto deliver = [&queues, &aborted](
                       size_t node, std::span<const trace::Request> reqs) {
        // The reader thread is the sole producer for every queue.
        pushOrAbort(*queues[node], aborted, [&reqs](Item &slot) {
            slot.kind = Item::Kind::Requests;
            slot.count = static_cast<uint16_t>(reqs.size());
            std::copy(reqs.begin(), reqs.end(), slot.reqs.begin());
        });
    };
    RequestBatcher<decltype(deliver)> batcher(nodes.size(), queue_batch,
                                              deliver);
    auto close_and_join = [&] {
        for (const auto &q : queues) {
            q->assertProducerRole();
            q->close();
        }
        for (std::thread &t : threads)
            t.join();
    };
    // A worker's failure outranks the reader's: the reader's is then
    // only the report that it stopped because of it.
    auto rethrow_worker_error = [&args] {
        for (const WorkerArgs &a : args)
            if (a.error)
                std::rethrow_exception(a.error);
    };
    try {
        pumpBatches(
            reader, options.batch,
            [&](std::span<const trace::Request> slice) {
                SIEVE_ASSERT_NO_ALLOC;
                routeSlice(route, slice, batcher);
            },
            [&](int day) {
                SIEVE_ASSERT_NO_ALLOC;
                // Flush every partial batch before the marker so no
                // request is delivered after its day's boundary.
                batcher.flushAll();
                for (const auto &q : queues) {
                    pushOrAbort(*q, aborted, [day](Item &slot) {
                        slot.kind = Item::Kind::DayEnd;
                        slot.day = day;
                        slot.count = 0;
                    });
                }
            });
        {
            SIEVE_ASSERT_NO_ALLOC;
            batcher.flushAll();
        }
    } catch (...) {
        // A malformed trace (fatal in the pump) or an unroutable
        // request (fatal in the route) must still close the queues and
        // join the workers before unwinding, or ~thread() would
        // terminate the process.
        close_and_join();
        rethrow_worker_error();
        throw;
    }
    close_and_join();
    rethrow_worker_error();
}

} // namespace

void
replay(trace::TraceReader &reader, Nodes nodes, Route route,
       const ReplayOptions &options)
{
    if (nodes.empty())
        util::fatal("replay requires at least one node");
    if (options.batch == 0)
        util::fatal("batched replay requires a batch size >= 1");
    if (options.threads == 0)
        replayInline(reader, nodes, route, options);
    else
        replayThreaded(reader, nodes, route, options);
    if (options.check_invariants)
        checkNodeInvariants(nodes);
}

void
replay(trace::TraceReader &reader,
       const std::vector<std::unique_ptr<core::Appliance>> &nodes,
       Route route, const ReplayOptions &options)
{
    std::vector<core::Appliance *> borrowed;
    borrowed.reserve(nodes.size());
    for (const auto &node : nodes)
        borrowed.push_back(node.get());
    replay(reader, borrowed, route, options);
}

void
runTrace(trace::TraceReader &reader, core::Appliance &appliance,
         const DriverOptions &options)
{
    ReplayOptions inline_options;
    static_cast<DriverOptions &>(inline_options) = options;
    core::Appliance *node = &appliance;
    replay(reader, Nodes(&node, 1), Route::whole(), inline_options);
}

} // namespace sim
} // namespace sievestore
