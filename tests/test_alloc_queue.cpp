/**
 * @file
 * Exact-order proof for core::AllocQueue against the per-block heap
 * and pending set it replaces (tests/reference_alloc_queue.hpp).
 *
 * The queue's run path commits a request's allocations front to back
 * and spills into the heap on a tie or when a request starts with run
 * entries in flight. The claim is that none of this is observable:
 * every drain pops the same (completion, block, new_io_unit) sequence
 * as the reference, and every in-flight query answers the same, under
 * request streams built to hit each path — ties (latency below the
 * block count, latency 0), overlapping requests, partial drains,
 * day-end drains between requests and end-of-trace drains.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/alloc_queue.hpp"
#include "reference_alloc_queue.hpp"
#include "trace/expand.hpp"
#include "trace/request.hpp"
#include "util/random.hpp"

namespace {

using namespace sievestore;
using core::AllocQueue;
using core::PendingAlloc;
using sievestore::testing::ReferenceAllocQueue;
using sievestore::util::Rng;

/** Drain both queues to `up_to` and require identical pops. */
void
drainBoth(AllocQueue &q, ReferenceAllocQueue &ref, util::TimeUs up_to,
          const std::string &where)
{
    std::vector<PendingAlloc> got, want;
    q.drain(up_to, [&](const PendingAlloc &ev) { got.push_back(ev); });
    ref.drain(up_to, [&](const PendingAlloc &ev) { want.push_back(ev); });
    ASSERT_EQ(got.size(), want.size()) << where;
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].completion, want[i].completion)
            << where << " pop " << i;
        ASSERT_EQ(got[i].block, want[i].block) << where << " pop " << i;
        ASSERT_EQ(got[i].new_io_unit, want[i].new_io_unit)
            << where << " pop " << i;
    }
    ASSERT_EQ(q.size(), ref.size()) << where;
}

/** Which corners of the queue one stream reached. */
struct Coverage
{
    uint64_t tie_requests = 0;     ///< started empty, then tied
    uint64_t overlap_requests = 0; ///< started with allocations in flight
    uint64_t in_flight_hits = 0;   ///< a block found already in flight
    uint64_t partial_drains = 0;   ///< a day-end drain that left work
};

/**
 * One random request stream driven through both queues the way
 * Appliance drives them: drain at each request's start, then for each
 * block an in-flight query and, on a miss the policy allocates, a push
 * at the block's interpolated completion. Adds what it reached to
 * `cov`.
 */
void
runStream(uint64_t seed, int requests, uint64_t key_space, Coverage &cov)
{
    AllocQueue q;
    ReferenceAllocQueue ref;
    Rng rng(seed);
    util::TimeUs t = 0;
    const std::string label = "seed " + std::to_string(seed);

    for (int r = 0; r < requests; ++r) {
        const std::string where = label + " request " + std::to_string(r);
        trace::Request req;
        switch (rng.nextBelow(4)) {
          case 0: t += 0; break;                          // same instant
          case 1: t += rng.nextBelow(200); break;         // dense overlap
          case 2: t += rng.nextBelow(20000); break;       // some overlap
          default: t += rng.nextBelow(2000000); break;    // queue drains
        }
        req.time = t;
        req.volume = static_cast<trace::VolumeId>(rng.nextBelow(2));
        req.offset_blocks = rng.nextBelow(key_space);
        req.length_blocks = 1 + static_cast<uint32_t>(rng.nextBelow(96));
        switch (rng.nextBelow(4)) {
          case 0: req.latency_us = 0; break; // every block ties
          case 1: // below the block count: some blocks tie
            req.latency_us = static_cast<uint32_t>(
                rng.nextBelow(req.length_blocks));
            break;
          default:
            req.latency_us = static_cast<uint32_t>(rng.nextBelow(40000));
            break;
        }

        // A drain that is not a request start: the day-end drain of
        // finishDay, at any instant up to this request.
        if (rng.nextBool(0.1)) {
            const util::TimeUs up_to = req.time - rng.nextBelow(req.time + 1);
            drainBoth(q, ref, up_to, where + " day-end drain");
            if (::testing::Test::HasFatalFailure())
                return;
            if (q.size() != 0)
                ++cov.partial_drains;
        }

        drainBoth(q, ref, req.time, where + " start drain");
        if (::testing::Test::HasFatalFailure())
            return;
        const bool started_empty = q.size() == 0;
        if (!started_empty)
            ++cov.overlap_requests;
        // In-flight answers for blocks this request has not pushed.
        for (int k = 0; k < 4; ++k) {
            const trace::BlockId b = trace::makeBlockId(
                static_cast<trace::VolumeId>(rng.nextBelow(2)),
                rng.nextBelow(key_space + 96));
            EXPECT_EQ(q.inFlight(b), ref.inFlight(b)) << where;
        }

        const double alloc_p = rng.nextBool(0.5) ? 1.0 : 0.6;
        util::TimeUs last = 0;
        bool pushed = false, tied = false;
        uint64_t last_alloc_page = UINT64_MAX;
        for (uint32_t i = 0; i < req.length_blocks; ++i) {
            const trace::BlockId b = req.blockAt(i);
            const bool in_flight = q.inFlight(b);
            ASSERT_EQ(in_flight, ref.inFlight(b)) << where << " block " << i;
            if (in_flight) {
                ++cov.in_flight_hits;
                continue;
            }
            if (!rng.nextBool(alloc_p))
                continue;
            const util::TimeUs c = trace::interpolatedCompletion(req, i);
            tied = tied || (pushed && c == last);
            pushed = true;
            last = c;
            const uint64_t page = trace::pageOf(b);
            const PendingAlloc ev{c, b, page != last_alloc_page};
            last_alloc_page = page;
            q.push(ev);
            ref.push(ev);
        }
        if (started_empty && tied)
            ++cov.tie_requests;
        ASSERT_EQ(q.size(), ref.size()) << where;
        q.checkInvariants();

        // End of trace: everything left commits, and the next
        // request starts on an empty queue.
        if (rng.nextBool(0.02)) {
            drainBoth(q, ref, UINT64_MAX, where + " end-of-trace drain");
            if (::testing::Test::HasFatalFailure())
                return;
            EXPECT_EQ(q.size(), 0u) << where;
        }
    }
    drainBoth(q, ref, UINT64_MAX, label + " final drain");
    q.checkInvariants();
}

TEST(AllocQueueDifferential, PopsInReferenceOrder)
{
    Coverage total;
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        // Narrow key spaces make requests re-touch in-flight blocks;
        // wide ones keep most pushes on the run path.
        runStream(seed, 3000, seed % 2 == 0 ? 256 : 1 << 16, total);
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
    // The streams must reach every path the claim covers.
    EXPECT_GT(total.tie_requests, 100u);
    EXPECT_GT(total.overlap_requests, 100u);
    EXPECT_GT(total.in_flight_hits, 100u);
    EXPECT_GT(total.partial_drains, 100u);
}

TEST(AllocQueueDifferential, TiedRunPopsInHeapOrder)
{
    // One latency-0 request: every completion ties, so the pop order
    // is the heap array's, not the push order. The first push enters
    // the run; the second spills it.
    AllocQueue q;
    ReferenceAllocQueue ref;
    for (trace::BlockId b = 0; b < 9; ++b) {
        const PendingAlloc ev{100, b, b % 8 == 0};
        ASSERT_FALSE(q.inFlight(b));
        q.push(ev);
        ref.push(ev);
    }
    q.checkInvariants();
    EXPECT_TRUE(q.inFlight(3));
    drainBoth(q, ref, 100, "tied request");
}

TEST(AllocQueueDifferential, PartialDrainSpillsSurvivors)
{
    // A strictly increasing run, half committed by a drain: the
    // survivors move to the heap and answer in-flight queries.
    AllocQueue q;
    ReferenceAllocQueue ref;
    for (trace::BlockId b = 0; b < 10; ++b) {
        const PendingAlloc ev{10 * (b + 1), b, true};
        q.push(ev);
        ref.push(ev);
    }
    drainBoth(q, ref, 50, "partial drain");
    q.checkInvariants();
    EXPECT_FALSE(q.inFlight(4));
    EXPECT_TRUE(q.inFlight(5));
    EXPECT_EQ(q.size(), 5u);
    // A later tie lands in the heap beside the survivors.
    const PendingAlloc tie{60, 42, false};
    q.push(tie);
    ref.push(tie);
    q.checkInvariants();
    drainBoth(q, ref, UINT64_MAX, "final drain");
    EXPECT_EQ(q.size(), 0u);
}

} // namespace
