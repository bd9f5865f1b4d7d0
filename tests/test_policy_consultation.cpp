/**
 * @file
 * How the appliance's request loop consults an AllocationPolicy: every
 * gathered miss of a chunk is prefetched before the in-order decide
 * pass reaches it, for built-in and injected policies alike. Plus the
 * identity and decision plumbing of the built-in policies as their
 * constructors build them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <vector>

#include "core/appliance.hpp"
#include "core/sievestore_c.hpp"
#include "core/unsieved.hpp"
#include "util/random.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using core::AllocDecision;
using util::Rng;

trace::BlockAccess
randomAccess(Rng &rng, uint64_t t)
{
    trace::BlockAccess a;
    a.time = t;
    a.completion = t;
    a.block = rng.nextBelow(1 << 14);
    a.server = static_cast<trace::ServerId>(rng.nextBelow(4));
    a.op = rng.nextBool(0.7) ? trace::Op::Read : trace::Op::Write;
    return a;
}

// ---- identity plumbing --------------------------------------------

TEST(PolicyConsultation, SieveCAblationNamesFlowThroughConfig)
{
    core::SieveStoreCConfig cfg;
    cfg.imct_slots = 1 << 12;
    cfg.mct_only = true;
    EXPECT_STREQ(core::SieveStoreCPolicy(cfg).name(),
                 "SieveStore-C/mct-only");

    cfg.mct_only = false;
    cfg.imct_only = true;
    EXPECT_STREQ(core::SieveStoreCPolicy(cfg).name(),
                 "SieveStore-C/imct-only");
}

// ---- stateless-kind semantics -------------------------------------

TEST(PolicyConsultation, AodAllocatesEveryMissWmnaOnlyReads)
{
    core::AodPolicy aod;
    core::WmnaPolicy wmna;
    Rng rng(3);
    uint64_t t = 0;
    for (int op = 0; op < 1000; ++op) {
        t += rng.nextBelow(1000000);
        const trace::BlockAccess a = randomAccess(rng, t);
        EXPECT_EQ(aod.onMiss(a), AllocDecision::Allocate);
        EXPECT_EQ(wmna.onMiss(a), a.op == trace::Op::Read
                                      ? AllocDecision::Allocate
                                      : AllocDecision::Bypass);
    }
}

// ---- request-loop consultation order ------------------------------

/** One policy callback, as the recording policy saw it. */
struct PolicyEvent
{
    char kind; ///< 'P' prefetchMiss, 'p' prefetchHit, 'M' onMiss,
               ///< 'H' onHit
    trace::BlockId block;

    bool
    operator==(const PolicyEvent &o) const
    {
        return kind == o.kind && block == o.block;
    }
};

std::ostream &
operator<<(std::ostream &os, const PolicyEvent &e)
{
    return os << e.kind << trace::blockNrOf(e.block);
}

/**
 * Logs every callback; allocates even-numbered blocks only. The log is
 * reserved up front: on a flat, occupancy-free appliance the callbacks
 * run inside processBatch's armed no-alloc region.
 */
class RecordingPolicy : public core::AllocationPolicy
{
  public:
    static constexpr size_t kLogReserve = 1024;

    explicit RecordingPolicy(std::vector<PolicyEvent> *log) : log_(log)
    {
        log_->reserve(kLogReserve);
    }

    AllocDecision
    onMiss(const trace::BlockAccess &access) override
    {
        log_->push_back({'M', access.block});
        return trace::blockNrOf(access.block) % 2 == 0
                   ? AllocDecision::Allocate
                   : AllocDecision::Bypass;
    }

    void
    prefetchMiss(trace::BlockId block) const override
    {
        log_->push_back({'P', block});
    }

    void
    onHit(const trace::BlockAccess &access) override
    {
        log_->push_back({'H', access.block});
    }

    const char *name() const override { return "recording"; }

  protected:
    std::vector<PolicyEvent> *log_;
};

/**
 * The epoch-batched shape of RecordingPolicy: logs the same callbacks
 * plus prefetchHit (a counting policy pulls its hit lines too), always
 * bypasses, and at the day-0 close returns the even blocks below 100
 * as the next epoch's set.
 */
class RecordingEpochPolicy : public RecordingPolicy
{
  public:
    using RecordingPolicy::RecordingPolicy;

    AllocDecision
    onMiss(const trace::BlockAccess &access) override
    {
        (void)RecordingPolicy::onMiss(access);
        return AllocDecision::Bypass;
    }

    void
    prefetchHit(trace::BlockId block) const override
    {
        log_->push_back({'p', block});
    }

    std::optional<std::vector<trace::BlockId>>
    onDayClose(int day) override
    {
        if (day != 0)
            return std::nullopt;
        std::vector<trace::BlockId> set;
        for (uint64_t nr = 0; nr < 100; nr += 2)
            set.push_back(trace::makeBlockId(1, nr));
        return set;
    }
};

trace::Request
readRequest(uint64_t time, uint64_t offset, uint32_t len)
{
    trace::Request r;
    r.time = time;
    r.volume = 1;
    r.op = trace::Op::Read;
    r.offset_blocks = offset;
    r.length_blocks = len;
    r.latency_us = 1000000;
    return r;
}

/**
 * The callbacks one request should produce: per chunk of
 * BlockCache::kProbeBatch blocks, prefetchMiss for every miss (and,
 * when `hint_hits`, prefetchHit for every hit) in block order, then in
 * block order onHit for each hit and onMiss for each miss whose
 * allocation is not already in flight.
 */
template <typename Resident, typename Pending>
std::vector<PolicyEvent>
expectedEvents(const trace::Request &req, Resident resident,
               Pending pending, bool hint_hits = false)
{
    std::vector<PolicyEvent> out;
    const uint32_t chunk = cache::BlockCache::kProbeBatch;
    for (uint32_t base = 0; base < req.length_blocks; base += chunk) {
        const uint32_t end = std::min(base + chunk, req.length_blocks);
        for (uint32_t i = base; i < end; ++i) {
            if (!resident(req.offset_blocks + i))
                out.push_back({'P', req.blockAt(i)});
            else if (hint_hits)
                out.push_back({'p', req.blockAt(i)});
        }
        for (uint32_t i = base; i < end; ++i) {
            const uint64_t nr = req.offset_blocks + i;
            if (resident(nr))
                out.push_back({'H', req.blockAt(i)});
            else if (!pending(nr))
                out.push_back({'M', req.blockAt(i)});
        }
    }
    return out;
}

/**
 * A test policy injected through the (config, policy) constructor runs
 * the same sieve-prefetch phase as the built-in sieves: each gathered
 * miss is hinted before the decide pass consults it, hits are never
 * hinted, and misses already in flight are hinted but not
 * re-consulted. The appliance is flat and occupancy-free, so the
 * callbacks also run under the armed batch no-alloc region.
 */
TEST(PolicyConsultation, InjectedPolicyIsPrefetchedBeforeEachMiss)
{
    core::ApplianceConfig cfg;
    cfg.cache_blocks = 1024;
    cfg.track_occupancy = false;
    std::vector<PolicyEvent> log;
    core::Appliance app(cfg, std::make_unique<RecordingPolicy>(&log));
    const auto none = [](uint64_t) { return false; };
    const auto even = [](uint64_t nr) { return nr % 2 == 0; };

    // Cold cache: every block misses.
    const trace::Request cold = readRequest(0, 0, 100);
    app.processRequest(cold);
    EXPECT_EQ(log, expectedEvents(cold, none, none));

    // Before the cold request completes: its even blocks are in
    // flight, so they are hinted but not consulted again.
    log.clear();
    const trace::Request overlap = readRequest(1, 50, 100);
    app.processRequest(overlap);
    EXPECT_EQ(log, expectedEvents(overlap, none, [](uint64_t nr) {
                  return nr < 100 && nr % 2 == 0;
              }));

    // After both complete: even blocks hit, odd blocks miss afresh.
    log.clear();
    const trace::Request warm =
        readRequest(util::makeTime(0, 1), 0, 150);
    app.processRequest(warm);
    EXPECT_EQ(log, expectedEvents(warm, even, none));
    app.checkInvariants();
}

/**
 * An epoch-batched policy runs the same consultation order: it never
 * allocates, so the pending set stays empty and every miss is both
 * hinted and consulted; after the day close installs its set, those
 * blocks report as hits, each hinted through prefetchHit first.
 */
TEST(PolicyConsultation, EpochBatchedPolicyConsultsEveryAccessInOrder)
{
    core::ApplianceConfig cfg;
    cfg.cache_blocks = 1024;
    cfg.track_occupancy = false;
    std::vector<PolicyEvent> log;
    core::Appliance app(cfg,
                        std::make_unique<RecordingEpochPolicy>(&log));
    const auto none = [](uint64_t) { return false; };

    const trace::Request cold = readRequest(0, 0, 100);
    app.processRequest(cold);
    EXPECT_EQ(log, expectedEvents(cold, none, none));

    // A second overlapping request on the same day: nothing is in
    // flight, so every miss is consulted again.
    log.clear();
    const trace::Request overlap = readRequest(1, 50, 100);
    app.processRequest(overlap);
    EXPECT_EQ(log, expectedEvents(overlap, none, none));
    EXPECT_EQ(app.totals().allocation_write_blocks, 0u);

    app.finishDay(0);
    log.clear();
    const trace::Request warm =
        readRequest(util::makeTime(1, 1), 0, 150);
    app.processRequest(warm);
    EXPECT_EQ(log, expectedEvents(
                       warm,
                       [](uint64_t nr) { return nr < 100 && nr % 2 == 0; },
                       none, true));
    app.checkInvariants();
}

} // namespace
