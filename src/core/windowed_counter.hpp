/**
 * @file
 * Sliding-window miss counters (Section 3.3).
 *
 * "Logically, the IMCT and MCT track the number of misses over the past
 * W time units. However, since keeping miss counts for every time slice
 * is impractical, we discretize the time window into k subwindows of
 * W/k hours each. The implementation uses k counters to track the
 * misses in each subwindow and a counter to track the last time the
 * counters were updated. If during a miss, the current time window is
 * larger than the last-updated counter by k or more, then all counters
 * are inferred to be stale and zeroed out."
 *
 * WindowedCounter is that per-entry state; WindowSpec carries the (W, k)
 * configuration shared by all entries of a table.
 */

#ifndef SIEVESTORE_CORE_WINDOWED_COUNTER_HPP
#define SIEVESTORE_CORE_WINDOWED_COUNTER_HPP

#include <array>
#include <cstdint>

#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace sievestore {
namespace core {

/** Maximum supported subwindow count per window (the paper tunes 4). */
constexpr uint32_t kMaxSubwindows = 4;

/**
 * Largest miss threshold the saturating tallies decide exactly: a
 * policy may compare a windowed total with t1, t2 or t1 + t2, so the
 * sieve requires t1 + t2 <= kMaxThresholdSum. While no tally has
 * saturated the total is exact; once one has, the total is at least
 * UINT8_MAX, which passes every threshold up to this bound.
 */
constexpr uint32_t kMaxThresholdSum = UINT8_MAX;

/** Window configuration: W split into k subwindows. */
struct WindowSpec
{
    /** Length of one subwindow in microseconds (W / k). */
    util::TimeUs subwindow_us = 2 * util::kUsPerHour;
    /** Number of subwindows (the paper tunes k = 4, W = 8 h). */
    uint32_t k = 4;

    /** Subwindow index containing time t. */
    uint64_t
    subwindowOf(util::TimeUs t) const
    {
        return t / subwindow_us;
    }

    /** Fatal unless k lies in [1, kMaxSubwindows] and subwindows are
     * non-empty. Every counter table checks its spec at construction. */
    void
    validate() const
    {
        if (k == 0 || k > kMaxSubwindows)
            util::fatal("window subwindow count k=%u must be in [1, %u]",
                        k, kMaxSubwindows);
        if (subwindow_us == 0)
            util::fatal("window subwindow length must be > 0 us");
    }

    /** The paper's tuned configuration: W = 8 h, k = 4. */
    static WindowSpec
    paperDefault()
    {
        return WindowSpec{2 * util::kUsPerHour, 4};
    }

    /** Arbitrary window length with the default k = 4. */
    static WindowSpec
    ofWindow(util::TimeUs window_us, uint32_t k = 4)
    {
        // A window shorter than k us leaves empty subwindows, which
        // validate() rejects like an out-of-range k.
        const WindowSpec spec{k == 0 ? 0 : window_us / k, k};
        spec.validate();
        return spec;
    }
};

/**
 * Per-entry sliding-window counter: k saturating one-byte subwindow
 * tallies plus the last-updated subwindow index as a 32-bit tag, 8 bytes
 * per entry. Decisions match unbounded tallies for every threshold up to
 * kMaxThresholdSum and every trace shorter than 2^32 subwindows; a later
 * subwindow is fatal, never a silent wrap.
 */
class WindowedCounter
{
  public:
    /**
     * Expire stale subwindows as of `cur_sub`, then record one miss.
     * @return the windowed total including this miss
     */
    uint32_t
    record(uint64_t cur_sub, const WindowSpec &spec)
    {
        advance(cur_sub, spec);
        // advance() leaves cur_sub <= last_sub <= UINT32_MAX.
        auto &slot = counts[slotOf(static_cast<uint32_t>(cur_sub), spec.k)];
        if (slot < UINT8_MAX)
            ++slot;
        // At or before last_sub every kept subwindow is live and every
        // other slot is zero, so the total is the sum of all slots.
        return liveSum();
    }

    /** Windowed total as of `cur_sub` (expiry-aware, no mutation). */
    uint32_t
    total(uint64_t cur_sub, const WindowSpec &spec) const
    {
        const uint64_t last = last_sub;
        if (cur_sub <= last)
            return liveSum();
        if (cur_sub >= last + spec.k)
            return 0;
        uint32_t sum = 0;
        // Only subwindows in (cur_sub - k, last_sub] are live.
        for (uint32_t i = 0; i < spec.k; ++i) {
            const uint32_t sub = last_sub - i;
            if (uint64_t{sub} + spec.k > cur_sub)
                sum += counts[slotOf(sub, spec.k)];
            if (sub == 0)
                break;
        }
        return sum;
    }

    /** True if every subwindow has expired as of `cur_sub`. */
    bool
    stale(uint64_t cur_sub, const WindowSpec &spec) const
    {
        return cur_sub >= uint64_t{last_sub} + spec.k;
    }

    /**
     * Mark the counter live as of `cur_sub` without recording a miss
     * (expires aged subwindows). Used at MCT admission so a
     * freshly-admitted block is not mistaken for stale before its
     * first second-tier miss.
     */
    void
    touch(uint64_t cur_sub, const WindowSpec &spec)
    {
        advance(cur_sub, spec);
    }

    /** Zero all state. */
    void
    clear()
    {
        counts.fill(0);
        last_sub = 0;
    }

    /**
     * Audit the counter's structural invariants against `spec`:
     * only the first k subwindow slots may ever hold counts (record()
     * and advance() index modulo k), and the expiry-aware total can
     * never exceed what k saturated subwindows could hold. Aborts via
     * SIEVE_CHECK on violation.
     */
    void
    checkInvariants(const WindowSpec &spec) const
    {
        SIEVE_CHECK(spec.k >= 1 && spec.k <= kMaxSubwindows,
                    "window spec k=%u out of range", spec.k);
        SIEVE_CHECK(spec.subwindow_us > 0);
        for (uint32_t i = spec.k; i < kMaxSubwindows; ++i)
            SIEVE_CHECK(counts[i] == 0,
                        "subwindow slot %u beyond k=%u holds count %u",
                        i, spec.k, unsigned(counts[i]));
        const uint64_t max_total =
            static_cast<uint64_t>(spec.k) * UINT8_MAX;
        SIEVE_CHECK(total(last_sub, spec) <= max_total);
        // A counter that reports stale must also report a zero total.
        const uint64_t expired = uint64_t{last_sub} + spec.k;
        if (stale(expired, spec))
            SIEVE_CHECK(total(expired, spec) == 0);
    }

  private:
    /** Ring slot of subwindow `sub`: a mask for k = 1, 2, 4 (the
     * division it spares dominates a miss), a remainder for k = 3. */
    static uint32_t
    slotOf(uint32_t sub, uint32_t k)
    {
        return (k & (k - 1)) == 0 ? sub & (k - 1) : sub % k;
    }

    /** Sum of every slot; slots at or beyond k are always zero. */
    uint32_t
    liveSum() const
    {
        uint32_t sum = 0;
        for (const uint8_t c : counts)
            sum += c;
        return sum;
    }

    void
    advance(uint64_t cur_sub, const WindowSpec &spec)
    {
        const uint64_t last = last_sub;
        if (cur_sub < last) {
            // Out-of-order timestamps can occur when completion-time
            // allocations interleave with issue-time misses; clamp to
            // the newest subwindow seen.
            return;
        }
        if (cur_sub > UINT32_MAX)
            util::fatal("subwindow index %llu exceeds the counter's "
                        "32-bit subwindow tag (max %u)",
                        static_cast<unsigned long long>(cur_sub),
                        UINT32_MAX);
        const auto cur = static_cast<uint32_t>(cur_sub);
        if (cur_sub >= last + spec.k) {
            counts.fill(0);
        } else {
            for (uint32_t s = last_sub; s != cur;)
                counts[slotOf(++s, spec.k)] = 0;
        }
        last_sub = cur;
    }

    std::array<uint8_t, kMaxSubwindows> counts{};
    uint32_t last_sub = 0;
};

static_assert(sizeof(WindowedCounter) == 8,
              "a sieve counter is four one-byte tallies + a 32-bit tag");

} // namespace core
} // namespace sievestore

#endif // SIEVESTORE_CORE_WINDOWED_COUNTER_HPP
