/**
 * @file
 * Test-only wide sliding-window counter: the 24-byte layout the sieve
 * used before its counters shrank to 8 bytes. Up to eight subwindows of
 * 16-bit tallies saturating at UINT16_MAX and a 64-bit last-updated
 * subwindow, with the same expiry rule as core::WindowedCounter. The
 * differential suite drives both with the same miss streams; within
 * the thresholds the sieve accepts they must decide alike.
 */

#ifndef SIEVESTORE_TESTS_REFERENCE_WINDOWED_COUNTER_HPP
#define SIEVESTORE_TESTS_REFERENCE_WINDOWED_COUNTER_HPP

#include <array>
#include <cstdint>

#include "core/windowed_counter.hpp"

namespace sievestore {
namespace testing {

class ReferenceWindowedCounter
{
  public:
    static constexpr uint32_t kMaxSubwindows = 8;

    uint32_t
    record(uint64_t cur_sub, const core::WindowSpec &spec)
    {
        advance(cur_sub, spec);
        auto &slot = counts[cur_sub % spec.k];
        if (slot < UINT16_MAX)
            ++slot;
        return total(cur_sub, spec);
    }

    uint32_t
    total(uint64_t cur_sub, const core::WindowSpec &spec) const
    {
        if (cur_sub >= last_sub + spec.k)
            return 0;
        uint32_t sum = 0;
        for (uint32_t i = 0; i < spec.k; ++i) {
            const uint64_t sub = last_sub - i;
            if (sub + spec.k > cur_sub)
                sum += counts[sub % spec.k];
            if (sub == 0)
                break;
        }
        return sum;
    }

    bool
    stale(uint64_t cur_sub, const core::WindowSpec &spec) const
    {
        return cur_sub >= last_sub + spec.k;
    }

    void
    touch(uint64_t cur_sub, const core::WindowSpec &spec)
    {
        advance(cur_sub, spec);
    }

  private:
    void
    advance(uint64_t cur_sub, const core::WindowSpec &spec)
    {
        if (cur_sub < last_sub)
            return;
        if (cur_sub >= last_sub + spec.k) {
            counts.fill(0);
        } else {
            for (uint64_t s = last_sub + 1; s <= cur_sub; ++s)
                counts[s % spec.k] = 0;
        }
        last_sub = cur_sub;
    }

    std::array<uint16_t, kMaxSubwindows> counts{};
    uint64_t last_sub = 0;
};

} // namespace testing
} // namespace sievestore

#endif // SIEVESTORE_TESTS_REFERENCE_WINDOWED_COUNTER_HPP
