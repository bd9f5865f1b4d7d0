#include "analysis/access_counter.hpp"

#include <algorithm>

#include "util/alloc_guard.hpp"

namespace sievestore {
namespace analysis {

BlockCounts
countBlockAccesses(const std::vector<trace::Request> &requests)
{
    BlockCounts counts;
    for (const auto &req : requests)
        for (uint32_t i = 0; i < req.length_blocks; ++i)
            ++counts[req.blockAt(i)];
    return counts;
}

uint64_t
totalAccesses(const BlockCounts &counts)
{
    uint64_t total = 0;
    for (const auto &kv : counts)
        total += kv.second;
    return total;
}

void
sortDescendingByCount(std::vector<BlockCount> &counts)
{
    std::sort(counts.begin(), counts.end(),
              [](const BlockCount &a, const BlockCount &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.block < b.block;
              });
}

std::vector<BlockCount>
sortedByCount(const BlockCounts &counts)
{
    std::vector<BlockCount> out;
    out.reserve(counts.size());
    for (const auto &kv : counts)
        out.push_back(BlockCount{kv.first, kv.second});
    sortDescendingByCount(out);
    return out;
}

void
AccessCounter::observeGrowing(trace::BlockId block)
{
    util::AllocGuardDisarm growth; // amortized table growth
    ++*counts_.findOrInsert(block).first;
}

// SIEVE_NOALLOC: reads are pure probes; the analyzer proves the
// whole call tree below is allocation-free.
SIEVE_NOALLOC uint64_t
AccessCounter::count(trace::BlockId block) const
{
    const uint64_t *c = counts_.find(block);
    return c ? *c : 0;
}

uint64_t
AccessCounter::totalAccesses() const
{
    uint64_t total = 0;
    counts_.forEach([&](uint64_t, const uint64_t &c) { total += c; });
    return total;
}

std::vector<BlockCount>
AccessCounter::countsAtLeast(uint64_t threshold) const
{
    std::vector<BlockCount> out;
    out.reserve(counts_.size());
    counts_.forEach([&](uint64_t block, const uint64_t &c) {
        if (c >= threshold)
            out.push_back(BlockCount{block, c});
    });
    sortDescendingByCount(out);
    return out;
}

std::vector<trace::BlockId>
AccessCounter::sortedBlocks() const
{
    std::vector<trace::BlockId> out;
    out.reserve(counts_.size());
    counts_.forEach([&](uint64_t block, const uint64_t &) {
        out.push_back(block);
    });
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace analysis
} // namespace sievestore
