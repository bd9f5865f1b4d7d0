#include "analysis/popularity.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace sievestore {
namespace analysis {

PopularityProfile::PopularityProfile(const BlockCounts &counts, size_t bins)
{
    ranked_ = sortedByCount(counts);
    build(bins);
}

void
PopularityProfile::build(size_t bins)
{
    unique = ranked_.size();

    cum_accesses.resize(unique);
    uint64_t running = 0;
    for (size_t i = 0; i < unique; ++i) {
        running += ranked_[i].count;
        cum_accesses[i] = running;
    }
    total = running;

    if (unique == 0)
        return;
    const size_t b = std::min(bins, static_cast<size_t>(unique));
    bin_sums.assign(b, 0);
    bin_sizes.assign(b, 0);
    for (size_t i = 0; i < unique; ++i) {
        // Bin index via integer arithmetic: rank i of n maps to
        // floor(i * b / n), giving equal-population bins.
        const size_t bin = static_cast<size_t>(
            (static_cast<__uint128_t>(i) * b) / unique);
        bin_sums[bin] += ranked_[i].count;
        ++bin_sizes[bin];
    }
}

double
PopularityProfile::binAverage(size_t i) const
{
    if (i >= bin_sums.size())
        util::panic("bin index %zu out of range", i);
    return bin_sizes[i]
               ? static_cast<double>(bin_sums[i]) /
                     static_cast<double>(bin_sizes[i])
               : 0.0;
}

double
PopularityProfile::binPercentile(size_t i) const
{
    if (bin_sums.empty())
        return 0.0;
    return static_cast<double>(i + 1) /
           static_cast<double>(bin_sums.size());
}

double
PopularityProfile::topShare(double fraction) const
{
    if (unique == 0 || total == 0)
        return 0.0;
    if (fraction <= 0.0)
        return 0.0;
    size_t k = static_cast<size_t>(
        std::floor(fraction * static_cast<double>(unique)));
    if (k == 0)
        k = 1;
    if (k > unique)
        k = unique;
    return static_cast<double>(cum_accesses[k - 1]) /
           static_cast<double>(total);
}

uint64_t
PopularityProfile::countAtPercentile(double fraction) const
{
    if (unique == 0)
        return 0;
    size_t k = static_cast<size_t>(
        std::floor(fraction * static_cast<double>(unique)));
    if (k == 0)
        k = 1;
    if (k > unique)
        k = unique;
    return ranked_[k - 1].count;
}

double
PopularityProfile::fractionWithCountAtMost(uint64_t limit) const
{
    if (unique == 0)
        return 0.0;
    // ranked_ is descending; find the first index with count <= limit.
    const auto it = std::lower_bound(
        ranked_.begin(), ranked_.end(), limit,
        [](const BlockCount &bc, uint64_t lim) { return bc.count > lim; });
    return static_cast<double>(ranked_.end() - it) /
           static_cast<double>(unique);
}

std::vector<trace::BlockId>
PopularityProfile::topBlocks(double fraction) const
{
    std::vector<trace::BlockId> out;
    if (unique == 0 || fraction <= 0.0)
        return out;
    size_t k = static_cast<size_t>(
        std::floor(fraction * static_cast<double>(unique)));
    if (k == 0)
        k = 1;
    if (k > unique)
        k = unique;
    out.reserve(k);
    for (size_t i = 0; i < k; ++i)
        out.push_back(ranked_[i].block);
    return out;
}

std::vector<trace::BlockId>
PopularityProfile::blocksWithCountAtLeast(uint64_t t) const
{
    std::vector<trace::BlockId> out;
    for (const auto &bc : ranked_) {
        if (bc.count < t)
            break;
        out.push_back(bc.block);
    }
    return out;
}

} // namespace analysis
} // namespace sievestore
