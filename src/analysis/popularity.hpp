/**
 * @file
 * Popularity-skew characterization (Section 2, Figures 2 and 3).
 *
 * For one day of per-block access counts, blocks are sorted by
 * descending popularity and grouped into up to 10,000 equal-population
 * bins (0.01 % of that day's accessed blocks per bin, exactly as the
 * paper does). The profile exposes per-bin average counts (Fig. 2(a)),
 * the cumulative access share at each percentile (Fig. 2(b)/(c)), and
 * threshold/selection queries used throughout the evaluation.
 */

#ifndef SIEVESTORE_ANALYSIS_POPULARITY_HPP
#define SIEVESTORE_ANALYSIS_POPULARITY_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/access_counter.hpp"

namespace sievestore {
namespace analysis {

/** Ranked, binned popularity profile for one set of block counts. */
class PopularityProfile
{
  public:
    /**
     * @param counts per-block access counts
     * @param bins   maximum bin count (paper: 10,000); fewer blocks
     *               than bins yields one block per bin
     */
    explicit PopularityProfile(const BlockCounts &counts,
                               size_t bins = 10000);

    /** Distinct blocks accessed. */
    uint64_t uniqueBlocks() const { return unique; }
    /** Total accesses. */
    uint64_t totalAccesses() const { return total; }

    size_t binCount() const { return bin_sums.size(); }

    /** Mean access count of blocks in bin i (bin 0 is most popular). */
    double binAverage(size_t i) const;

    /** Upper percentile rank of bin i, in (0, 1]. */
    double binPercentile(size_t i) const;

    /**
     * Fraction of all accesses contributed by the most popular
     * `fraction` of blocks (e.g. 0.01 = the top 1 %). Resolves at block
     * (not bin) granularity.
     */
    double topShare(double fraction) const;

    /** Access count of the block at percentile rank `fraction`. */
    uint64_t countAtPercentile(double fraction) const;

    /** Fraction of blocks with count <= limit. */
    double fractionWithCountAtMost(uint64_t limit) const;

    /** Most popular `fraction` of blocks, ties broken by BlockId. */
    std::vector<trace::BlockId> topBlocks(double fraction) const;

    /** All blocks with count >= threshold. */
    std::vector<trace::BlockId> blocksWithCountAtLeast(uint64_t t) const;

    /** Descending-count view of the underlying blocks. */
    const std::vector<BlockCount> &ranked() const { return ranked_; }

  private:
    /** Shared constructor tail: ranked_ is sorted; fill the bins. */
    void build(size_t bins);

    std::vector<BlockCount> ranked_;
    std::vector<uint64_t> bin_sums;
    std::vector<uint64_t> bin_sizes;
    /** cum_accesses[i] = accesses of ranks [0, i]. */
    std::vector<uint64_t> cum_accesses;
    uint64_t unique = 0;
    uint64_t total = 0;
};

} // namespace analysis
} // namespace sievestore

#endif // SIEVESTORE_ANALYSIS_POPULARITY_HPP
