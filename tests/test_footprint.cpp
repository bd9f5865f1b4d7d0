/**
 * @file
 * Footprint regression tests: the memoryBytes() numbers the paper's
 * cost claims rest on, pinned against the util/footprint.hpp
 * convention so accounting drift is caught immediately.
 *
 * Section 3.3 sizes the two sieve tiers: the IMCT is a fixed array of
 * windowed counters (metastate bounded regardless of the block
 * population) and the MCT tracks only IMCT-qualified blocks. The
 * refactor moved the MCT and the block cache onto the flat index, so
 * these tests also pin the flat slot formula and the cache's bytes per
 * resident block.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/block_cache.hpp"
#include "core/imct.hpp"
#include "core/mct.hpp"
#include "core/windowed_counter.hpp"
#include "util/flat_index.hpp"
#include "util/footprint.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using namespace sievestore::core;
using namespace sievestore::cache;
using sievestore::trace::BlockId;

WindowSpec
paperWindow()
{
    // W = 8 h in k = 4 subwindows, the paper's tuned configuration.
    return WindowSpec::paperDefault();
}

TEST(Footprint, WindowedCounterIs8Bytes)
{
    // k = 4 max subwindows at uint8_t each plus the 32-bit subwindow
    // tag: the per-entry unit every Section 3.3 size is a multiple of.
    EXPECT_EQ(sizeof(WindowedCounter), 8u);
}

TEST(Footprint, ImctIsSlotsTimesCounterSize)
{
    // The IMCT's whole point (Section 3.3): metastate is slots * entry
    // size, independent of how many blocks ever hash into it.
    const Imct imct(1 << 12, paperWindow());
    EXPECT_EQ(imct.memoryBytes(), (1u << 12) * sizeof(WindowedCounter));
    const Imct big(1 << 20, paperWindow());
    EXPECT_EQ(big.memoryBytes(), (1u << 20) * sizeof(WindowedCounter));
}

TEST(Footprint, MctIsAllocatedSlotsTimesSlotBytes)
{
    // Flat-table convention: allocated slots x (key + payload + 1
    // metadata byte). With an 8-byte WindowedCounter payload that is
    // 17 bytes per slot.
    Mct mct(paperWindow());
    EXPECT_EQ(mct.memoryBytes(), 0u) << "empty MCT allocates nothing";
    const util::TimeUs t = util::makeTime(0, 1);
    for (BlockId b = 0; b < 100; ++b)
        mct.admit(b, t);
    // 100 entries need 128 slots at the 7/8 load-factor bound.
    EXPECT_EQ(mct.memoryBytes(),
              util::flatIndexFootprintBytes(128, 8 + 8));
    EXPECT_EQ(mct.memoryBytes(), 128u * 17u);
}

TEST(Footprint, FlatIndexFormulaIsSlotsTimesSlotBytesPlusOne)
{
    EXPECT_EQ(util::flatIndexFootprintBytes(16, 16), 16u * 17u);
    EXPECT_EQ(util::flatIndexFootprintBytes(1 << 20, 32),
              (1ull << 20) * 33u);
    // The templated table agrees with the free function.
    util::FlatIndex<uint64_t> idx(1000);
    EXPECT_EQ(idx.memoryBytes(),
              util::flatIndexFootprintBytes(idx.slotCount(), 16));
}

TEST(Footprint, CacheMemoryCoversResidencyAndReplacementState)
{
    // BlockCache::memoryBytes() must include the recency arena and the
    // oracle mode's protected set, not only the residency index.
    BlockCache cache(256);
    for (BlockId b = 0; b < 256; ++b)
        cache.insert(b);
    // 512 slots of 16 bytes: 8 key + 4 node, padded.
    const uint64_t index_only = util::flatIndexFootprintBytes(512, 16);
    EXPECT_GE(cache.memoryBytes(), index_only + 256 * 16)
        << "the recency arena's 16-byte nodes must be charged";
    const uint64_t lru_bytes = cache.memoryBytes();
    std::vector<BlockId> protect(64);
    for (BlockId b = 0; b < 64; ++b)
        protect[b] = b;
    cache.setProtected(protect);
    EXPECT_GT(cache.memoryBytes(), lru_bytes)
        << "the protected set must be charged";
}

TEST(Footprint, CacheBytesPerResidentBlockWithinBound)
{
    const uint64_t capacity = 1 << 14;
    BlockCache cache(capacity);
    for (BlockId b = 0; b < capacity; ++b)
        cache.insert(b);
    const double per_block = static_cast<double>(cache.memoryBytes()) /
                             static_cast<double>(capacity);
    // The bound dates from the two-word payload: at most 2 slots per
    // block (power-of-two growth) x 25 bytes (8 key + 16 payload + 1
    // dib) plus at most 2 x 16-byte arena nodes per block. The slot is
    // now 16 bytes (8 key + 4 node, padded), which leaves headroom.
    EXPECT_LE(per_block, 82.0);
}

} // namespace
