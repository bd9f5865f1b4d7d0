/**
 * @file
 * Unit tests for the fully-associative block cache.
 */

#include <gtest/gtest.h>

#include "cache/block_cache.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace {

using namespace sievestore::cache;
using sievestore::trace::BlockId;
using sievestore::util::FatalError;
using sievestore::util::Rng;

TEST(BlockCache, InsertAndLookup)
{
    BlockCache cache(4);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_FALSE(cache.access(1));
    cache.insert(1);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_TRUE(cache.access(1));
    EXPECT_EQ(cache.size(), 1u);
}

TEST(BlockCache, LruEvictionOrder)
{
    BlockCache cache(3);
    cache.insert(1);
    cache.insert(2);
    cache.insert(3);
    // Touch 1 so 2 becomes LRU.
    cache.access(1);
    const auto evicted = cache.insert(4);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 2u);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
}

TEST(BlockCache, NoEvictionBelowCapacity)
{
    BlockCache cache(10);
    for (BlockId b = 0; b < 10; ++b)
        EXPECT_FALSE(cache.insert(b).has_value());
    EXPECT_TRUE(cache.full());
}

TEST(BlockCache, Erase)
{
    BlockCache cache(2);
    cache.insert(5);
    EXPECT_TRUE(cache.erase(5));
    EXPECT_FALSE(cache.erase(5));
    EXPECT_EQ(cache.size(), 0u);
    // Slot is reusable.
    cache.insert(6);
    cache.insert(7);
    EXPECT_FALSE(cache.insert(5).has_value() == false &&
                 cache.size() != 2);
}

TEST(BlockCache, DuplicateInsertPanics)
{
    BlockCache cache(2);
    cache.insert(1);
    EXPECT_DEATH(cache.insert(1), "resident");
}

TEST(BlockCache, ZeroCapacityRejected)
{
    EXPECT_THROW(BlockCache(0), FatalError);
}

TEST(BlockCache, BatchReplaceCancellation)
{
    // Section 3.2: blocks in both the outgoing and incoming sets are
    // not moved.
    BlockCache cache(10);
    for (BlockId b = 1; b <= 5; ++b)
        cache.insert(b);
    const BatchReplaceResult r = cache.batchReplace({4, 5, 6, 7});
    EXPECT_EQ(r.retained, 2u);  // 4, 5
    EXPECT_EQ(r.evicted, 3u);   // 1, 2, 3
    EXPECT_EQ(r.allocated, 2u); // 6, 7
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_TRUE(cache.contains(6));
    EXPECT_FALSE(cache.contains(1));
}

TEST(BlockCache, BatchReplaceTruncatesToCapacity)
{
    BlockCache cache(3);
    std::vector<BlockId> incoming;
    for (BlockId b = 0; b < 10; ++b)
        incoming.push_back(b);
    const BatchReplaceResult r = cache.batchReplace(incoming);
    EXPECT_EQ(r.allocated, 3u);
    EXPECT_EQ(cache.size(), 3u);
    // Priority order: the first capacity entries win.
    EXPECT_TRUE(cache.contains(0));
    EXPECT_TRUE(cache.contains(2));
    EXPECT_FALSE(cache.contains(3));
}

TEST(BlockCache, BatchReplaceEmptySetEvictsAll)
{
    BlockCache cache(4);
    cache.insert(1);
    cache.insert(2);
    const BatchReplaceResult r = cache.batchReplace({});
    EXPECT_EQ(r.evicted, 2u);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(BlockCache, BatchThenContinuousInteroperate)
{
    BlockCache cache(3);
    cache.batchReplace({1, 2, 3});
    cache.access(1);
    cache.access(2);
    // 3 is LRU now.
    const auto evicted = cache.insert(9);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 3u);
}

TEST(BlockCache, ContentsSnapshot)
{
    BlockCache cache(4);
    cache.insert(10);
    cache.insert(20);
    auto contents = cache.contents();
    std::sort(contents.begin(), contents.end());
    EXPECT_EQ(contents, (std::vector<BlockId>{10, 20}));
}

TEST(BlockCache, SizeNeverExceedsCapacityUnderRandomOps)
{
    BlockCache cache(16);
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        const BlockId b = rng.nextBelow(100);
        if (!cache.access(b))
            cache.insert(b);
        ASSERT_LE(cache.size(), 16u);
    }
    EXPECT_EQ(cache.size(), 16u);
}

} // namespace
