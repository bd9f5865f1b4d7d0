/**
 * @file
 * Unit tests for the block cache's replacement: LRU promotion and the
 * Section 3.1 protected-set mode (BlockCache::setProtected).
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/block_cache.hpp"

namespace {

using namespace sievestore::cache;
using sievestore::trace::BlockId;

TEST(Lru, HitsPromote)
{
    BlockCache cache(3);
    cache.insert(1);
    cache.insert(2);
    cache.insert(3);
    cache.access(1);
    const auto evicted = cache.insert(4);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 2u);
    cache.checkInvariants();
}

TEST(OracleRetain, ProtectedBlocksSurvive)
{
    BlockCache cache(3);
    cache.insert(1);
    cache.insert(2);
    cache.insert(3);
    const std::vector<BlockId> protect = {1, 2};
    cache.setProtected(protect);
    // Insertions evict only the unprotected 3, then... everything is
    // protected, so plain LRU applies.
    auto evicted = cache.insert(4);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 3u);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));
    // 4 is unprotected: it is the next victim even though it is MRU.
    evicted = cache.insert(5);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 4u);
    cache.checkInvariants();
}

TEST(OracleRetain, FallsBackToLruWhenAllProtected)
{
    BlockCache cache(2);
    cache.insert(1);
    cache.insert(2);
    const std::vector<BlockId> protect = {1, 2, 3};
    cache.setProtected(protect);
    const auto evicted = cache.insert(3);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 1u); // LRU of the protected set
    cache.checkInvariants();
}

TEST(OracleRetain, EmptySetRestoresPlainLru)
{
    BlockCache cache(2);
    cache.insert(1);
    cache.insert(2);
    const std::vector<BlockId> protect = {1};
    cache.setProtected(protect);
    auto evicted = cache.insert(3);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 2u);
    // Order is now 3 (hot), 1 (cold): the cleared set evicts 1.
    cache.setProtected({});
    evicted = cache.insert(4);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 1u);
    cache.checkInvariants();
}

TEST(OracleRetain, SetReplacesThePreviousOne)
{
    BlockCache cache(2);
    cache.insert(1);
    cache.insert(2);
    const std::vector<BlockId> day0 = {1};
    const std::vector<BlockId> day1 = {3};
    cache.setProtected(day0);
    cache.setProtected(day1);
    // 1 is no longer protected and is the LRU tail.
    const auto evicted = cache.insert(3);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 1u);
}

} // namespace
