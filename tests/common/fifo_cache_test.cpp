#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/fifo_cache.h"

namespace monatt
{
namespace
{

using Cache = FifoCache<int, std::string>;

std::vector<std::pair<int, std::string>>
contents(const Cache &cache)
{
    std::vector<std::pair<int, std::string>> out;
    cache.forEach([&out](int key, const std::string &value) {
        out.emplace_back(key, value);
    });
    return out;
}

TEST(FifoCacheTest, CapacityOneKeepsOnlyTheNewest)
{
    Cache cache(1);
    EXPECT_TRUE(cache.insert(1, "a"));
    EXPECT_TRUE(cache.insert(2, "b"));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.find(1), nullptr);
    ASSERT_NE(cache.find(2), nullptr);
    EXPECT_EQ(*cache.find(2), "b");
}

TEST(FifoCacheTest, ReinsertKeepsFirstValueAndPosition)
{
    Cache cache(3);
    cache.insert(1, "a");
    cache.insert(2, "b");
    EXPECT_FALSE(cache.insert(1, "z"));
    EXPECT_EQ(*cache.find(1), "a");
    cache.insert(3, "c");
    cache.insert(4, "d"); // Evicts 1: the re-insert did not refresh it.
    EXPECT_FALSE(cache.contains(1));
    EXPECT_EQ(contents(cache),
              (std::vector<std::pair<int, std::string>>{
                  {2, "b"}, {3, "c"}, {4, "d"}}));
}

TEST(FifoCacheTest, EvictsOldestFirst)
{
    Cache cache(2);
    for (int k = 1; k <= 5; ++k)
        cache.insert(k, std::to_string(k));
    EXPECT_EQ(cache.size(), 2u);
    for (int k = 1; k <= 3; ++k)
        EXPECT_FALSE(cache.contains(k)) << k;
    EXPECT_TRUE(cache.contains(4));
    EXPECT_TRUE(cache.contains(5));
}

TEST(FifoCacheTest, ClearEmptiesAndAcceptsNewEntries)
{
    Cache cache(2);
    cache.insert(1, "a");
    cache.insert(2, "b");
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_TRUE(contents(cache).empty());
    EXPECT_TRUE(cache.insert(1, "again"));
    EXPECT_EQ(*cache.find(1), "again");
}

TEST(FifoCacheTest, IteratesInInsertionOrderNotKeyOrder)
{
    Cache cache(8);
    for (int k : {5, 1, 4, 2, 3})
        cache.insert(k, std::to_string(k * 10));
    EXPECT_EQ(contents(cache),
              (std::vector<std::pair<int, std::string>>{
                  {5, "50"}, {1, "10"}, {4, "40"}, {2, "20"}, {3, "30"}}));
}

TEST(FifoCacheTest, InPlaceUpdateKeepsPosition)
{
    Cache cache(2);
    cache.insert(1, "a");
    cache.insert(2, "b");
    *cache.find(1) = "a2";
    cache.insert(3, "c"); // Still evicts 1, the oldest insert.
    EXPECT_FALSE(cache.contains(1));
    EXPECT_EQ(cache.capacity(), 2u);
}

} // namespace
} // namespace monatt
