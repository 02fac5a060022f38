/**
 * @file
 * Unit tests of the shared open-addressing flat table behind the analyzer
 * fragment caches and the intra-core memo: exact retrieval under forced
 * collisions, generational wipe isolation, key-interning determinism,
 * reference stability, growth, and allocation-free steady state.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/flat_table.hh"

using gemini::common::FlatWordTable;
using gemini::common::hashWords;

namespace {

std::vector<std::int64_t>
key(std::initializer_list<std::int64_t> words)
{
    return std::vector<std::int64_t>(words);
}

TEST(FlatWordTable, InsertFindRoundTrip)
{
    FlatWordTable<int> t;
    t.reserve(16);
    const auto k1 = key({1, 2, 3});
    const auto k2 = key({1, 2, 4});
    const auto k3 = key({1, 2}); // prefix of k1: length must disambiguate
    t.insert(k1, 10);
    t.insert(k2, 20);
    t.insert(k3, 30);
    EXPECT_EQ(t.size(), 3u);
    ASSERT_NE(t.find(k1), nullptr);
    EXPECT_EQ(*t.find(k1), 10);
    EXPECT_EQ(*t.find(k2), 20);
    EXPECT_EQ(*t.find(k3), 30);
    EXPECT_EQ(t.find(key({9, 9, 9})), nullptr);
}

TEST(FlatWordTable, CollisionsProbeToDistinctSlots)
{
    // A tiny table forces probe chains by pigeonhole: many more distinct
    // keys than low hash bits. Every key must stay retrievable with its
    // own value.
    FlatWordTable<std::int64_t> t;
    t.reserve(256);
    for (std::int64_t i = 0; i < 256; ++i)
        t.insert(key({i * 7919, i}), i);
    for (std::int64_t i = 0; i < 256; ++i) {
        auto *v = t.find(key({i * 7919, i}));
        ASSERT_NE(v, nullptr) << "key " << i;
        EXPECT_EQ(*v, i);
    }
    EXPECT_EQ(t.size(), 256u);
}

TEST(FlatWordTable, FindSlotReusableByInsertAt)
{
    FlatWordTable<int> t;
    t.reserve(8);
    const auto k = key({42, 43});
    std::size_t slot = 0;
    EXPECT_EQ(t.find(k, slot), nullptr);
    t.insertAt(slot, k, 7);
    ASSERT_NE(t.find(k), nullptr);
    EXPECT_EQ(*t.find(k), 7);
}

TEST(FlatWordTable, GenerationalWipeIsolatesEntries)
{
    FlatWordTable<int> t;
    t.reserve(8);
    t.insert(key({1}), 1);
    t.insert(key({2}), 2);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.find(key({1})), nullptr);
    EXPECT_EQ(t.find(key({2})), nullptr);
    // Refill with one overlapping and one fresh key: only the new
    // generation is visible.
    t.insert(key({2}), 20);
    t.insert(key({3}), 30);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.find(key({1})), nullptr);
    EXPECT_EQ(*t.find(key({2})), 20);
    EXPECT_EQ(*t.find(key({3})), 30);
}

TEST(FlatWordTable, WipeRefillCycleAllocatesNothing)
{
    FlatWordTable<int> t;
    t.reserve(64, /*words_per_key=*/4);
    auto fill = [&t] {
        for (std::int64_t i = 0; i < 64; ++i)
            t.insert(key({i, i + 1, i + 2}), static_cast<int>(i));
    };
    fill();
    const std::uint64_t events = t.allocEvents();
    for (int cycle = 0; cycle < 5; ++cycle) {
        t.clear();
        fill();
    }
    EXPECT_EQ(t.allocEvents(), events)
        << "steady-state wipe/refill must not grow any buffer";
}

TEST(FlatWordTable, InterningIsDeterministic)
{
    // Every key must come back verbatim, and two tables fed the same
    // sequence must hold identical contents.
    FlatWordTable<int> a, b;
    a.reserve(32);
    b.reserve(32);
    std::vector<std::vector<std::int64_t>> keys;
    for (std::int64_t i = 0; i < 20; ++i)
        keys.push_back(key({i * 31, -i, i * i}));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        a.insert(keys[i], static_cast<int>(i));
        b.insert(keys[i], static_cast<int>(i));
    }
    EXPECT_EQ(a.size(), keys.size());
    EXPECT_EQ(b.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_NE(a.find(keys[i]), nullptr);
        ASSERT_NE(b.find(keys[i]), nullptr);
        EXPECT_EQ(*a.find(keys[i]), static_cast<int>(i));
        EXPECT_EQ(*b.find(keys[i]), static_cast<int>(i));
        // A key one word off was never interned.
        std::vector<std::int64_t> off = keys[i];
        off.back() += 1000;
        EXPECT_EQ(a.find(off), nullptr);
    }
}

TEST(FlatWordTable, ValueReferencesStableAcrossInserts)
{
    FlatWordTable<std::vector<int>> t;
    t.reserve(128);
    auto &first = t.insert(key({0}), std::vector<int>{1, 2, 3});
    const int *data = first.data();
    for (std::int64_t i = 1; i < 100; ++i)
        t.insert(key({i}), std::vector<int>{static_cast<int>(i)});
    EXPECT_EQ(first.data(), data); // deque storage: no move on insert
    EXPECT_EQ(first, (std::vector<int>{1, 2, 3}));
}

TEST(FlatWordTable, GrowableTableRehashesPastBound)
{
    FlatWordTable<std::int64_t> t;
    t.reserve(4);
    t.setGrowable(true);
    for (std::int64_t i = 0; i < 1000; ++i)
        t.insert(key({i, i ^ 0x5A5A}), i);
    EXPECT_EQ(t.size(), 1000u);
    EXPECT_GE(t.capacity(), 1000u);
    EXPECT_GT(t.allocEvents(), 0u);
    for (std::int64_t i = 0; i < 1000; ++i) {
        auto *v = t.find(key({i, i ^ 0x5A5A}));
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, i);
    }
}

TEST(FlatWordTable, HashMatchesFragmentKeyFnv)
{
    // The table and FragmentKeyHash must agree (shared FNV-1a): a probe
    // built once can be reused against either.
    const auto k = key({123, -456, 789});
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::int64_t w : k) {
        h ^= static_cast<std::uint64_t>(w);
        h *= 0x100000001B3ull;
    }
    EXPECT_EQ(hashWords(k), h);
}

} // namespace
