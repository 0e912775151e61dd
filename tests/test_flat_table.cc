/**
 * @file
 * FlatTable unit and differential tests: a randomized differential
 * check of the frozen open-addressing table against an unordered_map
 * reference, the build-contract panics, and the freeze-order contract
 * of the routing/VCA tables and the dense flow-stats index.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/flat_table.h"
#include "common/flow_stats_table.h"
#include "net/routing_table.h"
#include "net/vca.h"

namespace hornet {
namespace {

/** Weighted option type for the generic-table tests. */
struct Opt
{
    std::uint32_t tag = 0;
    double weight = 1.0;

    bool
    operator==(const Opt &o) const
    {
        return tag == o.tag && weight == o.weight;
    }
};

/** Split-mix PRNG: stable draw sequence across standard libraries. */
struct Draw
{
    std::uint64_t s;
    explicit Draw(std::uint64_t seed) : s(seed) {}
    std::uint64_t
    operator()()
    {
        s += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = s;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::uint64_t
    below(std::uint64_t n)
    {
        return (*this)() % n;
    }
};

/** Bulk-load @p t from a reference map through the public build API
 *  (begin_build + one add_entry per key, in map order). */
template <typename K, typename V>
void
build_from(common::FlatTable<K, V> &t,
           const std::unordered_map<K, std::vector<V>> &src,
           common::Arena *arena = nullptr)
{
    std::size_t n_values = 0;
    for (const auto &kv : src)
        n_values += kv.second.size();
    t.begin_build(src.size(), n_values, arena);
    for (const auto &kv : src)
        t.add_entry(kv.first, kv.second.data(), kv.second.size());
}

TEST(FlatTable, RandomizedDifferentialVsUnorderedMap)
{
    Draw d(0xf1a7);
    // Keys are multiples of 64 from a narrow range: libstdc++ hashes
    // integers by identity, so the shared low bits force heavy slot
    // clustering under the power-of-two mask — the probe loop gets a
    // real workout, not just direct hits.
    std::unordered_map<std::uint64_t, std::vector<Opt>> ref;
    while (ref.size() < 10000) {
        const std::uint64_t key = d.below(1u << 20) * 64;
        auto &vals = ref[key];
        if (!vals.empty())
            continue; // duplicate draw: key already populated
        const std::size_t n = 1 + d.below(4);
        for (std::size_t i = 0; i < n; ++i)
            vals.push_back({static_cast<std::uint32_t>(d()),
                            0.25 * static_cast<double>(1 + d.below(8))});
    }

    common::FlatTable<std::uint64_t, Opt> t;
    build_from(t, ref);
    EXPECT_TRUE(t.built());
    EXPECT_EQ(t.size(), ref.size());
    EXPECT_GE(t.capacity(), 2 * ref.size()); // <= 50% load
    EXPECT_GE(t.max_probe(), 1u);

    for (const auto &[key, vals] : ref) {
        const auto *e = t.lookup(key);
        ASSERT_NE(e, nullptr) << "key " << key;
        ASSERT_EQ(e->size(), vals.size());
        EXPECT_FALSE(e->empty());
        EXPECT_EQ(e->front(), vals.front());
        double total = 0.0;
        for (std::size_t i = 0; i < vals.size(); ++i) {
            EXPECT_EQ((*e)[i], vals[i]);
            total = total + vals[i].weight;
        }
        // Bitwise, not approximate: the frozen total must come from
        // the same left-to-right accumulation (RNG-order contract).
        EXPECT_EQ(e->total_weight, total);
    }

    // Absent keys (odd, never generated) probe to nullptr.
    for (int i = 0; i < 10000; ++i)
        EXPECT_EQ(t.lookup(d.below(1u << 20) * 64 + 1), nullptr);
}

TEST(FlatTable, EmptyTableAndEmptyBuild)
{
    common::FlatTable<std::uint64_t, Opt> t;
    EXPECT_FALSE(t.built());
    EXPECT_EQ(t.capacity(), 0u);
    EXPECT_EQ(t.lookup(0), nullptr); // never-built table: all absent

    const std::unordered_map<std::uint64_t, std::vector<Opt>> empty;
    build_from(t, empty);
    EXPECT_TRUE(t.built());
    EXPECT_EQ(t.size(), 0u);
    EXPECT_GE(t.capacity(), 8u);
    EXPECT_EQ(t.lookup(123), nullptr);
}

TEST(FlatTable, ZeroOptionEntry)
{
    common::FlatTable<std::uint64_t, Opt> t;
    t.begin_build(1, 0);
    t.add_entry(5, nullptr, 0);
    const auto *e = t.lookup(5);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->empty());
    EXPECT_EQ(e->size(), 0u);
    EXPECT_EQ(e->total_weight, 0.0);
}

TEST(FlatTable, BuildContractPanics)
{
    const Opt o{1, 1.0};

    common::FlatTable<std::uint64_t, Opt> t;
    EXPECT_THROW(t.add_entry(1, &o, 1), std::logic_error);
    t.begin_build(2, 2);
    EXPECT_THROW(t.begin_build(2, 2), std::logic_error); // rebuild
    t.add_entry(10, &o, 1);
    EXPECT_THROW(t.add_entry(10, &o, 1), std::logic_error); // dup key

    common::FlatTable<std::uint64_t, Opt> more_keys;
    more_keys.begin_build(1, 2);
    more_keys.add_entry(1, &o, 1);
    EXPECT_THROW(more_keys.add_entry(2, &o, 1), std::logic_error);

    common::FlatTable<std::uint64_t, Opt> more_values;
    more_values.begin_build(2, 1);
    more_values.add_entry(1, &o, 1);
    const Opt two[2] = {{1, 1.0}, {2, 1.0}};
    EXPECT_THROW(more_values.add_entry(2, two, 2), std::logic_error);
}

TEST(FlatTable, WeightlessValuesAndIteration)
{
    // uint32_t values (the flow-stats index shape): no weight field,
    // so totals are 0.0 and for_each_key/entry_index still work.
    common::FlatTable<std::uint64_t, std::uint32_t> t;
    t.begin_build(3, 3);
    for (std::uint32_t i = 0; i < 3; ++i)
        t.add_entry(100 + i, &i, 1);

    std::size_t visited = 0;
    t.for_each_key([&](std::uint64_t key,
                       const common::FlatEntry<std::uint32_t> &e) {
        ++visited;
        ASSERT_EQ(e.size(), 1u);
        EXPECT_EQ(e.total_weight, 0.0);
        EXPECT_EQ(e.front(), key - 100);
    });
    EXPECT_EQ(visited, 3u);

    const auto *e = t.lookup(101);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(t.entry_index(e), 1u); // insertion order
}

TEST(FlatTable, ArenaPlacement)
{
    common::Arena arena;
    std::unordered_map<std::uint64_t, std::vector<Opt>> src;
    Draw d(0xa4e);
    for (std::uint64_t k = 0; k < 64; ++k)
        src[k * 8].push_back({static_cast<std::uint32_t>(d()), 1.0});

    common::FlatTable<std::uint64_t, Opt> t;
    build_from(t, src, &arena);
    EXPECT_GT(arena.bytes_used(), 0u); // slots + entries + slab carved
    for (const auto &[key, vals] : src) {
        const auto *e = t.lookup(key);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->front(), vals.front());
    }
}

TEST(FlatTable, RoutingTableFreezeContract)
{
    net::RoutingTable t(3, {0, 1, 2});
    t.add(3, 7, {1, 7, 1.0});
    t.add(3, 7, {2, 7, 3.0});
    t.add(0, 9, {3, 9, 1.0});

    // Staged records are not a lookup path: only the frozen form is.
    EXPECT_FALSE(t.frozen());
    EXPECT_EQ(t.size(), 0u);
    EXPECT_THROW(t.lookup(3, 7), std::logic_error);

    t.freeze();
    EXPECT_TRUE(t.frozen());
    t.freeze(); // idempotent

    const auto *post = t.lookup(3, 7);
    ASSERT_NE(post, nullptr);
    ASSERT_EQ(post->size(), 2u);
    EXPECT_EQ(post->total_weight, 4.0);
    EXPECT_EQ((*post)[0].next_node, 1u);
    EXPECT_EQ((*post)[1].next_node, 2u);
    EXPECT_EQ(t.lookup(5, 5), nullptr); // nullptr contract survives
    EXPECT_EQ(t.size(), 2u);

    // The freeze-order contract: mutation after freeze is a bug.
    EXPECT_THROW(t.add(3, 7, {1, 7, 1.0}), std::logic_error);
}

TEST(FlatTable, VcaTableFreezeContract)
{
    net::VcaTable t;
    net::VcaKey k;
    k.prev_node = 0;
    k.flow = 5;
    k.next_node = 1;
    k.next_flow = 5;
    t.add(k, {0, 1.0});
    t.add(k, {2, 2.0});

    net::VcaKey absent = k;
    absent.flow = 6;

    EXPECT_FALSE(t.frozen());
    EXPECT_THROW(t.lookup(k), std::logic_error);

    t.freeze();
    EXPECT_TRUE(t.frozen());
    t.freeze(); // idempotent

    const auto *post = t.lookup(k);
    ASSERT_NE(post, nullptr);
    ASSERT_EQ(post->size(), 2u);
    EXPECT_EQ(post->total_weight, 3.0);
    EXPECT_EQ((*post)[0].vc, 0u);
    EXPECT_EQ((*post)[1].vc, 2u);
    EXPECT_EQ(t.lookup(absent), nullptr);

    EXPECT_THROW(t.add(k, {1, 1.0}), std::logic_error);
}

TEST(FlatTable, FlowStatsTableDenseAndOverflow)
{
    common::FlowStatsTable t;

    // Unfrozen, the table degrades to the historical overflow map.
    EXPECT_FALSE(t.frozen());
    t.at(42).flits_delivered = 1;
    EXPECT_EQ(t.overflow_size(), 1u);
    t.clear();
    EXPECT_EQ(t.overflow_size(), 0u);

    t.freeze({7, 3, 3, 9}); // duplicates dedup
    EXPECT_TRUE(t.frozen());
    EXPECT_EQ(t.dense_size(), 3u);
    t.freeze({1}); // first freeze wins
    EXPECT_EQ(t.dense_size(), 3u);

    t.at(3).flits_delivered = 2;
    t.at(9).flits_delivered = 5;
    t.at(100).flits_delivered = 1; // outside the frozen set
    EXPECT_EQ(t.overflow_size(), 1u);

    // Iteration: dense flows in flow-id order, the untouched slot (7)
    // skipped — matching the map era, where an entry only existed
    // after a delivery — then overflow flows.
    std::vector<FlowId> seen;
    t.for_each([&](FlowId f, const FlowStats &) { seen.push_back(f); });
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], 3u);
    EXPECT_EQ(seen[1], 9u);
    EXPECT_EQ(seen[2], 100u);

    // clear() resets the stats but keeps the frozen slot mapping.
    t.clear();
    std::size_t count = 0;
    t.for_each([&](FlowId, const FlowStats &) { ++count; });
    EXPECT_EQ(count, 0u);
    EXPECT_TRUE(t.frozen());
    EXPECT_EQ(t.dense_size(), 3u);
}

} // namespace
} // namespace hornet
