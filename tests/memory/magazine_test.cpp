// The magazine fast path in front of Alloc/Reclaim (Figs. 17-18), typed
// over all three reclamation policies: churn accounting, depot cycling,
// thread-exit flush, and the telemetry counters.
#include <gtest/gtest.h>

#include "test_scale.hpp"

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lfll/core/node.hpp"
#include "lfll/memory/node_pool.hpp"
#include "lfll/primitives/rng.hpp"
#include "lfll/reclaim/epoch_policy.hpp"
#include "lfll/reclaim/hazard_policy.hpp"
#include "lfll/telemetry/metrics.hpp"

namespace {

using namespace lfll;
using lfll_test::scaled;

template <typename Policy>
class Magazine : public ::testing::Test {};

class PolicyNames {
public:
    template <typename Policy>
    static std::string GetName(int) {
        return Policy::name;
    }
};

using AllPolicies =
    ::testing::Types<valois_refcount, hazard_policy, epoch_policy>;
TYPED_TEST_SUITE(Magazine, AllPolicies, PolicyNames);

template <typename Policy>
using pool_for = node_pool<list_node<int, Policy>, Policy>;

// At quiescence the pool must account for every node exactly once across
// the global free list and all magazines.
template <typename Policy>
void expect_fully_accounted(pool_for<Policy>& pool) {
    pool.drain_retired();
    EXPECT_EQ(pool.free_count(), pool.capacity());
    std::set<const list_node<int, Policy>*> seen;
    pool.for_each_free([&](const list_node<int, Policy>* n) {
        EXPECT_TRUE(seen.insert(n).second) << "node accounted twice";
    });
    EXPECT_EQ(seen.size(), pool.capacity());
}

TYPED_TEST(Magazine, EnabledByDefaultAndServesDistinctNodes) {
    pool_for<TypeParam> pool(64);
    // Warm the magazine, then check recycled handouts stay exclusive and
    // arrive with the alloc contract (one reference, null next).
    std::vector<list_node<int, TypeParam>*> held;
    for (int i = 0; i < 32; ++i) held.push_back(pool.alloc());
    for (auto* n : held) pool.unref(n);
    pool.drain_retired();
    std::set<list_node<int, TypeParam>*> seen;
    for (int i = 0; i < 32; ++i) {
        auto* n = pool.alloc();
        EXPECT_TRUE(seen.insert(n).second) << "node handed out twice";
        EXPECT_EQ(refct_count(n->refct.load()), 1u);
        EXPECT_FALSE(refct_claimed(n->refct.load()));
        EXPECT_EQ(n->next.load(), nullptr);
    }
    for (auto* n : seen) pool.unref(n);
    expect_fully_accounted(pool);
}

TYPED_TEST(Magazine, MultiThreadChurnStaysAccounted) {
    pool_for<TypeParam> pool(256);
    constexpr int kThreads = 6;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            xorshift64 rng(0x3a93 + static_cast<std::uint64_t>(t) * 977);
            std::vector<list_node<int, TypeParam>*> held;
            for (int i = 0; i < scaled(4000); ++i) {
                if (held.size() < 8 && rng.next() % 2 == 0) {
                    held.push_back(pool.alloc());
                } else if (!held.empty()) {
                    pool.unref(held.back());
                    held.pop_back();
                }
            }
            for (auto* n : held) pool.unref(n);
        });
    }
    for (auto& th : ts) th.join();
    expect_fully_accounted(pool);
}

TYPED_TEST(Magazine, ThreadExitFlushesResidualMagazines) {
    pool_for<TypeParam> pool(128);
    std::thread worker([&] {
        // Fill this thread's magazines and walk away without flushing.
        std::vector<list_node<int, TypeParam>*> held;
        for (int i = 0; i < 64; ++i) held.push_back(pool.alloc());
        for (auto* n : held) pool.unref(n);
        pool.drain_retired();  // deferred policies: land nodes in OUR cache
    });
    worker.join();
    // The exit flush must have pushed every cached node somewhere the
    // pool can account for (global list or depot) — nothing leaked.
    expect_fully_accounted(pool);
    // And after an explicit full flush, nothing is cached at all.
    pool.flush_magazines();
    EXPECT_EQ(pool.magazine_cached_count(), 0u);
    expect_fully_accounted(pool);
}

TYPED_TEST(Magazine, DepotCyclesFullMagazines) {
    pool_config cfg;
    cfg.initial_capacity = 128;
    cfg.mag_rounds = 4;  // tiny magazines force depot traffic fast
    pool_for<TypeParam> pool(cfg);
    ASSERT_EQ(pool.magazine_rounds(), 4u);
    std::vector<list_node<int, TypeParam>*> held;
    for (int i = 0; i < 40; ++i) held.push_back(pool.alloc());
    for (auto* n : held) pool.unref(n);
    pool.drain_retired();  // deferred policies reclaim here, via magazines
    // 40 frees through 4-round magazines must have parked full magazines.
    EXPECT_GT(pool.depot_full_magazines(), 0u);
    EXPECT_GT(pool.magazine_cached_count(), 0u);
    // Alloc pulls them back out of the depot (same nodes, no growth).
    const std::size_t cap_before = pool.capacity();
    held.clear();
    for (int i = 0; i < 40; ++i) held.push_back(pool.alloc());
    EXPECT_EQ(pool.capacity(), cap_before);
    for (auto* n : held) pool.unref(n);
    expect_fully_accounted(pool);
}

TYPED_TEST(Magazine, TelemetryCountersPublishOnFlush) {
    auto& reg = telemetry::registry::global();
    const std::string label =
        std::string("policy=\"") + TypeParam::name + "\"";
    auto& hits = reg.get_counter("lfll_pool_magazine_hits_total", label);
    auto& flushes = reg.get_counter("lfll_pool_magazine_flushes_total", label);
    const auto hits_before = hits.value();
    const auto flushes_before = flushes.value();
    {
        pool_config cfg;
        cfg.initial_capacity = 64;
        cfg.mag_rounds = 4;
        pool_for<TypeParam> pool(cfg);
        for (int round = 0; round < 50; ++round) {
            auto* n = pool.alloc();
            pool.unref(n);
            pool.drain_retired();
        }
        pool.flush_magazines();  // folds this thread's tallies
    }
    EXPECT_GT(hits.value(), hits_before);
    EXPECT_GT(flushes.value(), flushes_before);
}

// Two pools back to back on the same thread: the second pool's id must
// not alias the first's stale cache record (detach + re-register path).
TYPED_TEST(Magazine, SequentialPoolsOnOneThreadDoNotAlias) {
    for (int round = 0; round < 3; ++round) {
        pool_for<TypeParam> pool(32);
        std::vector<list_node<int, TypeParam>*> held;
        for (int i = 0; i < 16; ++i) held.push_back(pool.alloc());
        for (auto* n : held) pool.unref(n);
        expect_fully_accounted(pool);
    }
}

}  // namespace
