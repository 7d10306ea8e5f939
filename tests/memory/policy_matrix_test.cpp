// The same structures, typed over all three memory-reclamation policies
// (§5 reference counting, hazard pointers, epochs). Every test body is
// policy-agnostic except where it asserts the policies' *different*
// observable guarantees: when a deleted node may be retired and when it
// may be recycled.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lfll/adapters/valois_queue.hpp"
#include "lfll/core/audit.hpp"
#include "lfll/core/list.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/memory/policy.hpp"
#include "lfll/reclaim/epoch_policy.hpp"
#include "lfll/reclaim/hazard_policy.hpp"
#include "test_scale.hpp"

namespace {

using lfll_test::scaled;

template <typename Policy>
class PolicyMatrix : public ::testing::Test {};

class PolicyNames {
public:
    template <typename Policy>
    static std::string GetName(int) {
        return Policy::name;
    }
};

using AllPolicies =
    ::testing::Types<lfll::valois_refcount, lfll::hazard_policy, lfll::epoch_policy>;
TYPED_TEST_SUITE(PolicyMatrix, AllPolicies, PolicyNames);

template <typename Policy>
void fill(lfll::valois_list<int, Policy>& list, int lo, int hi) {
    typename lfll::valois_list<int, Policy>::cursor c(list);
    for (int i = hi; i >= lo; --i) {
        list.first(c);
        list.insert(c, i);
    }
}

TYPED_TEST(PolicyMatrix, ListCursorInsertTraverseDeleteAudits) {
    lfll::valois_list<int, TypeParam> list(64);
    fill(list, 1, 16);

    std::vector<int> seen;
    {
        typename lfll::valois_list<int, TypeParam>::cursor c(list);
        while (!c.at_end()) {
            seen.push_back(*c);
            list.next(c);
        }
    }
    std::vector<int> want(16);
    std::iota(want.begin(), want.end(), 1);
    EXPECT_EQ(seen, want);

    // Delete every other cell from the front.
    for (int i = 0; i < 8; ++i) {
        typename lfll::valois_list<int, TypeParam>::cursor c(list);
        list.next(c);
        ASSERT_TRUE(list.try_delete(c));
    }
    EXPECT_EQ(list.size_slow(), 8u);

    list.pool().drain_retired();
    EXPECT_EQ(list.pool().retired_count(), 0u);
    auto report = lfll::audit_list(list);
    EXPECT_TRUE(report.ok) << report.error;
}

TYPED_TEST(PolicyMatrix, SortedMapSingleThreadedSemantics) {
    lfll::sorted_list_map<int, int, std::less<int>, TypeParam> map(256);
    for (int i = 0; i < 64; ++i) EXPECT_TRUE(map.insert(i, i * 10));
    for (int i = 0; i < 64; ++i) EXPECT_FALSE(map.insert(i, -1));
    for (int i = 0; i < 64; ++i) {
        auto v = map.find(i);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i * 10);
    }
    for (int i = 0; i < 64; i += 2) EXPECT_TRUE(map.erase(i));
    for (int i = 0; i < 64; ++i) EXPECT_EQ(map.contains(i), i % 2 == 1);
    EXPECT_EQ(map.size_slow(), 32u);

    map.list().pool().drain_retired();
    auto report = lfll::audit_list(map.list());
    EXPECT_TRUE(report.ok) << report.error;
}

TYPED_TEST(PolicyMatrix, SortedMapConcurrentChurnStaysConsistent) {
    constexpr int kKeys = 64;
    lfll::sorted_list_map<int, int, std::less<int>, TypeParam> map(4096);
    const int n_threads = 4;
    const int ops = scaled(4000);

    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; ++t) {
        threads.emplace_back([&, t] {
            unsigned state = 0x9e3779b9u * static_cast<unsigned>(t + 1);
            for (int i = 0; i < ops; ++i) {
                state = state * 1664525u + 1013904223u;
                const int key = static_cast<int>(state >> 8) % kKeys;
                switch (state % 3u) {
                    case 0: map.insert(key, key); break;
                    case 1: map.erase(key); break;
                    default: {
                        auto v = map.find(key);
                        if (v.has_value()) {
                            EXPECT_EQ(*v, key);
                        }
                        break;
                    }
                }
            }
        });
    }
    for (auto& th : threads) th.join();

    // Quiescent: retire everything outstanding and audit the full pool.
    map.list().pool().drain_retired();
    EXPECT_EQ(map.list().pool().retired_count(), 0u);
    auto report = lfll::audit_list(map.list());
    EXPECT_TRUE(report.ok) << report.error;
    EXPECT_LE(map.size_slow(), static_cast<std::size_t>(kKeys));
}

TYPED_TEST(PolicyMatrix, ValoisQueueMpmcConservesElements) {
    lfll::valois_queue<int, TypeParam> q(4096);
    const int n_producers = 2;
    const int n_consumers = 2;
    const int per_producer = scaled(5000);

    std::atomic<long long> consumed_sum{0};
    std::atomic<int> consumed_count{0};
    std::atomic<bool> done{false};

    std::vector<std::thread> threads;
    for (int p = 0; p < n_producers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 0; i < per_producer; ++i) q.enqueue(p * per_producer + i);
        });
    }
    for (int c = 0; c < n_consumers; ++c) {
        threads.emplace_back([&] {
            for (;;) {
                auto v = q.dequeue();
                if (v.has_value()) {
                    consumed_sum.fetch_add(*v, std::memory_order_relaxed);
                    consumed_count.fetch_add(1, std::memory_order_relaxed);
                } else if (done.load(std::memory_order_acquire)) {
                    // The empty result above was observed *before* the
                    // acquire of `done`, so it is not ordered after the
                    // producers' enqueues. Re-check once: this dequeue
                    // happens-after every enqueue, so empty now means
                    // empty for real (must consume, not discard).
                    auto v2 = q.dequeue();
                    if (!v2.has_value()) return;
                    consumed_sum.fetch_add(*v2, std::memory_order_relaxed);
                    consumed_count.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (int p = 0; p < n_producers; ++p) threads[static_cast<std::size_t>(p)].join();
    done.store(true, std::memory_order_release);
    for (int c = 0; c < n_consumers; ++c) {
        threads[static_cast<std::size_t>(n_producers + c)].join();
    }

    const int total = n_producers * per_producer;
    EXPECT_EQ(consumed_count.load(), total);
    long long want = 0;
    for (int p = 0; p < n_producers; ++p)
        for (int i = 0; i < per_producer; ++i) want += p * per_producer + i;
    EXPECT_EQ(consumed_sum.load(), want);

    q.pool().drain_retired();
    EXPECT_EQ(q.pool().retired_count(), 0u);
}

// The safety property the policy layer exists for: a node deleted from
// the list while a cursor still references it must not be recycled until
// that cursor lets go — via the count word under the counted policies,
// via the guard's grace period under epochs.
TYPED_TEST(PolicyMatrix, DeletedNodeNotRecycledWhileCursorHeld) {
    using list_t = lfll::valois_list<int, TypeParam>;
    list_t list(32);
    fill(list, 1, 4);

    typename list_t::cursor held(list);  // parked on cell 1, guard engaged
    auto* victim = held.target();
    ASSERT_NE(victim, nullptr);
    ASSERT_EQ(*held, 1);

    {
        typename list_t::cursor deleter(list);
        ASSERT_TRUE(list.try_delete(deleter));  // unlinks cell 1
    }

    if (TypeParam::counted_traversal) {
        // The cursor's counted reference blocks the VICTIM's retirement
        // outright. The aux node compacted away by the deletion carries
        // no cursor pin (pre_aux is an unreferenced hint), so it may
        // legitimately sit on the retire list under hazard — but never
        // more than that one aux.
        EXPECT_LE(list.pool().retired_count(), 1u);
    } else {
        // Epoch: the node retires immediately but is banked, and the
        // cursor's pin keeps its bucket from being freed.
        EXPECT_GE(list.pool().retired_count(), 1u);
        list.pool().drain_retired();  // bounded; must NOT reclaim under our pin
        EXPECT_GE(list.pool().retired_count(), 1u);
    }

    // Cell persistence (§2.2): the deleted cell stays intact while held.
    EXPECT_EQ(held.target(), victim);
    EXPECT_TRUE(victim->is_cell());
    EXPECT_EQ(*held, 1);
    EXPECT_TRUE(victim->is_deleted());

    held.reset();  // drop the references and the guard
    list.pool().drain_retired();
    EXPECT_EQ(list.pool().retired_count(), 0u);

    // The slot really is reusable now: churn through the pool and audit.
    for (int round = 0; round < 3; ++round) {
        fill(list, 100 + round, 120 + round);
        for (int i = 0; i < 21; ++i) {
            typename list_t::cursor c(list);
            ASSERT_TRUE(list.try_delete(c));
        }
    }
    list.pool().drain_retired();
    auto report = lfll::audit_list(list);
    EXPECT_TRUE(report.ok) << report.error;
}

// Guards are reentrant per (thread, domain): nesting cursor guards and
// copying cursors must balance enter/leave exactly (a leak here would
// wedge epoch advancement and show up as unreclaimable nodes).
TYPED_TEST(PolicyMatrix, NestedAndCopiedGuardsBalance) {
    using list_t = lfll::valois_list<int, TypeParam>;
    list_t list(32);
    fill(list, 1, 8);

    {
        typename list_t::cursor outer(list);
        typename list_t::cursor inner(list);
        list.next(inner);
        typename list_t::cursor copied(inner);
        EXPECT_EQ(*copied, *inner);
        typename list_t::cursor moved(std::move(copied));
        EXPECT_EQ(*moved, 2);
    }

    // All guards are gone: deletions now must become reclaimable.
    for (int i = 0; i < 8; ++i) {
        typename list_t::cursor c(list);
        ASSERT_TRUE(list.try_delete(c));
    }
    list.pool().drain_retired();
    EXPECT_EQ(list.pool().retired_count(), 0u);
    auto report = lfll::audit_list(list);
    EXPECT_TRUE(report.ok) << report.error;
}

}  // namespace
