// Scheduler coverage for the snapshot / range-query layer
// (step_kind::version_publish, step_kind::rq_validate), across all three
// reclamation policies. The windows under test:
//
//   * link-CAS -> born-stamp publication: an insert has won its swing but
//     not yet stamped born_ts; a preemption there leaves the cell in the
//     "in flight" state that snapshot walks must exclude without tearing
//     linearizability.
//   * dead-stamp -> victim hand-off -> physical unlink: an erase has
//     closed the victim's interval but not yet pushed it to in-flight
//     queries or unlinked it; a preemption there is exactly the hole the
//     registry exists to close (a miss surfaces as a torn snapshot:
//     a stable key absent, a duplicate, or an unsorted result).
//   * slot claim / timestamp draw / retire inside the registry itself
//     (rq_validate): pushes racing slot reuse must be filtered by the
//     next user's later timestamp, never leaked or double-consumed.
//   * split-ordered cross-bucket resize DURING a range query, including
//     the decay-driven shrink path (D1 residual): the resize CAS must
//     not split a snapshot.
//
// Pinned seeds replay fixed schedules through the deterministic
// scheduler — replay any one with LFLL_SCHED_REPLAY=<seed>.
#define LFLL_SCHED_CHAOS 1

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "lfll/core/audit.hpp"
#include "lfll/dict/bst.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/reclaim/epoch_policy.hpp"
#include "lfll/reclaim/hazard_policy.hpp"
#include "lfll/sched/session.hpp"

namespace {

using namespace lfll;

sched::options pinned(std::uint64_t seed) {
    sched::options o;
    o.seed = seed;
    o.sched_mode = (seed % 2 == 0) ? sched::mode::random_walk : sched::mode::pct;
    o.change_points = 3;
    o.max_steps = 2'000'000;
    o.record_trace = true;
    return o;
}

/// Snapshot invariants that need no linearizability search: sorted,
/// duplicate-free, and every key the churners never touch present.
template <typename Pairs>
void check_snapshot(const Pairs& snap, int stable_lo, int stable_hi) {
    EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end(),
                               [](const auto& a, const auto& b) {
                                   return a.first < b.first;
                               }));
    for (std::size_t i = 1; i < snap.size(); ++i) {
        EXPECT_NE(snap[i - 1].first, snap[i].first) << "duplicate in snapshot";
    }
    for (int k = stable_lo; k < stable_hi; ++k) {
        EXPECT_TRUE(std::any_of(snap.begin(), snap.end(),
                                [&](const auto& kv) { return kv.first == k; }))
            << "stable key " << k << " missing from snapshot";
    }
}

template <typename Map>
audit_report quiesce_and_audit(Map& map) {
    map.list().pool().drain_retired();
    return audit_list(map.list());
}

/// version_publish + rq_validate windows on the flat sorted map: two
/// churners recycle the mid-range keys while two snapshot bodies draw
/// overlapping tickets.
template <typename Policy>
void run_publish_window(std::uint64_t seed) {
    using map_t = sorted_list_map<int, int, std::less<int>, Policy>;
    map_t map(32);  // tiny pool: erased cells recycle under the queries
    for (int k = 0; k < 10; ++k) map.insert(k, 100 + k);
    std::vector<std::function<void()>> bodies;
    for (int q = 0; q < 2; ++q) {
        bodies.push_back([&map] {
            for (int round = 0; round < 3; ++round) {
                auto snap = map.range_query(0, 10);
                // Keys 0..2 and 8..9 are never churned.
                check_snapshot(snap, 0, 3);
                check_snapshot(snap, 8, 10);
            }
        });
    }
    for (int t = 0; t < 2; ++t) {
        bodies.push_back([&map, t] {
            for (int i = 0; i < 3; ++i) {
                const int k = 3 + (t * 3 + i) % 5;
                map.erase(k);
                map.insert(k, 110 + k);
            }
        });
    }
    sched::run(pinned(seed), std::move(bodies));
    EXPECT_GT(
        sched::scheduler::instance().kind_count(sched::step_kind::version_publish),
        0u)
        << "schedule never entered a stamp-publication window, seed " << seed;
    EXPECT_GT(sched::scheduler::instance().kind_count(sched::step_kind::rq_validate),
              0u)
        << "schedule never entered a registry window, seed " << seed;
    auto r = quiesce_and_audit(map);
    EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                      << " — replay with LFLL_SCHED_REPLAY=" << seed;
}

/// Cross-bucket window: a snapshot runs while inserts double the
/// directory and erases decay it back down (min_load set, check every
/// update). The resize CASes and the shrink must never split a snapshot.
template <typename Policy>
void run_resize_during_range_window(std::uint64_t seed) {
    using map_t = split_ordered_map<int, int, std::hash<int>, std::less<int>, Policy>;
    typename map_t::config cfg;
    cfg.initial_buckets = 2;
    cfg.capacity_hint = 96;
    cfg.max_load = 1.0;           // grows almost immediately
    cfg.min_load = 0.5;           // decay shrinks the directory back
    cfg.resize_check_period = 1;  // deterministic under the scheduler
    map_t map(cfg);
    for (int k = 0; k < 8; ++k) map.insert(k, k);  // stable keys 0..7
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&map] {
        for (int round = 0; round < 3; ++round) {
            auto snap = map.snapshot();
            check_snapshot(snap, 0, 8);
        }
    });
    bodies.push_back([&map] {  // grower: forces splits mid-query
        for (int k = 100; k < 110; ++k) map.insert(k, k);
    });
    bodies.push_back([&map] {  // decayer: erase back down, ticking shrink
        for (int k = 100; k < 110; ++k) map.erase(k);
        for (int k = 100; k < 110; ++k) map.erase(k);  // failed ops tick too
    });
    sched::run(pinned(seed), std::move(bodies));
    EXPECT_GT(
        sched::scheduler::instance().kind_count(sched::step_kind::version_publish),
        0u)
        << "schedule never entered a stamp-publication window, seed " << seed;
    // Post-run sanity at quiescence: all stable keys, none of the churned.
    // (The scheduler may run the decayer before the grower, so finish the
    // decay here.)
    for (int k = 100; k < 110; ++k) map.erase(k);
    auto snap = map.snapshot();
    EXPECT_EQ(snap.size(), 8u);
    check_snapshot(snap, 0, 8);
    map.list().pool().drain_retired();
    std::map<const typename map_t::node*, std::size_t> external;
    map.for_each_bucket_slot(
        [&](std::size_t, typename map_t::node* d) { external[d] += 1; });
    const audit_report r = audit_list(map.list(), external);
    EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                      << " — replay with LFLL_SCHED_REPLAY=" << seed;
}

/// Decay shrink under a real schedule (D1 residual): grow the directory
/// well past its floor, then erase-heavy decay must halve it at least
/// once — including via erases that FAIL (the old code only ticked the
/// resize check on successful ops, so a miss-heavy decay never shrank).
template <typename Policy>
void run_shrink_window(std::uint64_t seed) {
    using map_t = split_ordered_map<int, int, std::hash<int>, std::less<int>, Policy>;
    typename map_t::config cfg;
    cfg.initial_buckets = 2;
    cfg.capacity_hint = 160;
    cfg.max_load = 1.0;
    cfg.min_load = 0.5;
    cfg.resize_check_period = 1;
    map_t map(cfg);
    for (int k = 0; k < 48; ++k) map.insert(k, k);
    const std::size_t grown = map.bucket_count();
    ASSERT_GT(grown, map.initial_bucket_count());
    std::vector<std::function<void()>> bodies;
    for (int t = 0; t < 2; ++t) {
        bodies.push_back([&map, t] {
            for (int k = t; k < 48; k += 2) map.erase(k);
            for (int k = t; k < 8; k += 2) map.erase(k);  // misses tick too
        });
    }
    sched::run(pinned(seed), std::move(bodies));
    EXPECT_GE(map.shrink_count(), 1u)
        << "decay never shrank the directory (grown to " << grown
        << ", now " << map.bucket_count() << "), seed " << seed;
    EXPECT_LT(map.bucket_count(), grown);
    EXPECT_GE(map.bucket_count(), map.initial_bucket_count());
    EXPECT_EQ(map.size_slow(), 0u);
    map.list().pool().drain_retired();
    std::map<const typename map_t::node*, std::size_t> external;
    map.for_each_bucket_slot(
        [&](std::size_t, typename map_t::node* d) { external[d] += 1; });
    const audit_report r = audit_list(map.list(), external);
    EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                      << " — replay with LFLL_SCHED_REPLAY=" << seed;
}

/// BST replace-cell revive racing snapshots: the revive swing is a
/// physical unlink of the tombstone, so its pre-swing hand-off is what
/// keeps an overlapping snapshot from losing the interval.
template <typename Policy>
void run_bst_revive_window(std::uint64_t seed) {
    bst_set<int, std::less<int>, Policy> t{64};
    for (int k : {8, 4, 12, 2, 6, 10, 14}) t.insert(k);
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&t] {
        for (int round = 0; round < 3; ++round) {
            auto snap = t.snapshot();
            EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end()));
            EXPECT_TRUE(std::adjacent_find(snap.begin(), snap.end()) == snap.end());
            // 2, 8, 14 are never churned.
            for (int k : {2, 8, 14}) {
                EXPECT_TRUE(std::find(snap.begin(), snap.end(), k) != snap.end())
                    << "stable key " << k << " missing, seed";
            }
        }
    });
    for (int m = 0; m < 2; ++m) {
        bodies.push_back([&t, m] {
            const int k = (m == 0) ? 4 : 10;
            for (int i = 0; i < 3; ++i) {
                t.erase(k);
                t.insert(k);  // tombstone revive: replace-cell swing
            }
        });
    }
    sched::run(pinned(seed), std::move(bodies));
    EXPECT_GT(
        sched::scheduler::instance().kind_count(sched::step_kind::version_publish),
        0u)
        << "schedule never entered a stamp-publication window, seed " << seed;
    EXPECT_TRUE(t.validate_slow().empty());
    EXPECT_EQ(t.snapshot(), (std::vector<int>{2, 4, 6, 8, 10, 12, 14}));
}

TEST(RqSched, PinnedSeed_PublishWindow_Refcount) {
    for (std::uint64_t seed : {3ull, 8ull, 17ull, 29ull, 41ull, 56ull}) {
        run_publish_window<valois_refcount>(seed);
    }
}
TEST(RqSched, PinnedSeed_PublishWindow_Hazard) {
    for (std::uint64_t seed : {5ull, 12ull, 23ull, 38ull}) {
        run_publish_window<hazard_policy>(seed);
    }
}
TEST(RqSched, PinnedSeed_PublishWindow_Epoch) {
    for (std::uint64_t seed : {4ull, 9ull, 26ull}) {
        run_publish_window<epoch_policy>(seed);
    }
}

TEST(RqSched, PinnedSeed_ResizeDuringRange_Refcount) {
    for (std::uint64_t seed : {2ull, 7ull, 13ull, 31ull}) {
        run_resize_during_range_window<valois_refcount>(seed);
    }
}
TEST(RqSched, PinnedSeed_ResizeDuringRange_Hazard) {
    for (std::uint64_t seed : {6ull, 19ull}) {
        run_resize_during_range_window<hazard_policy>(seed);
    }
}
TEST(RqSched, PinnedSeed_ResizeDuringRange_Epoch) {
    for (std::uint64_t seed : {10ull, 15ull}) {
        run_resize_during_range_window<epoch_policy>(seed);
    }
}

TEST(RqSched, PinnedSeed_ShrinkWindow_Refcount) {
    for (std::uint64_t seed : {11ull, 22ull, 44ull}) {
        run_shrink_window<valois_refcount>(seed);
    }
}
TEST(RqSched, PinnedSeed_ShrinkWindow_Epoch) {
    for (std::uint64_t seed : {14ull, 27ull}) {
        run_shrink_window<epoch_policy>(seed);
    }
}

TEST(RqSched, PinnedSeed_BstReviveWindow_Refcount) {
    for (std::uint64_t seed : {3ull, 21ull, 35ull}) {
        run_bst_revive_window<valois_refcount>(seed);
    }
}
TEST(RqSched, PinnedSeed_BstReviveWindow_Hazard) {
    for (std::uint64_t seed : {16ull, 28ull}) {
        run_bst_revive_window<hazard_policy>(seed);
    }
}

}  // namespace
