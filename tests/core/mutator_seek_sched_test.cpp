// Scheduler coverage for the batched mutator seek (seek_while /
// batch_seek_step, step_kind::batch_seek) and the per-thread SafeRead
// cache (step_kind::safe_read_cache), across all three reclamation
// policies. The two windows under test:
//
//   * batch-snapshot -> referenced-cursor handoff: batch_seek_step has
//     snapshotted a segment and is about to try_ref the landing pre/
//     target cells; a preemption there lets churners recycle snapshot
//     nodes, and the post-ref incarnation re-sweep must catch it (a
//     missed catch surfaces as a count-audit imbalance or a cursor on
//     a recycled cell).
//   * cache-hit-on-recycled-cell: sr_take is about to revalidate a hint
//     entry (try_ref + incarnation sandwich); a preemption lets a
//     deleter recycle the cached cell, bumping its incarnation, and the
//     take must back out (full unref) rather than hand a stale cell to
//     the cursor.
//
// Pinned seeds replay fixed schedules through the deterministic
// scheduler — replay any one with LFLL_SCHED_REPLAY=<seed>. Under
// epoch_policy both mechanisms compile out (counted_traversal false);
// the same bodies must still run clean, with zero window entries.
#define LFLL_SCHED_CHAOS 1

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "lfll/core/audit.hpp"
#include "lfll/dict/sorted_list_map.hpp"
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

/// Cursor-based lookup through the batched mutator seek. map::find()
/// rides scan() and never enters batch_seek_step or the SafeRead
/// cache; both chaos windows live on the find_from path, so the
/// seeker/reader bodies must drive it directly.
template <typename Map>
std::optional<int> seek_find(Map& map, int key) {
    typename Map::cursor c(map.list());
    if (!map.find_from(key, c)) return std::nullopt;
    return (*c).second;
}

/// Drain every thread-local buffer the policies keep (deferred
/// decrements, parked cache references, retired nodes) so the §5 audit
/// sees a quiescent structure.
template <typename Map>
audit_report quiesce_and_audit(Map& map) {
    map.list().pool().flush_deferred_releases();
    map.list().pool().drain_retired();
    return audit_list(map.list());
}

/// Handoff window: seekers (find on mid-list keys, so the batch stops
/// inside a snapshot and must hand off into the referenced cursor)
/// race insert/erase churners over the same short stretch of list on a
/// tiny recycling pool.
template <typename Policy>
void run_handoff_window(std::uint64_t seed) {
    using map_t = sorted_list_map<int, int, std::less<int>, Policy>;
    map_t map(24);  // tiny pool: erased cells recycle under the seekers
    for (int k = 0; k < 10; ++k) map.insert(k, 100 + k);
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&map] {  // seeker: lands mid-batch every time
        for (int round = 0; round < 4; ++round) {
            for (int k = 3; k <= 7; ++k) {
                auto v = seek_find(map, k);
                if (v) {
                    EXPECT_GE(*v, 100);
                    EXPECT_LE(*v, 120);
                }
            }
        }
    });
    for (int t = 0; t < 2; ++t) {
        bodies.push_back([&map, t] {  // churners: recycle snapshot nodes
            for (int i = 0; i < 4; ++i) {
                const int k = 3 + (t * 2 + i) % 5;
                map.erase(k);
                map.insert(k, 110 + k);
            }
        });
    }
    sched::run(pinned(seed), std::move(bodies));
    if constexpr (map_t::list_type::pool_type::counts_traversal) {
        EXPECT_GT(sched::scheduler::instance().kind_count(sched::step_kind::batch_seek),
                  0u)
            << "schedule never entered the handoff window, seed " << seed;
    } else {
        EXPECT_EQ(sched::scheduler::instance().kind_count(sched::step_kind::batch_seek),
                  0u);
    }
    auto r = quiesce_and_audit(map);
    EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                      << " — replay with LFLL_SCHED_REPLAY=" << seed;
}

/// Recycled-cache-hit window: a reader re-finds the same hot keys (its
/// cursor resets park the cells in the SafeRead cache, the next find
/// takes them back) while a churner erases and reinserts exactly those
/// keys, recycling the cached cells and bumping their incarnations.
template <typename Policy>
void run_recycled_cache_hit_window(std::uint64_t seed) {
    using map_t = sorted_list_map<int, int, std::less<int>, Policy>;
    pool_config cfg;
    cfg.initial_capacity = 16;  // erased cells come straight back
    cfg.saferead_cache = 1;     // force on, whatever the env says
    cfg.saferead_cache_size = 8;
    typename map_t::list_type::pool_type pool(cfg);
    map_t map(pool);
    for (int k = 0; k < 4; ++k) map.insert(k, 200 + k);
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&map] {  // reader: hot repeat visits
        for (int round = 0; round < 6; ++round) {
            for (int k = 0; k < 4; ++k) {
                auto v = seek_find(map, k);
                if (v) {
                    EXPECT_GE(*v, 200);
                    EXPECT_LE(*v, 220);
                }
            }
        }
    });
    bodies.push_back([&map] {  // churner: recycle the cached cells
        for (int i = 0; i < 5; ++i) {
            const int k = i % 4;
            map.erase(k);
            map.insert(k, 210 + k);
        }
    });
    sched::run(pinned(seed), std::move(bodies));
    if constexpr (map_t::list_type::pool_type::counts_traversal) {
        EXPECT_GT(
            sched::scheduler::instance().kind_count(sched::step_kind::safe_read_cache),
            0u)
            << "schedule never entered a cache take/donate window, seed " << seed;
    } else {
        EXPECT_EQ(
            sched::scheduler::instance().kind_count(sched::step_kind::safe_read_cache),
            0u);
    }
    auto r = quiesce_and_audit(map);
    EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                      << " — replay with LFLL_SCHED_REPLAY=" << seed;
}

/// Landing-recycle window: the seek superhop runs the predicate on
/// each payload copy and ends its segment at the first cell that fails
/// it, so the copy must be re-validated (per-cell incarnation check)
/// before that stop decision. The pinned schedules preempt the seeker
/// between the landing cell's copy and that check while a churner
/// erases and reinserts exactly the landing keys: with the SafeRead
/// cache and deferred release off, the erased cell is reclaimed (its
/// incarnation bumps) and reused at once. The check must reject the
/// copy and the seek fall back to the per-cell hop; every landing must
/// still sit past its predecessor's key. These schedules pin the
/// re-check's failure path, not its necessity: without it the commit
/// would still catch the recycle, and a torn copy (what the re-check
/// keeps from the predicate) cannot occur under the serializing
/// scheduler. Returns the seeker's superhop fallbacks.
template <typename Policy>
std::uint64_t run_landing_recycle_window(std::uint64_t seed) {
    using map_t = sorted_list_map<int, int, std::less<int>, Policy>;
    pool_config cfg;
    cfg.initial_capacity = 24;  // erased cells come straight back
    cfg.saferead_cache = 0;     // a parked reference would pin the cell
    cfg.deferred_release = 0;   // so would a buffered decrement
    typename map_t::list_type::pool_type pool(cfg);
    map_t map(pool);
    for (int k = 0; k < 8; ++k) map.insert(k, 100 + k);
    std::uint64_t fallbacks = 0;
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&map, &fallbacks] {  // seeker: lands on the churned keys
        auto& ctr = instrument::tls();
        const std::uint64_t before = ctr.batch_fallbacks.load();
        for (int round = 0; round < 4; ++round) {
            for (int k : {2, 4, 6}) {
                typename map_t::cursor c(map.list());
                const bool found = map.find_from(k, c);
                ASSERT_FALSE(c.at_end());
                EXPECT_GE((*c).first, k);
                if (c.pre_cell()->is_cell()) {
                    EXPECT_LT(c.pre_cell()->value().first, k);
                }
                if (found) {
                    EXPECT_EQ((*c).first, k);
                    EXPECT_TRUE((*c).second == 100 + k || (*c).second == 110 + k);
                }
            }
        }
        fallbacks = ctr.batch_fallbacks.load() - before;
    });
    bodies.push_back([&map] {  // churner: recycle the landing cells
        for (int i = 0; i < 6; ++i) {
            const int k = 2 + 2 * (i % 3);
            map.erase(k);
            map.insert(k, 110 + k);
        }
    });
    // PCT with change points packed into the run's first 256 steps:
    // demoting the seeker inside the copy -> re-check window lets the
    // churner finish an erase (and its reclaim) before the seeker resumes.
    sched::options o = pinned(seed);
    o.change_points = 6;
    o.change_horizon = 256;
    sched::run(o, std::move(bodies));
    if constexpr (map_t::list_type::pool_type::counts_traversal) {
        EXPECT_GT(sched::scheduler::instance().kind_count(sched::step_kind::batch_seek),
                  0u)
            << "seed " << seed;
    } else {
        EXPECT_EQ(sched::scheduler::instance().kind_count(sched::step_kind::batch_seek),
                  0u);
        EXPECT_EQ(fallbacks, 0u);
    }
    auto r = quiesce_and_audit(map);
    EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                      << " — replay with LFLL_SCHED_REPLAY=" << seed;
    return fallbacks;
}

TEST(MutatorSeekSched, PinnedSeed_HandoffWindow_Refcount) {
    for (std::uint64_t seed : {3ull, 8ull, 17ull, 29ull, 41ull, 56ull}) {
        run_handoff_window<valois_refcount>(seed);
    }
}

TEST(MutatorSeekSched, PinnedSeed_HandoffWindow_Hazard) {
    for (std::uint64_t seed : {5ull, 12ull, 23ull, 38ull}) {
        run_handoff_window<hazard_policy>(seed);
    }
}

TEST(MutatorSeekSched, PinnedSeed_HandoffWindow_EpochCompilesOut) {
    for (std::uint64_t seed : {4ull, 9ull}) {
        run_handoff_window<epoch_policy>(seed);
    }
}

// The landing-recycle seeds were picked with a probe that counted
// per-cell re-check failures: in each, the churner recycles a landing
// cell inside the seeker's copy -> re-check window. The seeker's
// superhop fallbacks must show it.
TEST(MutatorSeekSched, PinnedSeed_LandingRecycle_Refcount) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {71ull, 101ull, 129ull, 171ull, 187ull}) {
        fallbacks += run_landing_recycle_window<valois_refcount>(seed);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule made the seek fall back";
}

TEST(MutatorSeekSched, PinnedSeed_LandingRecycle_Hazard) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {79ull, 101ull, 115ull, 129ull}) {
        fallbacks += run_landing_recycle_window<hazard_policy>(seed);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule made the seek fall back";
}

TEST(MutatorSeekSched, PinnedSeed_LandingRecycle_EpochCompilesOut) {
    for (std::uint64_t seed : {71ull, 79ull}) {
        run_landing_recycle_window<epoch_policy>(seed);
    }
}

TEST(MutatorSeekSched, PinnedSeed_RecycledCacheHit_Refcount) {
    for (std::uint64_t seed : {2ull, 7ull, 13ull, 23ull, 37ull, 61ull}) {
        run_recycled_cache_hit_window<valois_refcount>(seed);
    }
}

TEST(MutatorSeekSched, PinnedSeed_RecycledCacheHit_Hazard) {
    for (std::uint64_t seed : {6ull, 11ull, 19ull, 31ull}) {
        run_recycled_cache_hit_window<hazard_policy>(seed);
    }
}

TEST(MutatorSeekSched, PinnedSeed_RecycledCacheHit_EpochCompilesOut) {
    for (std::uint64_t seed : {10ull, 15ull}) {
        run_recycled_cache_hit_window<epoch_policy>(seed);
    }
}

}  // namespace
