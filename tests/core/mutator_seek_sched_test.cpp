// Scheduler coverage for the mutator seek (seek_while, walk's seek
// mode, step_kind::batch_seek), the read-only lookup (lookup_from, the
// same superhop with a reference-free landing), across all three
// reclamation policies. The windows under test:
//
//   * batch-snapshot -> referenced-cursor handoff: the seek has
//     snapshotted a segment and is about to try_ref the landing's
//     interior pre_cell; a preemption there lets churners recycle
//     snapshot nodes, and the post-ref incarnation re-sweep must catch
//     it (a missed catch surfaces as a count-audit imbalance or a
//     cursor on a recycled cell).
//   * borrowed start: a write's seek walks from First without a
//     reference, so an erase can recycle the start's first cell between
//     the read-only walk and the landing's protect.
//   * landing copy -> sweep (lookups): the landing cell holds no
//     reference, so a churner that recycles it after its copy must fail
//     the per-cell check or the closing sweep.
//   * link load -> incarnation load (seeks and lookups): a node unlinked
//     and recycled between the load of the link that names it and the
//     load of its incarnation must be caught by the link re-read.
//   * the rolling window (lookups, seeks, range-query prefixes): a walk
//     that crosses a full segment carries its last aux, unreferenced,
//     into the next segment's sweep; an aux recycled between the two
//     sweeps must be caught by the carried record.
//
// Pinned seeds replay fixed schedules through the deterministic
// scheduler — replay any one with LFLL_SCHED_REPLAY=<seed>. Under
// epoch_policy the superhop compiles out (counted_traversal false); the
// same bodies must still run clean, with zero window entries.
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

/// Cursor-based lookup through the mutator seek. map::find() rides the
/// read-only lookup and never lands a cursor; the handoff window lives
/// on the find_from path, so the seeker bodies must drive it directly.
template <typename Map>
std::optional<int> seek_find(Map& map, int key) {
    typename Map::cursor c(map.list());
    if (!map.find_from(key, c)) return std::nullopt;
    return (*c).second;
}

/// Drain the policies' banked retired nodes so the §5 audit sees a
/// quiescent structure.
template <typename Map>
audit_report quiesce_and_audit(Map& map) {
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

/// Landing-recycle window: the seek superhop runs the predicate on
/// each payload copy and ends its segment at the first cell that fails
/// it, so the copy must be re-validated (per-cell incarnation check)
/// before that stop decision. The pinned schedules preempt the seeker
/// between the landing cell's copy and that check while a churner
/// erases and reinserts exactly the landing keys: the erased cell is
/// reclaimed (its incarnation bumps) and reused at once. The check must
/// reject the copy and the seek fall back to the per-cell hop; every
/// landing must still sit past its predecessor's key. These schedules pin the
/// re-check's failure path, not its necessity: without it the commit
/// would still catch the recycle, and a torn copy (what the re-check
/// keeps from the predicate) cannot occur under the serializing
/// scheduler. Returns the seeker's superhop fallbacks.
template <typename Policy>
std::uint64_t run_landing_recycle_window(std::uint64_t seed) {
    using map_t = sorted_list_map<int, int, std::less<int>, Policy>;
    pool_config cfg;
    cfg.initial_capacity = 24;  // erased cells come straight back
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

/// Point reads racing churn on the landing keys, for the two unreferenced
/// windows of the superhop: the seeker reads every key 1..7 — through
/// the read-only lookup (map.find) or the cursor seek (find_from) — while
/// a churner erases and reinserts the even keys on a tiny pool, so an
/// erased cell is reclaimed (its incarnation bumps) and reused at once.
/// The odd keys are never erased: every read of one must find it with
/// its value, whatever the walk fell back to. When the aux before an
/// erased cell stays at its incarnation across the cell's recycle, only
/// the link re-read (batch_hop's touch) can tell that the cell the walk
/// named was recycled. Returns the seeker's superhop fallbacks.
template <typename Policy>
std::uint64_t run_point_read_recycle_window(std::uint64_t seed, bool lookup) {
    using map_t = sorted_list_map<int, int, std::less<int>, Policy>;
    pool_config cfg;
    cfg.initial_capacity = 24;  // erased cells come straight back
    typename map_t::list_type::pool_type pool(cfg);
    map_t map(pool);
    for (int k = 0; k < 8; ++k) map.insert(k, 100 + k);
    std::uint64_t fallbacks = 0;
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&map, &fallbacks, lookup] {
        auto& ctr = instrument::tls();
        const std::uint64_t before = ctr.batch_fallbacks.load();
        for (int round = 0; round < 3; ++round) {
            for (int k = 1; k <= 7; ++k) {
                std::optional<int> v;
                if (lookup) {
                    v = map.find(k);
                } else {
                    v = seek_find(map, k);
                }
                if (k % 2 == 1) {
                    EXPECT_EQ(v, std::optional<int>(100 + k)) << "never-erased key " << k;
                } else if (v) {
                    EXPECT_TRUE(*v == 100 + k || *v == 110 + k) << "key " << k << " read " << *v;
                }
            }
        }
        fallbacks = ctr.batch_fallbacks.load() - before;
    });
    bodies.push_back([&map] {  // churner: recycle the even cells
        for (int i = 0; i < 6; ++i) {
            const int k = 2 + 2 * (i % 3);
            map.erase(k);
            map.insert(k, 110 + k);
        }
    });
    // As for the landing-recycle seeds: change points packed early, so
    // the seeker is demoted inside its windows while the churner runs.
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

/// Borrowed-start and landing-upgrade windows: a write's seek walks
/// read-only from First, which it borrows, and takes references only at
/// its landing, so a concurrent erase can unlink and recycle a node the
/// walk read between the walk and the landing. The writer erases and
/// reinserts `own`, the churner `churned`, each key owned by one thread
/// so every call must succeed; an erased cell is reclaimed (its
/// incarnation bumps) and reused at once. BorrowedStart: own = 0
/// and churned = 1, the start's first cell, so the writer lands inside
/// its first segment with First as pre_cell. LandingUpgrade: own = 3 and
/// churned = 2, the landing's pre_cell, which the upgrade's try_ref and
/// re-sweep must catch recycled. Returns the writer's superhop fallbacks.
template <typename Policy>
std::uint64_t run_borrowed_write_window(std::uint64_t seed, int own, int churned) {
    using map_t = sorted_list_map<int, int, std::less<int>, Policy>;
    pool_config cfg;
    cfg.initial_capacity = 24;  // erased cells come straight back
    typename map_t::list_type::pool_type pool(cfg);
    map_t map(pool);
    for (int k = 0; k < 8; ++k) {
        if (k != own) map.insert(k, 100 + k);
    }
    std::uint64_t fallbacks = 0;
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&map, &fallbacks, own] {
        auto& ctr = instrument::tls();
        const std::uint64_t before = ctr.batch_fallbacks.load();
        for (int round = 0; round < 4; ++round) {
            EXPECT_TRUE(map.insert(own, 200 + round)) << "round " << round;
            EXPECT_TRUE(map.erase(own)) << "round " << round;
        }
        fallbacks = ctr.batch_fallbacks.load() - before;
    });
    bodies.push_back([&map, churned] {
        for (int i = 0; i < 4; ++i) {
            EXPECT_TRUE(map.erase(churned)) << "churn " << i;
            EXPECT_TRUE(map.insert(churned, 110 + churned)) << "churn " << i;
        }
    });
    // Change points packed early, as for the landing-recycle seeds.
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
    for (int k = 0; k < 8; ++k) {
        std::optional<int> want;
        if (k == churned) {
            want = 110 + k;
        } else if (k != own) {
            want = 100 + k;
        }
        EXPECT_EQ(map.find(k), want) << "key " << k << ", seed " << seed;
    }
    auto r = quiesce_and_audit(map);
    EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                      << " — replay with LFLL_SCHED_REPLAY=" << seed;
    return fallbacks;
}

/// The walk a rolling-window schedule drives.
enum class roll_walk { lookup, seek, range };

/// Rolling-window recycle: a walk from First crosses keys 0..14 in its
/// first full segment and, instead of protecting the segment's end,
/// rolls its validation window at the aux after 14, carrying that aux
/// (and cell 14) into the next segment's sweep. The churner erases 15,
/// which unlinks and recycles exactly that aux, and inserts a key past
/// the stable range, which takes the recycled aux for its own: linked
/// at the end of the list, it leads to Last. A walk that read on
/// through it would land past every stable key 16..23; the carried
/// record makes the next sweep catch the recycle, and the walk goes on
/// from the carried cell. Every read of a stable key must find it.
/// Returns the reader's superhop fallbacks.
template <typename Policy>
std::uint64_t run_rolling_window(std::uint64_t seed, roll_walk walk) {
    using map_t = sorted_list_map<int, int, std::less<int>, Policy>;
    pool_config cfg;
    cfg.initial_capacity = 56;  // erased nodes come straight back
    typename map_t::list_type::pool_type pool(cfg);
    map_t map(pool);
    for (int k = 0; k < 24; ++k) map.insert(k, 100 + k);
    std::uint64_t fallbacks = 0;
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&map, &fallbacks, walk] {
        auto& ctr = instrument::tls();
        const std::uint64_t before = ctr.batch_fallbacks.load();
        for (int round = 0; round < 2; ++round) {
            for (int k = 16; k < 24; k += 3) {
                if (walk == roll_walk::range) {
                    const auto got = map.range_query(k, k + 2);
                    ASSERT_EQ(got.size(), 2u) << "range [" << k << ", " << k + 2 << ")";
                    EXPECT_EQ(got[0], std::make_pair(k, 100 + k));
                    EXPECT_EQ(got[1], std::make_pair(k + 1, 101 + k));
                } else if (walk == roll_walk::lookup) {
                    EXPECT_EQ(map.find(k), std::optional<int>(100 + k)) << "stable key " << k;
                } else {  // a write's seek: anchored at First, as insert and erase are
                    typename map_t::cursor c;
                    map.list().anchor(c, map.list().head());
                    ASSERT_TRUE(map.find_from(k, c)) << "stable key " << k;
                    EXPECT_EQ((*c).second, 100 + k);
                    ASSERT_TRUE(c.pre_cell()->is_cell());
                    EXPECT_LT(c.pre_cell()->value().first, k);  // 15 may be erased
                    EXPECT_GE(c.pre_cell()->value().first, k - 2);
                }
            }
        }
        fallbacks = ctr.batch_fallbacks.load() - before;
    });
    bodies.push_back([&map] {  // churner: recycle the carried aux
        for (int i = 0; i < 3; ++i) {
            EXPECT_TRUE(map.erase(15));
            EXPECT_TRUE(map.insert(40 + i, 0));
            EXPECT_TRUE(map.insert(15, 115));
            EXPECT_TRUE(map.erase(40 + i));
        }
    });
    sched::options o = pinned(seed);
    o.change_points = 6;
    o.change_horizon = 1024;
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
    for (int k = 0; k < 24; ++k) {
        EXPECT_EQ(map.find(k), std::optional<int>(100 + k)) << "key " << k << ", seed " << seed;
    }
    auto r = quiesce_and_audit(map);
    EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                      << " — replay with LFLL_SCHED_REPLAY=" << seed;
    return fallbacks;
}

/// touch's link re-read: a lookup has loaded the link naming cell 0
/// (First's aux -> 0) and not yet its incarnation when the churner
/// erases 0 and inserts a key past the stable range, which takes the
/// recycled cell. A third thread, positioning cursors at First, holds
/// First's old aux through its reposition hop, so that aux keeps its
/// incarnation across the recycle and the closing sweep passes: only
/// the re-read, which finds the aux no longer naming the cell, stops
/// the lookup from landing on the reused cell (a key past every stable
/// one) and reporting a stable key absent. Returns the reader's
/// superhop fallbacks.
template <typename Policy>
std::uint64_t run_touch_reread_window(std::uint64_t seed) {
    using map_t = sorted_list_map<int, int, std::less<int>, Policy>;
    pool_config cfg;
    cfg.initial_capacity = 24;  // erased nodes come straight back
    typename map_t::list_type::pool_type pool(cfg);
    map_t map(pool);
    for (int k = 0; k < 8; ++k) map.insert(k, 100 + k);
    std::uint64_t fallbacks = 0;
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&map, &fallbacks] {
        auto& ctr = instrument::tls();
        const std::uint64_t before = ctr.batch_fallbacks.load();
        for (int round = 0; round < 3; ++round) {
            for (int k = 1; k < 8; k += 2) {
                EXPECT_EQ(map.find(k), std::optional<int>(100 + k)) << "stable key " << k;
            }
        }
        fallbacks = ctr.batch_fallbacks.load() - before;
    });
    bodies.push_back([&map] {  // churner: recycle the first cell
        for (int i = 0; i < 3; ++i) {
            EXPECT_TRUE(map.erase(0));
            EXPECT_TRUE(map.insert(40 + i, 0));
            EXPECT_TRUE(map.insert(0, 100));
            EXPECT_TRUE(map.erase(40 + i));
        }
    });
    bodies.push_back([&map] {  // holder: reposition hops through First's aux
        for (int i = 0; i < 12; ++i) {
            typename map_t::cursor c(map.list());
            EXPECT_FALSE(c.at_end());
        }
    });
    sched::options o = pinned(seed);
    o.change_points = 6;
    o.change_horizon = 512;
    sched::run(o, std::move(bodies));
    if constexpr (!map_t::list_type::pool_type::counts_traversal) {
        EXPECT_EQ(sched::scheduler::instance().kind_count(sched::step_kind::batch_seek),
                  0u);
        EXPECT_EQ(fallbacks, 0u);
    }
    for (int k = 0; k < 8; ++k) {
        EXPECT_EQ(map.find(k), std::optional<int>(100 + k)) << "key " << k << ", seed " << seed;
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
// superhop fallbacks must show it. (Re-picked when the deferred-release
// steps left the schedules and the link-load step joined them.)
TEST(MutatorSeekSched, PinnedSeed_LandingRecycle_Refcount) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {51ull, 77ull, 105ull, 153ull, 165ull}) {
        fallbacks += run_landing_recycle_window<valois_refcount>(seed);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule made the seek fall back";
}

TEST(MutatorSeekSched, PinnedSeed_LandingRecycle_Hazard) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {65ull, 79ull, 105ull, 165ull}) {
        fallbacks += run_landing_recycle_window<hazard_policy>(seed);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule made the seek fall back";
}

TEST(MutatorSeekSched, PinnedSeed_LandingRecycle_EpochCompilesOut) {
    for (std::uint64_t seed : {71ull, 79ull}) {
        run_landing_recycle_window<epoch_policy>(seed);
    }
}

// The borrowed-write seeds were picked with a probe that counted, in the
// writer, superhops from the borrowed First that failed validation
// (BorrowedStart) and landing upgrades whose try_ref or re-sweep failed
// (LandingUpgrade). The writer's superhop fallbacks must show them.
TEST(MutatorSeekSched, PinnedSeed_BorrowedStart_Refcount) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {1ull, 2ull, 5ull, 16ull, 28ull}) {
        fallbacks += run_borrowed_write_window<valois_refcount>(seed, 0, 1);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule recycled the start's first cell";
}

TEST(MutatorSeekSched, PinnedSeed_BorrowedStart_Hazard) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {1ull, 10ull, 24ull, 33ull}) {
        fallbacks += run_borrowed_write_window<hazard_policy>(seed, 0, 1);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule recycled the start's first cell";
}

TEST(MutatorSeekSched, PinnedSeed_BorrowedStart_EpochCompilesOut) {
    for (std::uint64_t seed : {4ull, 9ull}) {
        run_borrowed_write_window<epoch_policy>(seed, 0, 1);
    }
}

TEST(MutatorSeekSched, PinnedSeed_LandingUpgrade_Refcount) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {3ull, 8ull, 47ull, 83ull, 136ull}) {
        fallbacks += run_borrowed_write_window<valois_refcount>(seed, 3, 2);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule recycled a landing's pre_cell";
}

TEST(MutatorSeekSched, PinnedSeed_LandingUpgrade_Hazard) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {13ull, 37ull, 41ull, 110ull}) {
        fallbacks += run_borrowed_write_window<hazard_policy>(seed, 3, 2);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule recycled a landing's pre_cell";
}

TEST(MutatorSeekSched, PinnedSeed_LandingUpgrade_EpochCompilesOut) {
    for (std::uint64_t seed : {71ull, 79ull}) {
        run_borrowed_write_window<epoch_policy>(seed, 3, 2);
    }
}

// The point-read seeds were picked with a probe that counted recycles
// inside each window. Lookup landing: the landing cell recycled between
// its copy and the closing sweep.
TEST(MutatorSeekSched, PinnedSeed_LookupLandingRecycle_Refcount) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {203ull, 313ull, 359ull, 525ull, 547ull}) {
        fallbacks += run_point_read_recycle_window<valois_refcount>(seed, true);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule made a lookup fall back";
}

TEST(MutatorSeekSched, PinnedSeed_LookupLandingRecycle_Hazard) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {61ull, 477ull, 483ull, 605ull}) {
        fallbacks += run_point_read_recycle_window<hazard_policy>(seed, true);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule made a lookup fall back";
}

TEST(MutatorSeekSched, PinnedSeed_LookupLandingRecycle_EpochCompilesOut) {
    for (std::uint64_t seed : {61ull, 203ull}) {
        run_point_read_recycle_window<epoch_policy>(seed, true);
    }
}

// Link load -> incarnation load: a cell recycled between the two, for
// both the lookup and the seek.
TEST(MutatorSeekSched, PinnedSeed_LinkLoadRecycle_Refcount) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {29ull, 81ull, 133ull, 167ull, 177ull}) {
        fallbacks += run_point_read_recycle_window<valois_refcount>(seed, true);
    }
    for (std::uint64_t seed : {111ull, 117ull, 219ull, 247ull}) {
        fallbacks += run_point_read_recycle_window<valois_refcount>(seed, false);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule made a read fall back";
}

TEST(MutatorSeekSched, PinnedSeed_LinkLoadRecycle_Hazard) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {61ull, 81ull, 101ull, 111ull}) {
        fallbacks += run_point_read_recycle_window<hazard_policy>(seed, true);
    }
    for (std::uint64_t seed : {117ull, 265ull, 279ull, 327ull}) {
        fallbacks += run_point_read_recycle_window<hazard_policy>(seed, false);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule made a read fall back";
}

TEST(MutatorSeekSched, PinnedSeed_LinkLoadRecycle_EpochCompilesOut) {
    for (std::uint64_t seed : {29ull, 111ull}) {
        run_point_read_recycle_window<epoch_policy>(seed, true);
        run_point_read_recycle_window<epoch_policy>(seed, false);
    }
}

// The same window swept, not pinned, under all three policies: a seed
// in which the aux before a recycled cell stays at its incarnation
// passes the closing sweep, and only the link re-read rejects the walk.
// No seed here reaches that case (another thread must hold the aux
// across the recycle: see TouchReread); the sweep keeps the window
// covered.
template <typename Policy>
void sweep_link_load_recycle() {
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        run_point_read_recycle_window<Policy>(seed, true);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "first failing seed " << seed;
            return;
        }
    }
}

TEST(MutatorSeekSched, LinkLoadRecycleSweep_AllPolicies) {
    sweep_link_load_recycle<valois_refcount>();
    sweep_link_load_recycle<hazard_policy>();
    sweep_link_load_recycle<epoch_policy>();
}

// The rolling-window seeds were picked on a copy whose roll left the
// carried records out of the next sweep: every seed below failed there
// (a stable key read absent, or a seek landing past it) and passes
// here, where the carried aux's recycle makes the walk fall back.
TEST(MutatorSeekSched, PinnedSeed_RollingWindowLookup_Refcount) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {5ull, 99ull, 231ull, 499ull, 679ull}) {
        fallbacks += run_rolling_window<valois_refcount>(seed, roll_walk::lookup);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule recycled the carried aux";
}

TEST(MutatorSeekSched, PinnedSeed_RollingWindowLookup_Hazard) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {983ull, 1215ull, 1299ull, 1341ull}) {
        fallbacks += run_rolling_window<hazard_policy>(seed, roll_walk::lookup);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule recycled the carried aux";
}

TEST(MutatorSeekSched, PinnedSeed_RollingWindowLookup_EpochCompilesOut) {
    for (std::uint64_t seed : {5ull, 99ull}) {
        run_rolling_window<epoch_policy>(seed, roll_walk::lookup);
    }
}

TEST(MutatorSeekSched, PinnedSeed_RollingWindowSeek_Refcount) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {499ull, 685ull, 931ull, 1077ull, 1103ull}) {
        fallbacks += run_rolling_window<valois_refcount>(seed, roll_walk::seek);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule recycled the carried aux";
}

TEST(MutatorSeekSched, PinnedSeed_RollingWindowSeek_Hazard) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {931ull, 1077ull, 1457ull}) {
        fallbacks += run_rolling_window<hazard_policy>(seed, roll_walk::seek);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule recycled the carried aux";
}

TEST(MutatorSeekSched, PinnedSeed_RollingWindowSeek_EpochCompilesOut) {
    for (std::uint64_t seed : {499ull, 931ull}) {
        run_rolling_window<epoch_policy>(seed, roll_walk::seek);
    }
}

TEST(MutatorSeekSched, PinnedSeed_RollingWindowRangePrefix_Refcount) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {125ull, 279ull, 303ull, 503ull, 669ull}) {
        fallbacks += run_rolling_window<valois_refcount>(seed, roll_walk::range);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule recycled the carried aux";
}

TEST(MutatorSeekSched, PinnedSeed_RollingWindowRangePrefix_Hazard) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {1077ull, 1245ull, 1345ull}) {
        fallbacks += run_rolling_window<hazard_policy>(seed, roll_walk::range);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule recycled the carried aux";
}

TEST(MutatorSeekSched, PinnedSeed_RollingWindowRangePrefix_EpochCompilesOut) {
    for (std::uint64_t seed : {125ull, 1077ull}) {
        run_rolling_window<epoch_policy>(seed, roll_walk::range);
    }
}

// The touch seeds were picked on a copy whose touch skipped the link
// re-read (returned true right after the incarnation load): each failed
// there with a stable key read absent, and passes here. They hold First's
// aux through the holder's reposition hop; no hazard-policy seed in
// 1..8000 reached the window.
TEST(MutatorSeekSched, PinnedSeed_TouchReread_Refcount) {
    std::uint64_t fallbacks = 0;
    for (std::uint64_t seed : {1207ull, 3933ull, 4985ull, 5079ull, 6809ull}) {
        fallbacks += run_touch_reread_window<valois_refcount>(seed);
    }
    EXPECT_GT(fallbacks, 0u) << "no pinned schedule made the re-read reject a walk";
}

TEST(MutatorSeekSched, PinnedSeed_TouchReread_EpochCompilesOut) {
    for (std::uint64_t seed : {1207ull, 3933ull}) {
        run_touch_reread_window<epoch_policy>(seed);
    }
}

}  // namespace
