// Scheduler coverage for the traversal fast-path engine: the elided-aux
// hop window (hop_over_aux / batch_commit, step_kind::ref_transfer), the
// deferred-release buffer (step_kind::deferred_release) and its flush
// boundary (step_kind::flush). Pinned seeds replay fixed schedules
// through the deterministic scheduler — exact regression pins, replay
// any one with LFLL_SCHED_REPLAY=<seed> — plus direct (unscheduled)
// checks of the deferred-release invariants the §5 audits rely on.
#define LFLL_SCHED_CHAOS 1

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "lfll/core/audit.hpp"
#include "lfll/core/list.hpp"
#include "lfll/sched/session.hpp"

namespace {

using list_t = lfll::valois_list<char>;
using cursor_t = list_t::cursor;
using pool_t = list_t::pool_type;

void append(list_t& list, char v) {
    cursor_t c(list);
    while (!c.at_end()) list.next(c);
    list.insert(c, v);
}

std::vector<char> contents(list_t& list) {
    std::vector<char> out;
    for (cursor_t c(list); !c.at_end(); list.next(c)) out.push_back(*c);
    return out;
}

lfll::sched::options pinned(std::uint64_t seed) {
    lfll::sched::options o;
    o.seed = seed;
    o.sched_mode = (seed % 2 == 0) ? lfll::sched::mode::random_walk
                                   : lfll::sched::mode::pct;
    o.change_points = 3;
    o.max_steps = 2'000'000;
    o.record_trace = true;
    return o;
}

/// The hop window: two traversers (one cursor-stepping, one scan()-ing —
/// char is batch_scannable, so the scan exercises batch_hop/batch_commit)
/// racing a deleter/re-inserter on a tiny recycling pool. The schedules
/// preempt inside the snapshot -> protect -> validate sandwich, so the
/// validation-failure fallbacks run for real; a hop that survived a
/// recycle it should have detected would surface as a count-audit error
/// or a value that was never in the list.
TEST(TraverseFastPath, PinnedSeed_ElidedHopValidationWindow) {
    for (std::uint64_t seed : {3ull, 8ull, 17ull, 29ull, 41ull, 56ull}) {
        list_t list(8);  // tiny: deletions recycle under the traversers
        for (char v : {'A', 'B', 'C', 'D'}) append(list, v);
        std::vector<std::function<void()>> bodies;
        bodies.push_back([&list] {  // cursor traverser
            for (int round = 0; round < 3; ++round) {
                for (cursor_t c(list); !c.at_end(); list.next(c)) {
                    const char v = *c;
                    ASSERT_GE(v, 'A');
                    ASSERT_LE(v, 'Z');
                }
            }
        });
        bodies.push_back([&list] {  // batched scanner
            for (int round = 0; round < 3; ++round) {
                list.scan([](const char& v) {
                    EXPECT_GE(v, 'A');
                    EXPECT_LE(v, 'Z');
                    return true;
                });
            }
        });
        bodies.push_back([&list] {  // churner: delete front, reinsert
            for (int i = 0; i < 4; ++i) {
                cursor_t c(list);
                if (!c.at_end() && list.try_delete(c)) {
                    list.update(c);
                    list.insert(c, static_cast<char>('E' + i));
                }
                c.reset();
            }
        });
        lfll::sched::run(pinned(seed), std::move(bodies));
        EXPECT_GT(lfll::sched::scheduler::instance().kind_count(
                      lfll::sched::step_kind::ref_transfer),
                  0u)
            << "schedule never entered the elided-hop window, seed " << seed;
        list.pool().drain_retired();
        auto r = lfll::audit_list(list);
        EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                          << " — replay with LFLL_SCHED_REPLAY=" << seed;
    }
}

/// The flush boundary: a backlog cap of 2 forces flush_deferred inside
/// the traversal loops, and the schedules preempt between buffering a
/// decrement and flushing it (deferred_release -> flush). The §5 audit
/// afterwards proves no decrement was lost or doubled across the
/// preempted flush windows.
TEST(TraverseFastPath, PinnedSeed_DeferredReleaseFlushWindow) {
    for (std::uint64_t seed : {2ull, 7ull, 13ull, 23ull, 37ull, 61ull}) {
        lfll::pool_config cfg;
        cfg.initial_capacity = 16;
        cfg.deferred_release = 1;  // force on, whatever the env says
        cfg.release_backlog = 2;   // flush constantly
        pool_t pool(cfg);
        list_t list(pool);
        for (char v : {'A', 'B', 'C', 'D', 'E'}) append(list, v);
        std::vector<std::function<void()>> bodies;
        for (int t = 0; t < 2; ++t) {
            bodies.push_back([&list] {  // traversers: feed the buffer
                for (int round = 0; round < 3; ++round) {
                    for (cursor_t c(list); !c.at_end(); list.next(c)) {
                    }
                }
            });
        }
        bodies.push_back([&list] {  // deleter: buffered nodes go unreachable
            for (int i = 0; i < 3; ++i) {
                cursor_t c(list);
                if (!c.at_end()) (void)list.try_delete(c);
                c.reset();
            }
        });
        lfll::sched::run(pinned(seed), std::move(bodies));
        auto& s = lfll::sched::scheduler::instance();
        EXPECT_GT(s.kind_count(lfll::sched::step_kind::deferred_release), 0u)
            << "seed " << seed;
        EXPECT_GT(s.kind_count(lfll::sched::step_kind::flush), 0u)
            << "seed " << seed;
        pool.drain_retired();
        auto r = lfll::audit_list(list);
        EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                          << " — replay with LFLL_SCHED_REPLAY=" << seed;
    }
}

/// The quiescence contract the audits depend on: a traversal leaves its
/// decrements parked in the thread's buffer, and the audit must (a) see
/// them — flushing internally — and (b) still balance every count.
TEST(TraverseFastPath, AuditPassesWithNonEmptyDecrementBuffer) {
    lfll::pool_config cfg;
    cfg.initial_capacity = 64;
    cfg.deferred_release = 1;   // force on, whatever the env says
    cfg.release_backlog = 64;   // and pin the cap (env can shrink it to 1)
    pool_t pool(cfg);
    list_t list(pool);
    for (char v : {'a', 'b', 'c', 'd', 'e', 'f'}) append(list, v);

    {
        cursor_t c(list);
        while (!c.at_end()) list.next(c);
    }
    // The walk buffered its hand-over-hand releases (backlog default 64,
    // far above the hops here — nothing flushed yet).
    ASSERT_GT(pool.deferred_release_pending(), 0u);

    auto r = lfll::audit_list(list);
    EXPECT_TRUE(r.ok) << r.error;
    // The audit's internal flush ran the real decrements.
    EXPECT_EQ(pool.deferred_release_pending(), 0u);
}

/// Deferred-release A/B: the same operation sequence against a buffering
/// pool and an immediate-release pool must produce the same list, the
/// same audit verdict, and — after the buffering side flushes — the same
/// free-node accounting.
TEST(TraverseFastPath, DeferredOnAndOffConverge) {
    auto run = [](int deferred) {
        lfll::pool_config cfg;
        cfg.initial_capacity = 64;
        cfg.deferred_release = deferred;
        pool_t pool(cfg);
        list_t list(pool);
        for (char v : {'m', 'n', 'o', 'p', 'q'}) append(list, v);
        for (int i = 0; i < 2; ++i) {  // delete the front twice
            cursor_t c(list);
            EXPECT_TRUE(list.try_delete(c));
        }
        for (cursor_t c(list); !c.at_end(); list.next(c)) {
        }
        pool.flush_deferred_releases();
        pool.drain_retired();
        auto r = lfll::audit_list(list);
        EXPECT_TRUE(r.ok) << r.error << " (deferred_release=" << deferred << ")";
        EXPECT_EQ(pool.retired_count(), 0u);
        return contents(list);
    };
    EXPECT_EQ(run(0), run(1));
    EXPECT_EQ(run(1), (std::vector<char>{'o', 'p', 'q'}));
}

/// Batch sweep rejection, staged deterministically: park a scan mid-hop
/// is not possible from outside, but a churn storm on a tiny pool under
/// high-preemption schedules forces batch_commit to fail its incarnation
/// sweep (recycled snapshot nodes) and fall back — while every value the
/// scan yields must still be one that was inserted at some point.
TEST(TraverseFastPath, PinnedSeed_BatchSweepSurvivesRecycleStorm) {
    for (std::uint64_t seed : {5ull, 11ull, 19ull, 31ull, 47ull}) {
        list_t list(8);
        for (char v : {'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J'}) {
            append(list, v);
        }
        std::vector<std::function<void()>> bodies;
        bodies.push_back([&list] {  // long-segment scans: batches of 8
            for (int round = 0; round < 4; ++round) {
                int seen = 0;
                list.scan([&seen](const char& v) {
                    EXPECT_GE(v, 'A');
                    EXPECT_LE(v, 'J');
                    return ++seen < 64;  // defensive bound
                });
            }
        });
        for (int t = 0; t < 2; ++t) {
            bodies.push_back([&list, t] {  // churners across the segment
                for (int i = 0; i < 4; ++i) {
                    cursor_t c(list);
                    for (int h = 0; h < 2 * t + i && !c.at_end(); ++h) list.next(c);
                    if (!c.at_end() && list.try_delete(c)) {
                        list.update(c);
                        list.insert(c, static_cast<char>('A' + (t + i) % 10));
                    }
                    c.reset();
                }
            });
        }
        lfll::sched::run(pinned(seed), std::move(bodies));
        list.pool().drain_retired();
        auto r = lfll::audit_list(list);
        EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                          << " — replay with LFLL_SCHED_REPLAY=" << seed;
    }
}

/// Where a superhop segment ends, read from traverse_hops (every cell a
/// hop read, each superhop copy and its protected end included). Single
/// thread, so the counts are exact. A seek's segment ends at its landing
/// cell: landing on cell k from cell 0 reads exactly k cells past the
/// start, none past k. A scan ramps its segment cap 2, 4, 8, 16: a
/// visitor that stops at its k-th cell costs at most 2k + 2 cell reads.
TEST(TraverseFastPath, SuperhopSegmentEndsWhereTheWalkDoes) {
    using int_list = lfll::valois_list<int>;
    constexpr int kCells = 1000;
    int_list list(kCells + 8);
    {
        int_list::cursor c(list);
        for (int v = kCells - 1; v >= 0; --v) list.insert(c, v);  // front inserts
    }
    auto& ctr = lfll::instrument::tls();
    for (int k : {0, 1, 2, 3, 7, 14, 15, 16, 17, 31, 100, 500, 999}) {
        int_list::cursor c(list);
        ASSERT_EQ(*c, 0);
        const auto hops0 = ctr.traverse_hops.load();
        list.seek_while(c, [k](const int& v) { return v < k; });
        ASSERT_FALSE(c.at_end());
        EXPECT_EQ(*c, k);
        EXPECT_TRUE(c.valid()) << "k=" << k;
        EXPECT_EQ(ctr.traverse_hops.load() - hops0, static_cast<std::uint64_t>(k))
            << "seek landing on cell " << k << " read past it";
    }
    for (int k : {1, 2, 3, 4, 7, 8, 15, 16, 30, 31, 100, 999, 1000}) {
        const auto hops0 = ctr.traverse_hops.load();
        const auto cells0 = ctr.cells_traversed.load();
        int seen = 0;
        list.scan([&seen, k](const int& v) {
            EXPECT_EQ(v, seen);
            return ++seen < k;
        });
        EXPECT_EQ(seen, k);
        const auto hops = ctr.traverse_hops.load() - hops0;
        EXPECT_EQ(ctr.cells_traversed.load() - cells0, static_cast<std::uint64_t>(k));
        EXPECT_LE(hops, 2u * static_cast<std::uint64_t>(k) + 2u)
            << "scan stopping at cell " << k << " read " << hops << " cells";
    }
    // A full scan reads each cell once, plus the hop onto Last.
    const auto hops0 = ctr.traverse_hops.load();
    list.scan([](const int&) { return true; });
    EXPECT_EQ(ctr.traverse_hops.load() - hops0, static_cast<std::uint64_t>(kCells) + 1);
    auto r = lfll::audit_list(list);
    EXPECT_TRUE(r.ok) << r.error;
}

}  // namespace
