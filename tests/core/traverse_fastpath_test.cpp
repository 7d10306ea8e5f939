// Scheduler coverage for the traversal fast-path engine: the elided-aux
// hop window (hop_over_aux / batch_commit, step_kind::ref_transfer).
// Pinned seeds replay fixed schedules through the deterministic
// scheduler — exact regression pins, replay any one with
// LFLL_SCHED_REPLAY=<seed> — plus direct (unscheduled) checks of where
// superhop segments end and of how many RMWs a lookup costs.
#define LFLL_SCHED_CHAOS 1

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "lfll/core/audit.hpp"
#include "lfll/core/list.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/reclaim/hazard_policy.hpp"
#include "lfll/sched/session.hpp"

namespace {

using list_t = lfll::valois_list<char>;
using cursor_t = list_t::cursor;

void append(list_t& list, char v) {
    cursor_t c(list);
    while (!c.at_end()) list.next(c);
    list.insert(c, v);
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

/// The node holding `key` in a quiescent map's list (plain walk).
template <typename List, typename Match>
const typename List::node* find_node(List& list, Match&& match) {
    for (auto* p = list.head()->next.load(); p != nullptr && !p->is_tail();
         p = p->next.load()) {
        if (p->is_cell() && match(p->value())) return p;
    }
    return nullptr;
}

/// What a read-only lookup costs in RMWs, single-threaded so the counts
/// are exact. protect() is the only traversal RMW that bumps safe_reads.
/// A find that lands inside its first superhop segment takes no
/// reference at all: no protect, and the start it borrows (First, a
/// bucket dummy) and the cell it lands on keep their counts. A find
/// whose walk crosses k full segments protects each segment end, so at
/// most k protects.
TEST(TraverseFastPath, LookupLandingTakesNoReference) {
    auto& ctr = lfll::instrument::tls();
    {
        using map_t = lfll::sorted_list_map<int, int>;
        map_t map(256);
        for (int k = 0; k < 200; ++k) map.insert(k, 1000 + k);
        for (int k : {0, 1, 7, 13}) {
            const auto* head = map.list().head();
            const auto* cell = find_node(map.list(), [k](const auto& kv) { return kv.first == k; });
            ASSERT_NE(cell, nullptr);
            const auto head_rc = head->refct.load();
            const auto cell_rc = cell->refct.load();
            const auto reads0 = ctr.safe_reads.load();
            EXPECT_EQ(map.find(k), std::optional<int>(1000 + k));
            EXPECT_EQ(ctr.safe_reads.load() - reads0, 0u) << "find(" << k << ") protected";
            EXPECT_EQ(head->refct.load(), head_rc) << "find(" << k << ") touched First";
            EXPECT_EQ(cell->refct.load(), cell_rc) << "find(" << k << ") touched its landing";
        }
        // Cell k is the (k+1)-th after First; landing on it crosses
        // (k + 1) / 16 full segments. The bound is the per-segment
        // protect's; the rolling window protects none of them
        // (RollingWindowProtectsOnlyTheLanding pins the exact counts).
        for (int k : {14, 15, 16, 31, 32, 47, 100, 199, 250}) {
            const auto reads0 = ctr.safe_reads.load();
            const auto found = map.find(k);
            EXPECT_EQ(found.has_value(), k < 200);
            const auto full = static_cast<std::uint64_t>(std::min(k, 200) + 1) / 16;
            EXPECT_LE(ctr.safe_reads.load() - reads0, full) << "find(" << k << ")";
        }
        auto r = lfll::audit_list(map.list());
        EXPECT_TRUE(r.ok) << r.error;
    }
    {
        using map_t = lfll::split_ordered_map<std::uint64_t, std::uint64_t>;
        map_t map(lfll::split_ordered_config{64, 512});
        for (std::uint64_t k = 0; k < 128; ++k) map.insert(k, 7 * k);
        // Touch every bucket first: a bucket's first access splits it
        // (a cursor seek from its parent's dummy), which is not a lookup.
        for (std::uint64_t k = 0; k < 2048; ++k) (void)map.find(k);
        std::vector<const map_t::node*> dummies;
        map.for_each_bucket_slot([&](std::size_t, const map_t::node* d) { dummies.push_back(d); });
        std::vector<std::uint64_t> dummy_rc;
        for (const auto* d : dummies) dummy_rc.push_back(d->refct.load());
        for (std::uint64_t k : {0ull, 5ull, 77ull, 127ull}) {
            const auto* cell = find_node(map.list(), [k](const auto& e) {
                return (e.first.so & 1) != 0 && e.first.key == k;
            });
            ASSERT_NE(cell, nullptr);
            const auto cell_rc = cell->refct.load();
            const auto reads0 = ctr.safe_reads.load();
            EXPECT_EQ(map.find(k), std::optional<std::uint64_t>(7 * k));
            EXPECT_EQ(ctr.safe_reads.load() - reads0, 0u) << "find(" << k << ") protected";
            EXPECT_EQ(cell->refct.load(), cell_rc) << "find(" << k << ") touched its landing";
        }
        for (std::uint64_t k = 128; k < 160; ++k) EXPECT_FALSE(map.find(k).has_value());
        for (std::size_t i = 0; i < dummies.size(); ++i) {
            EXPECT_EQ(dummies[i]->refct.load(), dummy_rc[i]) << "a find touched bucket dummy " << i;
        }
    }
}

/// What a mutator's seek costs, single-threaded so the counts are exact.
/// insert() and erase() walk read-only from a borrowed start (First, or
/// the bucket dummy the directory slot pins) and take references only at
/// the landing, where the Figs. 9-10 CASes go through them: a write that
/// lands inside its first superhop segment leaves its start's count
/// untouched. (An erase of the start's first cell does link the start,
/// from the deleted cell's back_link, for as long as that cell lives;
/// the erase's own cursor releases that cell before it returns.) A
/// seek-only write (insert of a present key, erase of an absent one)
/// shows the seek's own protects: one for the landing, plus one per
/// full segment crossed on the way.
TEST(TraverseFastPath, MutatorSeekBorrowsItsStart) {
    auto& ctr = lfll::instrument::tls();
    {
        using map_t = lfll::sorted_list_map<int, int>;
        map_t map(256);
        for (int k = 0; k < 200; ++k) map.insert(k, 1000 + k);
        const auto* head = map.list().head();
        const auto head_rc = head->refct.load();
        for (int k : {0, 1, 7, 13}) {
            auto reads0 = ctr.safe_reads.load();
            EXPECT_FALSE(map.insert(k, 0));
            EXPECT_LE(ctr.safe_reads.load() - reads0, 1u) << "insert(" << k << ") seek";
            EXPECT_EQ(head->refct.load(), head_rc) << "insert(" << k << ") touched First";
            EXPECT_TRUE(map.erase(k));
            EXPECT_EQ(head->refct.load(), head_rc) << "erase(" << k << ") touched First";
            reads0 = ctr.safe_reads.load();
            EXPECT_FALSE(map.erase(k));
            EXPECT_LE(ctr.safe_reads.load() - reads0, 1u) << "erase(" << k << ") seek";
            EXPECT_TRUE(map.insert(k, 1000 + k));
            EXPECT_EQ(head->refct.load(), head_rc) << "insert(" << k << ") touched First";
        }
        // Cell k is the (k+1)-th after First; as for lookups, landing on
        // it crosses (k + 1) / 16 full segments (a loose bound since the
        // rolling window: see RollingWindowProtectsOnlyTheLanding).
        for (int k : {14, 15, 16, 31, 32, 47, 100, 199, 250}) {
            const auto reads0 = ctr.safe_reads.load();
            if (k < 200) {
                EXPECT_FALSE(map.insert(k, 0));
            } else {
                EXPECT_FALSE(map.erase(k));
            }
            const auto full = static_cast<std::uint64_t>(std::min(k, 200) + 1) / 16;
            EXPECT_LE(ctr.safe_reads.load() - reads0, full + 1) << "seek to " << k;
        }
        EXPECT_EQ(head->refct.load(), head_rc);
        for (int k = 0; k < 200; ++k) EXPECT_EQ(map.find(k), std::optional<int>(1000 + k));
        auto r = lfll::audit_list(map.list());
        EXPECT_TRUE(r.ok) << r.error;
    }
    {
        using map_t = lfll::split_ordered_map<std::uint64_t, std::uint64_t>;
        map_t map(lfll::split_ordered_config{64, 512});
        for (std::uint64_t k = 0; k < 128; ++k) map.insert(k, 7 * k);
        // Split every bucket first: a bucket's first access inserts its
        // dummy, which is a write of its own.
        for (std::uint64_t k = 0; k < 2048; ++k) (void)map.find(k);
        // Every bucket is split, so the dummy right before k's cell is
        // its bucket's: the start its writes borrow.
        const auto start_of = [&map](std::uint64_t k) {
            const map_t::node* start = nullptr;
            for (auto* p = map.list().head()->next.load(); p != nullptr && !p->is_tail();
                 p = p->next.load()) {
                if (!p->is_cell()) continue;
                if ((p->value().first.so & 1) == 0) start = p;
                if (p->value().first.key == k && (p->value().first.so & 1) != 0) break;
            }
            return start;
        };
        for (std::uint64_t k : {0ull, 5ull, 77ull, 127ull}) {
            const auto* start = start_of(k);
            ASSERT_NE(start, nullptr);
            const auto start_rc = start->refct.load();
            auto reads0 = ctr.safe_reads.load();
            EXPECT_FALSE(map.insert(k, 0));
            EXPECT_LE(ctr.safe_reads.load() - reads0, 1u) << "insert(" << k << ") seek";
            EXPECT_EQ(start->refct.load(), start_rc) << "insert(" << k << ") touched its dummy";
            EXPECT_TRUE(map.erase(k));
            EXPECT_EQ(start->refct.load(), start_rc) << "erase(" << k << ") touched its dummy";
            reads0 = ctr.safe_reads.load();
            EXPECT_FALSE(map.erase(k));
            EXPECT_LE(ctr.safe_reads.load() - reads0, 1u) << "erase(" << k << ") seek";
            EXPECT_EQ(start->refct.load(), start_rc) << "erase(" << k << ") touched its dummy";
            EXPECT_TRUE(map.insert(k, 7 * k));
            EXPECT_EQ(start->refct.load(), start_rc) << "insert(" << k << ") touched its dummy";
        }
        for (std::uint64_t k = 0; k < 128; ++k) {
            EXPECT_EQ(map.find(k), std::optional<std::uint64_t>(7 * k));
        }
        std::map<const map_t::node*, std::size_t> external;
        map.for_each_bucket_slot([&](std::size_t, const map_t::node* d) { external[d] += 1; });
        auto r = lfll::audit_list(map.list(), external);
        EXPECT_TRUE(r.ok) << r.error;
    }
}

/// The rolling window, single-threaded so the counts are exact: a
/// steered walk carries its validation window past each full segment
/// instead of protecting the segment's end. A lookup protects nothing,
/// however far it lands; a write's seek protects only its landing; a
/// range query protects only the landing of its walk to `lo`, then scans
/// [lo, hi) with the scan's own per-segment protects. First's count is
/// never touched.
template <typename Policy>
void check_rolling_window_counts() {
    auto& ctr = lfll::instrument::tls();
    using map_t = lfll::sorted_list_map<int, int, std::less<int>, Policy>;
    map_t map(256);
    for (int k = 0; k < 200; ++k) map.insert(k, 1000 + k);
    const auto* head = map.list().head();
    const auto head_rc = head->refct.load();
    for (int k : {14, 15, 16, 31, 32, 47, 100, 199, 250}) {
        auto reads0 = ctr.safe_reads.load();
        EXPECT_EQ(map.find(k).has_value(), k < 200);
        EXPECT_EQ(ctr.safe_reads.load() - reads0, 0u) << "find(" << k << ")";
        reads0 = ctr.safe_reads.load();
        if (k < 200) {
            EXPECT_FALSE(map.insert(k, 0));
        } else {
            EXPECT_FALSE(map.erase(k));
        }
        EXPECT_EQ(ctr.safe_reads.load() - reads0, 1u) << "seek to " << k;
        reads0 = ctr.safe_reads.load();
        const auto got = map.range_query(k, k + 4);
        EXPECT_EQ(got.size(), static_cast<std::size_t>(std::clamp(200 - k, 0, 4)));
        EXPECT_LE(ctr.safe_reads.load() - reads0, 3u) << "range_query(" << k << ")";
        EXPECT_EQ(head->refct.load(), head_rc) << "walks to " << k << " touched First";
    }
    for (int k = 0; k < 200; ++k) EXPECT_EQ(map.find(k), std::optional<int>(1000 + k));
    map.list().pool().drain_retired();
    auto r = lfll::audit_list(map.list());
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(TraverseFastPath, RollingWindowProtectsOnlyTheLanding) {
    check_rolling_window_counts<lfll::valois_refcount>();
    check_rolling_window_counts<lfll::hazard_policy>();
}

}  // namespace
