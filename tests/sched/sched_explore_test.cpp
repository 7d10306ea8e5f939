// Bounded schedule exploration: a seed sweep over the deterministic
// scheduler, checking linearizability (dicts) and no-loss/FIFO (queue)
// under every reclamation policy. Each seed is one fully serialized
// interleaving; a failure names the seed and replays exactly with
// LFLL_SCHED_REPLAY=<seed>.
//
// Knobs (see README):
//   LFLL_SCHED_SEEDS   override the per-case seed count (nightly sweeps)
//   LFLL_SCHED_REPLAY  run exactly one seed, everywhere it applies
#define LFLL_SCHED_CHAOS 1

#include <gtest/gtest.h>

#include "test_scale.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "linearizability/lin_checker.hpp"

#include "lfll/adapters/treiber_stack.hpp"
#include "lfll/adapters/valois_queue.hpp"
#include "lfll/core/audit.hpp"
#include "lfll/dict/bst.hpp"
#include "lfll/dict/skip_list.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/primitives/env.hpp"
#include "lfll/reclaim/epoch_policy.hpp"
#include "lfll/reclaim/hazard_policy.hpp"
#include "lfll/sched/session.hpp"
#include "lfll/telemetry/profiler.hpp"

namespace {

using namespace lfll;
using lin::op_kind;

// ------------------------------------------------------------- seed plumbing

std::uint64_t mix(std::uint64_t& x) {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Seeds to sweep: the replayed one alone, or 1..N (env-overridable).
std::vector<std::uint64_t> sweep_seeds(int dflt) {
    if (auto r = sched::replay_seed_from_env()) return {*r};
    int n = dflt;
    if (auto e = env::integer("LFLL_SCHED_SEEDS", 1, INT_MAX)) n = static_cast<int>(*e);
    std::vector<std::uint64_t> seeds;
    for (int i = 1; i <= n; ++i) seeds.push_back(static_cast<std::uint64_t>(i));
    return seeds;
}

/// The whole schedule is a function of the seed — including the mode, so
/// a replayed seed re-derives the same one.
sched::options session_options(std::uint64_t seed) {
    sched::options o;
    o.seed = seed;
    o.sched_mode = (seed % 2 == 0) ? sched::mode::random_walk : sched::mode::pct;
    o.change_points = 3;
    o.max_steps = 2'000'000;  // runaway guard; die() prints the replay seed
    o.watchdog = std::chrono::milliseconds(60000);
    return o;
}

// ------------------------------------------------------- dict sweep (lin)

/// 3 threads x 6 ops on 3 hot keys — small enough for an exhaustive
/// linearizability check, hot enough that every op contends.
template <typename Shim>
void check_dict_seed(std::uint64_t seed) {
    constexpr int kThreads = 3;
    constexpr int kOps = 6;
    constexpr int kKeys = 3;
    auto dict = std::make_unique<Shim>();
    lin::recorder rec;
    std::vector<std::function<void()>> bodies;
    for (int t = 0; t < kThreads; ++t) {
        bodies.push_back([&, t] {
            std::uint64_t rng = seed * 0x2545f4914f6cdd1dULL + static_cast<std::uint64_t>(t);
            for (int i = 0; i < kOps; ++i) {
                const int k = static_cast<int>(mix(rng) % kKeys);
                switch (mix(rng) % 3) {
                    case 0:
                        rec.record(t, op_kind::insert, k, [&] { return dict->insert(k); });
                        break;
                    case 1:
                        rec.record(t, op_kind::erase, k, [&] { return dict->erase(k); });
                        break;
                    default:
                        rec.record(t, op_kind::contains, k,
                                   [&] { return dict->contains(k); });
                        break;
                }
            }
        });
    }
    sched::run(session_options(seed), std::move(bodies));
    ASSERT_TRUE(lin::is_linearizable(rec.history))
        << lin::replay_hint(seed) << "\nhistory:\n"
        << lin::describe(rec.history);
    const audit_report rep = dict->audit();
    ASSERT_TRUE(rep.ok) << rep.error << "\n" << lin::replay_hint(seed);
}

template <typename Shim>
void sweep_dict(int seeds) {
    for (std::uint64_t seed : sweep_seeds(seeds)) {
        ASSERT_NO_FATAL_FAILURE(check_dict_seed<Shim>(seed)) << "seed " << seed;
    }
}

template <typename Policy>
struct flat_shim {
    sorted_list_map<int, int, std::less<int>, Policy> m{64};
    bool insert(int k) { return m.insert(k, k); }
    bool erase(int k) { return m.erase(k); }
    bool contains(int k) { return m.contains(k); }
    audit_report audit() {
        m.list().pool().drain_retired();
        return audit_list(m.list());
    }
};
template <typename Policy>
struct skip_shim {
    skip_list_map<int, int, std::less<int>, Policy> m{128, 4};
    bool insert(int k) { return m.insert(k, k); }
    bool erase(int k) { return m.erase(k); }
    bool contains(int k) { return m.contains(k); }
    audit_report audit() {
        m.pool().drain_retired();
        std::vector<valois_list<typename decltype(m)::entry, Policy>*> lists;
        for (int i = 0; i < m.max_level(); ++i) lists.push_back(&m.level(i));
        return audit_shared(m.pool(), lists);
    }
};
template <typename Policy>
struct bst_shim {
    bst_set<int, std::less<int>, Policy> m{128};
    bool insert(int k) { return m.insert(k); }
    bool erase(int k) { return m.erase(k); }
    bool contains(int k) { return m.contains(k); }
    audit_report audit() { return audit_report{}; }  // no bst structural audit (yet)
};
/// Split-ordered map tuned so splits fire *inside* the schedule: two
/// initial buckets, max_load 0.5, and a per-op resize check. Every grow
/// CAS, lazy dummy insert, and bucket-slot publish is a resize chaos
/// point, so the sweep serializes straight through the split windows.
template <typename Policy>
struct so_shim {
    static split_ordered_config tiny() {
        split_ordered_config c;
        c.initial_buckets = 2;
        c.capacity_hint = 96;
        c.max_load = 0.5;
        c.resize_check_period = 1;
        return c;
    }
    split_ordered_map<int, int, std::hash<int>, std::less<int>, Policy> m{tiny()};
    bool insert(int k) { return m.insert(k, k); }
    bool erase(int k) { return m.erase(k); }
    bool contains(int k) { return m.contains(k); }
    audit_report audit() {
        m.pool().drain_retired();
        std::map<const typename decltype(m)::node*, std::size_t> external;
        m.for_each_bucket_slot(
            [&](std::size_t, typename decltype(m)::node* d) { external[d] += 1; });
        return audit_list(m.list(), external);
    }
};

// Acceptance sweep: >= 64 seeds x 3 policies over sorted_list_map
// (time-boxed under TSan, where each serialized step is ~20x dearer).
const int kDictSeeds = lfll_test::scaled_min(64, 8);

TEST(SchedExplore, SortedListMapValoisRefcount) {
    sweep_dict<flat_shim<valois_refcount>>(kDictSeeds);
}
TEST(SchedExplore, SortedListMapHazard) {
    sweep_dict<flat_shim<hazard_policy>>(kDictSeeds);
}
TEST(SchedExplore, SortedListMapEpoch) {
    sweep_dict<flat_shim<epoch_policy>>(kDictSeeds);
}

// Satellite audit: skip-list tower unlink and bst retire ordering under
// hazard_policy (and epoch, whose raw traversal pointers are the other
// suspect), driven through the same schedule space.
const int kAuditSeeds = lfll_test::scaled_min(32, 4);

TEST(SchedExplore, SkipListHazard) { sweep_dict<skip_shim<hazard_policy>>(kAuditSeeds); }
TEST(SchedExplore, SkipListEpoch) { sweep_dict<skip_shim<epoch_policy>>(kAuditSeeds); }
TEST(SchedExplore, BstHazard) { sweep_dict<bst_shim<hazard_policy>>(kAuditSeeds); }
TEST(SchedExplore, BstEpoch) { sweep_dict<bst_shim<epoch_policy>>(kAuditSeeds); }

// Resize acceptance sweep: the split-ordered map through the same lin +
// audit harness, under every policy. The shim's tiny directory means the
// 3x6 hot-key workload crosses grow CASes and lazy bucket splits
// mid-schedule, not just in a warm-up phase.
TEST(SchedExplore, SplitOrderedValoisRefcount) {
    sweep_dict<so_shim<valois_refcount>>(kDictSeeds);
}
TEST(SchedExplore, SplitOrderedHazard) { sweep_dict<so_shim<hazard_policy>>(kDictSeeds); }
TEST(SchedExplore, SplitOrderedEpoch) { sweep_dict<so_shim<epoch_policy>>(kDictSeeds); }

// Borrowed-start writes: every insert/erase seeks from a node its cursor
// borrows — First for the sorted map, bucket 0's dummy for a one-bucket
// split map that never grows — walks read-only, and takes references
// only at its landing. The hot keys are the first cells after that
// start, on a tiny pool, so the churn unlinks and recycles them under
// other threads' walks and landing upgrades; a stable tail (keys 10-13)
// keeps each landing inside a multi-cell segment.
template <typename Policy>
struct front_shim {
    sorted_list_map<int, int, std::less<int>, Policy> m{16};
    front_shim() {
        for (int k = 10; k < 14; ++k) m.insert(k, k);
    }
    bool insert(int k) { return m.insert(k, k); }
    bool erase(int k) { return m.erase(k); }
    bool contains(int k) { return m.contains(k); }
    audit_report audit() {
        m.list().pool().drain_retired();
        return audit_list(m.list());
    }
};
template <typename Policy>
struct front_so_shim {
    static split_ordered_config one_bucket() {
        split_ordered_config c;
        c.initial_buckets = 1;
        c.capacity_hint = 16;
        c.max_buckets = 1;
        return c;
    }
    split_ordered_map<int, int, std::hash<int>, std::less<int>, Policy> m{one_bucket()};
    front_so_shim() {
        for (int k = 10; k < 14; ++k) m.insert(k, k);
    }
    bool insert(int k) { return m.insert(k, k); }
    bool erase(int k) { return m.erase(k); }
    bool contains(int k) { return m.contains(k); }
    audit_report audit() {
        m.pool().drain_retired();
        std::map<const typename decltype(m)::node*, std::size_t> external;
        m.for_each_bucket_slot(
            [&](std::size_t, typename decltype(m)::node* d) { external[d] += 1; });
        return audit_list(m.list(), external);
    }
};

TEST(SchedExplore, BorrowedStartWritesValoisRefcount) {
    sweep_dict<front_shim<valois_refcount>>(kDictSeeds);
    sweep_dict<front_so_shim<valois_refcount>>(kDictSeeds);
}
TEST(SchedExplore, BorrowedStartWritesHazard) {
    sweep_dict<front_shim<hazard_policy>>(kDictSeeds);
    sweep_dict<front_so_shim<hazard_policy>>(kDictSeeds);
}
TEST(SchedExplore, BorrowedStartWritesEpoch) {
    sweep_dict<front_shim<epoch_policy>>(kDictSeeds);
    sweep_dict<front_so_shim<epoch_policy>>(kDictSeeds);
}

// ------------------------------------------------------ queue sweep (FIFO)

/// 2 producers x 8 items, 1 consumer with a bounded attempt budget (a
/// greedy consumer at top PCT priority would otherwise spin on empty
/// forever). After the session: drain quiescently, then check no loss,
/// no duplication, and per-producer FIFO order.
template <typename Policy>
void check_queue_seed(std::uint64_t seed) {
    constexpr int kProducers = 2;
    constexpr int kItems = 8;
    valois_queue<int, Policy> q{64};
    std::vector<int> consumed;
    std::vector<std::function<void()>> bodies;
    for (int t = 0; t < kProducers; ++t) {
        bodies.push_back([&, t] {
            for (int i = 0; i < kItems; ++i) q.enqueue(t * 100 + i);
        });
    }
    bodies.push_back([&] {
        for (int attempts = 0; attempts < 6 * kItems; ++attempts) {
            if (auto v = q.dequeue()) consumed.push_back(*v);
        }
    });
    sched::run(session_options(seed), std::move(bodies));
    while (auto v = q.dequeue()) consumed.push_back(*v);

    ASSERT_EQ(consumed.size(), static_cast<std::size_t>(kProducers * kItems))
        << lin::replay_hint(seed);
    std::map<int, int> last_per_producer;
    std::vector<int> sorted = consumed;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 1; i < sorted.size(); ++i) {
        ASSERT_NE(sorted[i - 1], sorted[i])
            << "duplicate element " << sorted[i] << "; " << lin::replay_hint(seed);
    }
    for (int v : consumed) {
        const int producer = v / 100;
        auto it = last_per_producer.find(producer);
        if (it != last_per_producer.end()) {
            ASSERT_LT(it->second, v)
                << "per-producer FIFO violated; " << lin::replay_hint(seed);
        }
        last_per_producer[producer] = v;
    }
}

template <typename Policy>
void sweep_queue(int seeds) {
    for (std::uint64_t seed : sweep_seeds(seeds)) {
        ASSERT_NO_FATAL_FAILURE(check_queue_seed<Policy>(seed)) << "seed " << seed;
    }
}

const int kQueueSeeds = lfll_test::scaled_min(64, 8);

TEST(SchedExplore, QueueValoisRefcount) { sweep_queue<valois_refcount>(kQueueSeeds); }
TEST(SchedExplore, QueueHazard) { sweep_queue<hazard_policy>(kQueueSeeds); }
TEST(SchedExplore, QueueEpoch) { sweep_queue<epoch_policy>(kQueueSeeds); }

// ------------------------------------------- stack sweep (inventory)

/// Treiber stack under the scheduler: two poppers race one pusher over a
/// short stack, then the test pops everything left and demands the exact
/// multiset of pushed values back — no loss, no duplication — plus a
/// quiescent pool audit (every slot free, §5 count exactly the free
/// list's single reference, claim bit clear). This is the sweep that
/// first flushed out the pop-side reference-transfer race: a popper
/// preempted between its head CAS and the fix-up ref let a second popper
/// reclaim the new head while it was still live (see
/// race_scenario_test.cpp for the pinned seed).
template <typename Policy>
void check_stack_seed(std::uint64_t seed) {
    using stack_t = treiber_stack<int, Policy>;
    stack_t st{16};
    std::multiset<int> pushed;
    for (int v = 0; v < 4; ++v) {
        st.push(v);
        pushed.insert(v);
    }
    for (int t = 0; t < 3; ++t) pushed.insert({200 + t, 210 + t, 220 + t});

    std::vector<std::multiset<int>> popped(2);
    std::vector<std::function<void()>> bodies;
    for (int t = 0; t < 2; ++t) {
        bodies.push_back([&, t] {
            for (int i = 0; i < 3; ++i) {
                if (auto v = st.pop()) popped[static_cast<std::size_t>(t)].insert(*v);
            }
        });
    }
    bodies.push_back([&] {
        for (int t = 0; t < 3; ++t) {
            st.push(200 + t);
            st.push(210 + t);
            st.push(220 + t);
        }
    });
    sched::run(session_options(seed), std::move(bodies));

    std::multiset<int> got = popped[0];
    got.insert(popped[1].begin(), popped[1].end());
    // A cycle of recycled nodes makes pop() succeed forever; bound it.
    for (std::size_t i = 0; i < 4 * st.pool().capacity(); ++i) {
        auto v = st.pop();
        if (!v) break;
        got.insert(*v);
    }
    ASSERT_TRUE(st.empty()) << "stack not drainable (node cycle); " << lin::replay_hint(seed);
    ASSERT_EQ(got, pushed) << "elements lost or duplicated; " << lin::replay_hint(seed);

    st.pool().drain_retired();
    using node_t = typename stack_t::node;
    std::set<const node_t*> free_set;
    st.pool().for_each_free([&](const node_t* p) { free_set.insert(p); });
    ASSERT_EQ(free_set.size(), st.pool().capacity()) << lin::replay_hint(seed);
    st.pool().for_each_node([&](const node_t* p) {
        const refct_t rc = p->refct.load(std::memory_order_acquire);
        EXPECT_TRUE(free_set.count(p)) << "pool slot not free at quiescence; "
                                       << lin::replay_hint(seed);
        EXPECT_FALSE(refct_claimed(rc))
            << "free node claim bit set; " << lin::replay_hint(seed);
        EXPECT_EQ(refct_count(rc), 1u)
            << "free node refcount " << refct_count(rc) << " != 1; "
            << lin::replay_hint(seed);
    });
}

template <typename Policy>
void sweep_stack(int seeds) {
    for (std::uint64_t seed : sweep_seeds(seeds)) {
        ASSERT_NO_FATAL_FAILURE(check_stack_seed<Policy>(seed)) << "seed " << seed;
    }
}

const int kStackSeeds = lfll_test::scaled_min(64, 8);

TEST(SchedExplore, StackValoisRefcount) { sweep_stack<valois_refcount>(kStackSeeds); }
TEST(SchedExplore, StackHazard) { sweep_stack<hazard_policy>(kStackSeeds); }
TEST(SchedExplore, StackEpoch) { sweep_stack<epoch_policy>(kStackSeeds); }

// --------------------------------------------- raw list sweep (audit)

/// Raw valois_list cursors under the scheduler: 3 threads churning
/// inserts and deletes of *adjacent* cells (the Fig. 10 back_link /
/// retreat / compaction machinery), on a deliberately tiny pool so the
/// free list and magazines recycle nodes mid-schedule. After the
/// session, the full quiescent audit: Fig. 4 shape, no stranded aux
/// chains (§3's theorem), and exact §5 reference counts on every pool
/// slot — a single leaked or double-counted reference fails the seed.
template <typename Policy>
void check_list_seed(std::uint64_t seed) {
    using list_t = valois_list<int, Policy>;
    list_t list(8);  // tiny: forces free-list/magazine recycling
    {
        typename list_t::cursor c(list);
        for (int v = 5; v >= 0; --v) list.insert(c, v);
    }
    constexpr int kThreads = 3;
    constexpr int kOps = 5;
    std::vector<std::function<void()>> bodies;
    for (int t = 0; t < kThreads; ++t) {
        bodies.push_back([&, t] {
            std::uint64_t rng =
                seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(t) * 0x1234567ULL;
            for (int op = 0; op < kOps; ++op) {
                typename list_t::cursor c(list);
                // Stay near the front: deleters collide on adjacent cells.
                const int hops = static_cast<int>(mix(rng) % 3);
                for (int h = 0; h < hops && !c.at_end(); ++h) list.next(c);
                if (mix(rng) % 3 != 0) {
                    if (!c.at_end() && list.try_delete(c)) list.update(c);
                } else {
                    list.insert(c, 100 * (t + 1) + op);
                }
                c.reset();  // audits require no surviving cursor references
            }
        });
    }
    sched::run(session_options(seed), std::move(bodies));
    list.pool().drain_retired();
    const audit_report rep = audit_list(list);
    ASSERT_TRUE(rep.ok) << rep.error << "\n" << lin::replay_hint(seed);
}

template <typename Policy>
void sweep_list(int seeds) {
    for (std::uint64_t seed : sweep_seeds(seeds)) {
        ASSERT_NO_FATAL_FAILURE(check_list_seed<Policy>(seed)) << "seed " << seed;
    }
}

const int kListSeeds = lfll_test::scaled_min(64, 8);

TEST(SchedExplore, ListAuditValoisRefcount) { sweep_list<valois_refcount>(kListSeeds); }
TEST(SchedExplore, ListAuditHazard) { sweep_list<hazard_policy>(kListSeeds); }
TEST(SchedExplore, ListAuditEpoch) { sweep_list<epoch_policy>(kListSeeds); }

// ------------------------------------- pinned resize / shard-drain windows

/// Exact regression pins for the bucket-split window: fixed seeds whose
/// schedules preempt between a grow CAS, a lazy dummy insert, and the
/// bucket-slot publish (all typed resize points). Disjoint per-thread
/// key ranges force the directory past several doublings mid-schedule;
/// the kind_count assertion proves a split window was really entered,
/// and the §5 audit (each published slot accounted as one external
/// reference) would catch a leaked or double-adopted dummy.
template <typename Policy>
void check_split_window(std::uint64_t seed) {
    so_shim<Policy> shim;
    std::vector<std::function<void()>> bodies;
    for (int t = 0; t < 3; ++t) {
        bodies.push_back([&shim, t] {
            for (int i = 0; i < 6; ++i) {
                const int k = 8 * t + i;
                shim.m.insert(k, k);
                if (i % 3 == 2) shim.m.erase(k - 1);
                (void)shim.m.contains(i);  // cold-bucket reads split lazily too
            }
        });
    }
    sched::run(session_options(seed), std::move(bodies));
    EXPECT_GT(sched::scheduler::instance().kind_count(sched::step_kind::resize), 0u)
        << "schedule never entered a split window; " << lin::replay_hint(seed);
    const audit_report rep = shim.audit();
    ASSERT_TRUE(rep.ok) << rep.error << "\n" << lin::replay_hint(seed);
}

TEST(SchedExplore, PinnedSeed_BucketSplitWindowValois) {
    for (std::uint64_t seed : {3ull, 11ull, 28ull, 64ull}) {
        ASSERT_NO_FATAL_FAILURE(check_split_window<valois_refcount>(seed))
            << "seed " << seed;
    }
}
TEST(SchedExplore, PinnedSeed_BucketSplitWindowHazard) {
    for (std::uint64_t seed : {7ull, 19ull, 42ull, 97ull}) {
        ASSERT_NO_FATAL_FAILURE(check_split_window<hazard_policy>(seed))
            << "seed " << seed;
    }
}
TEST(SchedExplore, PinnedSeed_BucketSplitWindowEpoch) {
    for (std::uint64_t seed : {5ull, 23ull, 51ull, 88ull}) {
        ASSERT_NO_FATAL_FAILURE(check_split_window<epoch_policy>(seed))
            << "seed " << seed;
    }
}

/// Shard-pool-drain window: two shard maps with *distinct* pools, so
/// their magazine registries live on different stripes (keyed by pool
/// id) instead of one class-wide mutex. One shard drains its retired
/// backlog mid-schedule while the other keeps allocating; a cross-shard
/// lock dependency would deadlock the serialized session, and a
/// reference miscount on either arena fails that shard's §5 audit.
template <typename Policy>
void check_shard_drain_window(std::uint64_t seed) {
    so_shim<Policy> shards[2];
    std::vector<std::function<void()>> bodies;
    for (int t = 0; t < 3; ++t) {
        bodies.push_back([&shards, t] {
            auto& m = shards[t % 2].m;
            for (int i = 0; i < 5; ++i) {
                const int k = 16 * t + i;
                m.insert(k, k);
                if (i % 2 == 1) m.erase(k);
            }
            m.pool().drain_retired();  // mid-schedule, racing the other shard
        });
    }
    sched::run(session_options(seed), std::move(bodies));
    auto& s = sched::scheduler::instance();
    EXPECT_GT(s.kind_count(sched::step_kind::magazine), 0u)
        << "no magazine/depot exchange reached; " << lin::replay_hint(seed);
    if constexpr (Policy::deferred) {
        EXPECT_GT(s.kind_count(sched::step_kind::retire), 0u) << lin::replay_hint(seed);
    }
    for (auto& sh : shards) {
        sh.m.pool().flush_magazines();  // quiescent: registry stripe uncontended
        const audit_report rep = sh.audit();
        ASSERT_TRUE(rep.ok) << rep.error << "\n" << lin::replay_hint(seed);
    }
}

TEST(SchedExplore, PinnedSeed_ShardPoolDrainValois) {
    for (std::uint64_t seed : {4ull, 13ull, 29ull, 53ull}) {
        ASSERT_NO_FATAL_FAILURE(check_shard_drain_window<valois_refcount>(seed))
            << "seed " << seed;
    }
}
TEST(SchedExplore, PinnedSeed_ShardPoolDrainHazard) {
    for (std::uint64_t seed : {6ull, 17ull, 38ull, 71ull}) {
        ASSERT_NO_FATAL_FAILURE(check_shard_drain_window<hazard_policy>(seed))
            << "seed " << seed;
    }
}
TEST(SchedExplore, PinnedSeed_ShardPoolDrainEpoch) {
    for (std::uint64_t seed : {9ull, 21ull, 44ull, 83ull}) {
        ASSERT_NO_FATAL_FAILURE(check_shard_drain_window<epoch_policy>(seed))
            << "seed " << seed;
    }
}

// ------------------- magazine x reclamation interleavings

/// Magazine exchanges racing reclamation: a deliberately cramped pool
/// (2-round magazines) so alloc/free crosses the magazine<->depot
/// boundary every few ops while deletions and cursor teardowns cascade
/// real unref()s (or bank retires, under the deferred policies)
/// mid-schedule. The quiescent §5 audit would catch a decrement lost
/// (or replayed) across an exchange, or a node teleported through a
/// stale magazine.
template <typename Policy>
struct magdr_shim {
    using list_t = valois_list<int, Policy>;
    using pool_t = typename list_t::pool_type;
    static pool_config cramped() {
        pool_config c;
        c.initial_capacity = 24;
        c.mag_rounds = 2;  // exchange with the depot every 2 nodes
        return c;
    }
    pool_t pool{cramped()};
    list_t list{pool};  // pool declared first: outlives the list
};

/// Steps a sweep took on the Figs. 17-18 free list. With magazines
/// always on, the list is reached only behind a magazine miss.
struct free_list_reach {
    std::uint64_t reads = 0;   ///< step_kind::free_list
    std::uint64_t allocs = 0;  ///< step_kind::alloc
};

template <typename Policy>
void check_mag_deferred_window(std::uint64_t seed, free_list_reach& reach) {
    magdr_shim<Policy> shim;
    auto& list = shim.list;
    {
        typename magdr_shim<Policy>::list_t::cursor c(list);
        for (int v = 5; v >= 0; --v) list.insert(c, v);
    }
    constexpr int kThreads = 3;
    constexpr int kOps = 5;
    std::vector<std::function<void()>> bodies;
    for (int t = 0; t < kThreads; ++t) {
        bodies.push_back([&, t] {
            std::uint64_t rng =
                seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(t) * 0x1234567ULL;
            for (int op = 0; op < kOps; ++op) {
                typename magdr_shim<Policy>::list_t::cursor c(list);
                const int hops = static_cast<int>(mix(rng) % 3);
                for (int h = 0; h < hops && !c.at_end(); ++h) list.next(c);
                if (mix(rng) % 3 != 0) {
                    if (!c.at_end() && list.try_delete(c)) list.update(c);
                } else {
                    list.insert(c, 100 * (t + 1) + op);
                }
                c.reset();
            }
        });
    }
    sched::run(session_options(seed), std::move(bodies));
    auto& s = sched::scheduler::instance();
    EXPECT_GT(s.kind_count(sched::step_kind::magazine), 0u)
        << "no magazine/depot exchange reached; " << lin::replay_hint(seed);
    reach.reads += s.kind_count(sched::step_kind::free_list);
    reach.allocs += s.kind_count(sched::step_kind::alloc);
    shim.pool.drain_retired();
    shim.pool.flush_magazines();
    const audit_report rep = audit_list(list);
    ASSERT_TRUE(rep.ok) << rep.error << "\n" << lin::replay_hint(seed);
}

/// The cramped pool must still miss its magazines often enough that
/// some seed of the sweep pops the global free list.
template <typename Policy>
void sweep_mag_deferred_window(std::initializer_list<std::uint64_t> seeds) {
    free_list_reach reach;
    for (std::uint64_t seed : seeds) {
        ASSERT_NO_FATAL_FAILURE(check_mag_deferred_window<Policy>(seed, reach))
            << "seed " << seed;
    }
    EXPECT_GT(reach.reads, 0u) << "no seed reached the Fig. 17 free-list read";
    EXPECT_GT(reach.allocs, 0u) << "no seed reached the Fig. 17 pop";
}

TEST(SchedExplore, PinnedSeed_MagDeferredWindowValois) {
    sweep_mag_deferred_window<valois_refcount>({2, 15, 33, 67});
}
TEST(SchedExplore, PinnedSeed_MagDeferredWindowHazard) {
    sweep_mag_deferred_window<hazard_policy>({8, 20, 41, 76});
}
TEST(SchedExplore, PinnedSeed_MagDeferredWindowEpoch) {
    sweep_mag_deferred_window<epoch_policy>({10, 25, 47, 91});
}

// ---------------------------------------- profiler capture windows

/// Restores the profiler's runtime overrides no matter how the check
/// exits; -1 falls back to the env/compiled default.
struct prof_override_guard {
    prof_override_guard(int enabled, std::int64_t rate, std::int64_t slow_ns) {
        telemetry::prof::set_enabled_override(enabled);
        telemetry::prof::set_rate_override(rate);
        telemetry::prof::set_slow_ns_override(slow_ns);
    }
    ~prof_override_guard() {
        telemetry::prof::set_enabled_override(-1);
        telemetry::prof::set_rate_override(-1);
        telemetry::prof::set_slow_ns_override(-1);
    }
};

/// Profiler windows under the scheduler: rate 1 arms every map op and a
/// zero slow threshold routes every sample through the slow-op ring, so
/// schedules preempt inside the arming decision (`sample`) and inside
/// the ring's claim->publish window (`slow_capture`) — the seqlock
/// protocol racing real dictionary traffic rather than the unit test's
/// synthetic writers. The lin check still runs: a profiler hook that
/// corrupted an op's result (or tore the shared sketch in a way that
/// trips TSan/asserts) fails the seed.
template <typename Policy>
void check_profiler_window(std::uint64_t seed) {
    prof_override_guard prof(/*enabled=*/1, /*rate=*/1, /*slow_ns=*/0);
    flat_shim<Policy> shim;
    lin::recorder rec;
    std::vector<std::function<void()>> bodies;
    for (int t = 0; t < 3; ++t) {
        bodies.push_back([&, t] {
            std::uint64_t rng = seed * 0x2545f4914f6cdd1dULL + static_cast<std::uint64_t>(t);
            for (int i = 0; i < 6; ++i) {
                const int k = static_cast<int>(mix(rng) % 3);
                switch (mix(rng) % 3) {
                    case 0:
                        rec.record(t, op_kind::insert, k, [&] { return shim.insert(k); });
                        break;
                    case 1:
                        rec.record(t, op_kind::erase, k, [&] { return shim.erase(k); });
                        break;
                    default:
                        rec.record(t, op_kind::contains, k,
                                   [&] { return shim.contains(k); });
                        break;
                }
            }
        });
    }
    sched::run(session_options(seed), std::move(bodies));
    auto& s = sched::scheduler::instance();
    EXPECT_GT(s.kind_count(sched::step_kind::sample), 0u)
        << "no op ever armed a sample; " << lin::replay_hint(seed);
    EXPECT_GT(s.kind_count(sched::step_kind::slow_capture), 0u)
        << "no slow-op capture window entered; " << lin::replay_hint(seed);
    ASSERT_TRUE(lin::is_linearizable(rec.history))
        << lin::replay_hint(seed) << "\nhistory:\n"
        << lin::describe(rec.history);
    const audit_report rep = shim.audit();
    ASSERT_TRUE(rep.ok) << rep.error << "\n" << lin::replay_hint(seed);
}

TEST(SchedExplore, PinnedSeed_ProfilerCaptureValois) {
    for (std::uint64_t seed : {1ull, 12ull, 30ull, 58ull}) {
        ASSERT_NO_FATAL_FAILURE(check_profiler_window<valois_refcount>(seed))
            << "seed " << seed;
    }
}
TEST(SchedExplore, PinnedSeed_ProfilerCaptureHazard) {
    for (std::uint64_t seed : {14ull, 26ull, 49ull, 80ull}) {
        ASSERT_NO_FATAL_FAILURE(check_profiler_window<hazard_policy>(seed))
            << "seed " << seed;
    }
}
TEST(SchedExplore, PinnedSeed_ProfilerCaptureEpoch) {
    for (std::uint64_t seed : {16ull, 35ull, 62ull, 95ull}) {
        ASSERT_NO_FATAL_FAILURE(check_profiler_window<epoch_policy>(seed))
            << "seed " << seed;
    }
}

}  // namespace
