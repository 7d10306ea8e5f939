// Scheduler coverage for the batched multi-op path
// (step_kind::batch_drain), across all three reclamation policies. The
// windows under test:
//
//   * the cursor-resume handoff between sub-ops of one sorted batch: a
//     preemption there lets concurrent erases/inserts restructure the
//     neighbourhood the resumed seek starts from (dead landing cell,
//     recycled aux, superhop retarget) — the batch must still serve
//     every sub-op with per-op linearizable results;
//   * a sorted batch racing a LIVE split-ordered resize: the batch bins
//     keys against a mask sampled once, so a directory double/shrink
//     mid-batch must only cost re-anchors, never a wrong result;
//   * two batches racing each other (drain-vs-drain) over one key range,
//     where each batch's insert hands its cursor the freshly linked
//     cell (land_on_inserted) while the other batch tombstones it;
//   * the same-key re-anchor: a batch erases a key and then re-inserts
//     it while a concurrent insert relinks it, on both maps.
//
// Pinned seeds replay fixed schedules through the deterministic
// scheduler — replay any one with LFLL_SCHED_REPLAY=<seed>.
#define LFLL_SCHED_CHAOS 1

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <vector>

#include "lfll/core/audit.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/reclaim/epoch_policy.hpp"
#include "lfll/reclaim/hazard_policy.hpp"
#include "lfll/sched/session.hpp"
#include "lfll/telemetry/op_counters.hpp"

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

/// Batched gets over stable + churned keys: stable keys must always be
/// present with their canonical value; churned keys absent or canonical.
template <typename Map>
void run_checked_batch(Map& m, int lo, int hi, int stable_step,
                       std::uint64_t seed) {
    std::vector<batch_op<int, int>> ops;
    for (int k = lo; k < hi; ++k) ops.push_back({batch_op_kind::get, k, 0});
    std::vector<batch_result<int>> out(ops.size());
    m.apply_batch(ops.data(), ops.size(), out.data());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const int k = ops[i].key;
        if (k % stable_step == 0) {
            EXPECT_TRUE(out[i].ok) << "stable key " << k << " lost, seed " << seed;
            if (out[i].ok) EXPECT_EQ(out[i].value, std::optional<int>(100 + k));
        } else if (out[i].ok) {
            EXPECT_EQ(out[i].value, std::optional<int>(200 + k))
                << "churned key " << k << " carries a value nobody wrote, seed "
                << seed;
        }
    }
}

/// Drain-vs-erase on the flat sorted map: the batch body's cursor rides
/// through cells two churners tombstone and recycle under it.
template <typename Policy>
void run_drain_vs_erase(std::uint64_t seed) {
    using map_t = sorted_list_map<int, int, std::less<int>, Policy>;
    map_t map(48);  // tiny pool: erased cells recycle under the batch
    for (int k = 0; k < 12; k += 2) map.insert(k, 100 + k);
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&map, seed] {
        for (int round = 0; round < 3; ++round) {
            run_checked_batch(map, 0, 12, 2, seed);
        }
    });
    for (int t = 0; t < 2; ++t) {
        bodies.push_back([&map, t] {
            for (int i = 0; i < 3; ++i) {
                const int k = 1 + 2 * ((t * 3 + i) % 5);
                map.insert(k, 200 + k);
                map.erase(k);
            }
        });
    }
    sched::run(pinned(seed), std::move(bodies));
    EXPECT_GT(sched::scheduler::instance().kind_count(sched::step_kind::batch_drain),
              0u)
        << "schedule never entered a cursor-resume window, seed " << seed;
    map.list().pool().drain_retired();
    const audit_report r = audit_list(map.list());
    EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                      << " — replay with LFLL_SCHED_REPLAY=" << seed;
}

/// Drain-vs-drain: two mixed batches over one range, each landing its
/// cursor on cells the other tombstones. Post-conditions are checked at
/// quiescence against per-key op balance.
template <typename Policy>
void run_drain_vs_drain(std::uint64_t seed) {
    using map_t = sorted_list_map<int, int, std::less<int>, Policy>;
    map_t map(64);
    for (int k = 0; k < 8; k += 2) map.insert(k, 100 + k);
    std::vector<int> won_inserts(2), won_erases(2);
    std::vector<std::function<void()>> bodies;
    for (int b = 0; b < 2; ++b) {
        bodies.push_back([&map, &won_inserts, &won_erases, b] {
            std::vector<batch_op<int, int>> ops;
            for (int k = 1; k < 8; k += 2) {
                ops.push_back({batch_op_kind::insert, k, 300 + k});
                ops.push_back({batch_op_kind::get, k, 0});
                ops.push_back({batch_op_kind::erase, k, 0});
            }
            std::vector<batch_result<int>> out(ops.size());
            for (int round = 0; round < 2; ++round) {
                map.apply_batch(ops.data(), ops.size(), out.data());
                for (std::size_t i = 0; i < ops.size(); ++i) {
                    if (!out[i].ok) continue;
                    if (ops[i].kind == batch_op_kind::insert) won_inserts[b]++;
                    if (ops[i].kind == batch_op_kind::erase) won_erases[b]++;
                }
            }
        });
    }
    sched::run(pinned(seed), std::move(bodies));
    EXPECT_GT(sched::scheduler::instance().kind_count(sched::step_kind::batch_drain),
              0u)
        << "schedule never interleaved the two drains, seed " << seed;
    // Same-key insert/erase pairs inside each batch: globally, wins must
    // balance to the surviving odd-key population.
    const int balance = won_inserts[0] + won_inserts[1] - won_erases[0] -
                        won_erases[1];
    int odd_live = 0;
    map.for_each([&](const int& k, const int& v) {
        if (k % 2 == 1) {
            ++odd_live;
            EXPECT_EQ(v, 300 + k);
        } else {
            EXPECT_EQ(v, 100 + k);
        }
    });
    EXPECT_EQ(balance, odd_live) << "seed " << seed;
    EXPECT_EQ(map.size_slow(), static_cast<std::size_t>(4 + odd_live));
    map.list().pool().drain_retired();
    const audit_report r = audit_list(map.list());
    EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                      << " — replay with LFLL_SCHED_REPLAY=" << seed;
}

/// Drain-vs-resize: a batch runs against the split-ordered map while a
/// grower doubles the directory and a decayer shrinks it back — the
/// batch's once-sampled bucket mask must only ever cost re-anchors.
template <typename Policy>
void run_drain_vs_resize(std::uint64_t seed) {
    using map_t =
        split_ordered_map<int, int, std::hash<int>, std::less<int>, Policy>;
    typename map_t::config cfg;
    cfg.initial_buckets = 2;
    cfg.capacity_hint = 96;
    cfg.max_load = 1.0;
    cfg.min_load = 0.5;
    cfg.resize_check_period = 1;
    map_t map(cfg);
    for (int k = 0; k < 8; k += 2) map.insert(k, 100 + k);
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&map, seed] {
        for (int round = 0; round < 3; ++round) {
            run_checked_batch(map, 0, 8, 2, seed);
        }
    });
    bodies.push_back([&map] {  // grower: forces splits mid-batch
        for (int k = 100; k < 110; ++k) map.insert(k, k);
    });
    bodies.push_back([&map] {  // decayer: erases tick the shrink path
        for (int k = 100; k < 110; ++k) map.erase(k);
        for (int k = 100; k < 110; ++k) map.erase(k);  // misses tick too
    });
    sched::run(pinned(seed), std::move(bodies));
    EXPECT_GT(sched::scheduler::instance().kind_count(sched::step_kind::batch_drain),
              0u)
        << "schedule never entered a batch window, seed " << seed;
    for (int k = 100; k < 110; ++k) map.erase(k);
    EXPECT_EQ(map.size_slow(), 4u);
    map.list().pool().drain_retired();
    std::map<const typename map_t::node*, std::size_t> external;
    map.for_each_bucket_slot(
        [&](std::size_t, typename map_t::node* d) { external[d] += 1; });
    const audit_report r = audit_list(map.list(), external);
    EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                      << " — replay with LFLL_SCHED_REPLAY=" << seed;
}

/// Same-key re-anchor: the batch [erase k, insert k, get k] runs while a
/// concurrent inserter relinks k. An inserter that lands its cell in
/// front of the tombstoned victim makes the erase's unlink fail once and
/// walk the key's cluster by identity, past the live re-incarnation;
/// the cursor then rests BEHIND it, and only the re-anchor (First, or
/// the bucket dummy) keeps the batch's insert from linking a second
/// live k. Oracle: k starts present and nobody else erases it, so the
/// erase wins and exactly one later insert of k does. Returns whether
/// the schedule hit the window: the relink won and the batch's unlink
/// retried.
template <typename Map>
bool run_same_key_reanchor(Map& map, std::uint64_t seed) {
    constexpr int k = 5;
    for (int key = 0; key < 10; ++key) map.insert(key, 100 + key);
    const std::vector<batch_op<int, int>> ops = {
        {batch_op_kind::erase, k, 0}, {batch_op_kind::insert, k, 300 + k},
        {batch_op_kind::get, k, 0}};
    std::vector<batch_result<int>> out(ops.size());
    std::uint64_t unlink_retries = 0;
    int relinked = 0;
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&] {
        const std::uint64_t before = instrument::tls().delete_retries.load();
        map.apply_batch(ops.data(), ops.size(), out.data());
        unlink_retries = instrument::tls().delete_retries.load() - before;
    });
    bodies.push_back([&] {
        for (int i = 0; i < 3; ++i) relinked += map.insert(k, 200 + k) ? 1 : 0;
    });
    // PCT change points packed into the run's first 256 steps: with the
    // default 2048-step horizon most PCT seeds never reach one.
    sched::options o = pinned(seed);
    o.change_horizon = 256;
    sched::run(o, std::move(bodies));
    EXPECT_TRUE(out[0].ok) << "seed " << seed;
    EXPECT_EQ(relinked + (out[1].ok ? 1 : 0), 1)
        << "k must be inserted exactly once after the erase, seed " << seed;
    const int want = relinked == 1 ? 200 + k : 300 + k;
    EXPECT_TRUE(out[2].ok) << "seed " << seed;
    EXPECT_EQ(out[2].value, std::optional<int>(want)) << "seed " << seed;
    EXPECT_EQ(map.find(k), std::optional<int>(want)) << "seed " << seed;
    EXPECT_EQ(map.size_slow(), 10u) << "seed " << seed;
    return relinked == 1 && unlink_retries > 0;
}

template <typename Policy>
void run_same_key_reanchor_both(std::initializer_list<std::uint64_t> sorted_seeds,
                                std::initializer_list<std::uint64_t> split_seeds) {
    for (std::uint64_t seed : sorted_seeds) {
        sorted_list_map<int, int, std::less<int>, Policy> map(64);
        EXPECT_TRUE(run_same_key_reanchor(map, seed))
            << "sorted_list_map: schedule missed the re-anchor window, seed " << seed;
        map.list().pool().drain_retired();
        const audit_report r = audit_list(map.list());
        EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed;
    }
    for (std::uint64_t seed : split_seeds) {
        split_ordered_map<int, int, std::hash<int>, std::less<int>, Policy> map(4, 64);
        EXPECT_TRUE(run_same_key_reanchor(map, seed))
            << "split_ordered_map: schedule missed the re-anchor window, seed " << seed;
        map.list().pool().drain_retired();
        std::map<const typename decltype(map)::node*, std::size_t> external;
        map.for_each_bucket_slot(
            [&](std::size_t, typename decltype(map)::node* d) { external[d] += 1; });
        const audit_report r = audit_list(map.list(), external);
        EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed;
    }
}

TEST(BatchSched, PinnedSeed_DrainVsErase_Refcount) {
    for (std::uint64_t seed : {3ull, 8ull, 17ull, 29ull, 41ull}) {
        run_drain_vs_erase<valois_refcount>(seed);
    }
}
TEST(BatchSched, PinnedSeed_DrainVsErase_Hazard) {
    for (std::uint64_t seed : {5ull, 12ull, 23ull}) {
        run_drain_vs_erase<hazard_policy>(seed);
    }
}
TEST(BatchSched, PinnedSeed_DrainVsErase_Epoch) {
    for (std::uint64_t seed : {4ull, 9ull, 26ull}) {
        run_drain_vs_erase<epoch_policy>(seed);
    }
}

TEST(BatchSched, PinnedSeed_DrainVsDrain_Refcount) {
    for (std::uint64_t seed : {2ull, 11ull, 35ull}) {
        run_drain_vs_drain<valois_refcount>(seed);
    }
}
TEST(BatchSched, PinnedSeed_DrainVsDrain_Hazard) {
    for (std::uint64_t seed : {7ull, 20ull}) {
        run_drain_vs_drain<hazard_policy>(seed);
    }
}
TEST(BatchSched, PinnedSeed_DrainVsDrain_Epoch) {
    for (std::uint64_t seed : {14ull, 33ull}) {
        run_drain_vs_drain<epoch_policy>(seed);
    }
}

TEST(BatchSched, PinnedSeed_DrainVsResize_Refcount) {
    for (std::uint64_t seed : {2ull, 7ull, 13ull, 31ull}) {
        run_drain_vs_resize<valois_refcount>(seed);
    }
}
TEST(BatchSched, PinnedSeed_DrainVsResize_Hazard) {
    for (std::uint64_t seed : {6ull, 19ull}) {
        run_drain_vs_resize<hazard_policy>(seed);
    }
}
TEST(BatchSched, PinnedSeed_DrainVsResize_Epoch) {
    for (std::uint64_t seed : {10ull, 15ull}) {
        run_drain_vs_resize<epoch_policy>(seed);
    }
}

// Seeds picked by a probe: each hits the drift window under its policy,
// and each fails the oracle with the re-anchor removed. (Re-picked when
// mutator seeks began borrowing their start and the change horizon
// shrank to 256: 34-40 of seeds 1-2000 hit the window under counting
// policies, against 3-6 before.)
TEST(BatchSched, PinnedSeed_SameKeyReanchor_Refcount) {
    run_same_key_reanchor_both<valois_refcount>({146, 169, 184}, {7, 169, 193});
}
TEST(BatchSched, PinnedSeed_SameKeyReanchor_Hazard) {
    run_same_key_reanchor_both<hazard_policy>({193, 255}, {441, 495});
}
TEST(BatchSched, PinnedSeed_SameKeyReanchor_Epoch) {
    run_same_key_reanchor_both<epoch_policy>({1035, 1245, 1335}, {254, 303, 1245});
}

// A schedule is a function of its seed alone: the same pinned session,
// run twice in one process with the profiler on, records the same step
// trace. Each run starts fresh worker threads, and what the profiler
// does on them (where it samples, whether it captures a slow op) must
// not depend on the threads that ran before them or on the clock. A
// mean sample gap of 8 puts `sample` steps in every session.
TEST(BatchSched, SameSeedSameTraceInProcess_ProfilerOn) {
    telemetry::prof::set_enabled_override(1);
    telemetry::prof::set_rate_override(8);
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        run_drain_vs_erase<valois_refcount>(seed);
        const std::vector<sched::trace_event> first = sched::scheduler::instance().trace();
        EXPECT_GT(sched::scheduler::instance().kind_count(sched::step_kind::sample), 0u)
            << "seed " << seed;
        run_drain_vs_erase<valois_refcount>(seed);
        const std::vector<sched::trace_event> second = sched::scheduler::instance().trace();
        std::size_t at = 0;
        while (at < first.size() && at < second.size() && first[at] == second[at]) ++at;
        EXPECT_TRUE(at == first.size() && at == second.size())
            << "seed " << seed << ": traces of " << first.size() << " and " << second.size()
            << " steps diverge at step " << at;
    }
    telemetry::prof::set_rate_override(-1);
    telemetry::prof::set_enabled_override(-1);
}

}  // namespace
