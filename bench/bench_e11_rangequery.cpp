// E11 — linearizable range queries vs plain scans vs a lock-based
// snapshot baseline.
//
// Three views:
//  1. range-size x mutator sweep on the flat sorted map: one reader
//     thread issues ranges of a fixed width while mutator threads run a
//     20%-write mix over the same keys. Three readers are compared at
//     each width: `scan` (for_each_range — the batched cursor walk, NO
//     snapshot semantics), `snapshot` (range_query — versioned stamps +
//     victim hand-off, linearizable), and `locked` (std::map under a
//     mutex, copied out — what snapshot semantics cost the classic way).
//     The acceptance row: snapshot throughput must hold >= 50% of scan
//     under the 20%-write mix.
//  2. whole-map snapshots DURING split-ordered growth: snapshots ride
//     the same list the resize CAS is redirecting into; every result is
//     checked sorted + duplicate-free, and the directory must keep
//     growing while snapshots flow.
//  3. victim hand-off cost: erase throughput with zero queries in
//     flight (armed() gate closed) vs under continuous snapshots.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/primitives/rng.hpp"

namespace {

using namespace bench;
using namespace lfll;

constexpr int kKeyRange = 4096;
constexpr int kMutators = 2;

struct reader_result {
    double queries_per_sec = 0;
    double keys_per_sec = 0;
};

/// One reader thread running `range_op(lo, hi) -> keys returned` against
/// churn from `mutators` threads of a 20%-write mix (80f/10i/10e) over
/// [0, kKeyRange). Returns the reader's throughput.
template <typename Dict, typename RangeOp>
reader_result run_reader(Dict& dict, int mutators, int millis, int range_size,
                         RangeOp&& range_op) {
    std::atomic<bool> stop{false};
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    for (int t = 0; t < mutators; ++t) {
        ts.emplace_back([&, t] {
            xorshift64 rng(0xE11 + static_cast<std::uint64_t>(t) * 31);
            while (!go.load(std::memory_order_acquire)) {
            }
            while (!stop.load(std::memory_order_acquire)) {
                const int k = static_cast<int>(rng.next_below(kKeyRange));
                const std::uint64_t roll = rng.next() % 10;
                if (roll < 8) {
                    dict.contains(k);
                } else if (roll == 8) {
                    dict.insert(k, k);
                } else {
                    dict.erase(k);
                }
            }
        });
    }
    std::uint64_t queries = 0;
    std::uint64_t keys = 0;
    double seconds = 0;
    {
        xorshift64 rng(0x5CAD);
        go.store(true, std::memory_order_release);
        const auto start = std::chrono::steady_clock::now();
        const auto deadline = start + std::chrono::milliseconds(millis);
        while (std::chrono::steady_clock::now() < deadline) {
            const int lo =
                static_cast<int>(rng.next_below(kKeyRange - range_size));
            keys += range_op(lo, lo + range_size);
            ++queries;
        }
        seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                start)
                      .count();
    }
    stop.store(true, std::memory_order_release);
    for (auto& th : ts) th.join();
    reader_result r;
    r.queries_per_sec = seconds > 0 ? static_cast<double>(queries) / seconds : 0;
    r.keys_per_sec = seconds > 0 ? static_cast<double>(keys) / seconds : 0;
    return r;
}

/// std::map + mutex with the same dict surface the mutators need.
struct locked_map {
    std::mutex mu;
    std::map<int, int> m;
    bool contains(int k) {
        std::lock_guard lk(mu);
        return m.count(k) != 0;
    }
    bool insert(int k, int v) {
        std::lock_guard lk(mu);
        return m.emplace(k, v).second;
    }
    bool erase(int k) {
        std::lock_guard lk(mu);
        return m.erase(k) != 0;
    }
    std::size_t range(int lo, int hi) {
        std::lock_guard lk(mu);
        std::vector<std::pair<int, int>> out(m.lower_bound(lo), m.lower_bound(hi));
        return out.size();
    }
};

void range_sweep(int millis) {
    table t({"reader", "range", "mutators", "queries/s", "keys/s", "vs scan"});
    double accept_ratio = -1.0;
    for (int range_size : {16, 256, 2048}) {
        using map_t = sorted_list_map<int, int>;
        map_t map(kKeyRange + 64);
        for (int k = 0; k < kKeyRange; ++k) map.insert(k, k);

        const reader_result scan =
            run_reader(map, kMutators, millis, range_size, [&](int lo, int hi) {
                std::size_t n = 0;
                map.for_each_range(lo, hi, [&](int, int) { ++n; });
                return n;
            });
        const reader_result snap =
            run_reader(map, kMutators, millis, range_size,
                       [&](int lo, int hi) { return map.range_query(lo, hi).size(); });

        locked_map lm;
        for (int k = 0; k < kKeyRange; ++k) lm.insert(k, k);
        const reader_result locked =
            run_reader(lm, kMutators, millis, range_size,
                       [&](int lo, int hi) { return lm.range(lo, hi); });

        const double ratio = scan.keys_per_sec > 0
                                 ? snap.keys_per_sec / scan.keys_per_sec
                                 : 0.0;
        if (range_size == 256) accept_ratio = ratio;
        t.add_row({"scan", std::to_string(range_size), std::to_string(kMutators),
                   fmt_si(scan.queries_per_sec), fmt_si(scan.keys_per_sec), "100.0%"});
        t.add_row({"snapshot", std::to_string(range_size), std::to_string(kMutators),
                   fmt_si(snap.queries_per_sec), fmt_si(snap.keys_per_sec),
                   fmt_fixed(100.0 * ratio, 1) + "%"});
        t.add_row({"locked", std::to_string(range_size), std::to_string(kMutators),
                   fmt_si(locked.queries_per_sec), fmt_si(locked.keys_per_sec),
                   fmt_fixed(scan.keys_per_sec > 0
                                 ? 100.0 * locked.keys_per_sec / scan.keys_per_sec
                                 : 0.0,
                             1) +
                       "%"});
    }
    emit("E11.1 range reader under 20%-write mix (sorted map, keys=" +
             std::to_string(kKeyRange) + ")",
         t);
    std::printf(
        "snapshot_vs_scan %.1f%% at range=256 (acceptance: >= 50%% under "
        "20%%-write mix)%s\n\n",
        100.0 * accept_ratio, accept_ratio >= 0.5 ? "" : "  ** BELOW TARGET **");
}

void snapshot_during_growth(int millis) {
    table t({"map", "snapshots/s", "avg size", "grows", "buckets", "torn"});
    split_ordered_config cfg;
    cfg.initial_buckets = 8;  // deliberately undersized: splits mid-snapshot
    cfg.capacity_hint = 256;
    cfg.max_load = 2.0;
    cfg.resize_check_period = 8;
    split_ordered_map<int, int> map(cfg);
    std::atomic<bool> stop{false};
    std::vector<std::thread> ts;
    for (int t2 = 0; t2 < 2; ++t2) {
        ts.emplace_back([&, t2] {  // insert-heavy growth traffic
            xorshift64 rng(0x660 + static_cast<std::uint64_t>(t2));
            int next = t2;
            while (!stop.load(std::memory_order_acquire)) {
                map.insert(next, next);
                next += 2;
                if ((rng.next() & 63) == 0) {
                    map.erase(static_cast<int>(rng.next_below(
                        static_cast<std::uint64_t>(next > 2 ? next : 2))));
                }
            }
        });
    }
    std::uint64_t snapshots = 0;
    std::uint64_t total_keys = 0;
    std::uint64_t torn = 0;
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + std::chrono::milliseconds(millis);
    while (std::chrono::steady_clock::now() < deadline) {
        auto snap = map.snapshot();
        if (!std::is_sorted(snap.begin(), snap.end()) ||
            std::adjacent_find(snap.begin(), snap.end(),
                               [](const auto& a, const auto& b) {
                                   return a.first == b.first;
                               }) != snap.end()) {
            ++torn;
        }
        total_keys += snap.size();
        ++snapshots;
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    stop.store(true, std::memory_order_release);
    for (auto& th : ts) th.join();
    t.add_row({"so-map", fmt_si(static_cast<double>(snapshots) / seconds),
               fmt_si(snapshots ? static_cast<double>(total_keys) /
                                      static_cast<double>(snapshots)
                                : 0.0),
               std::to_string(map.grow_count()), std::to_string(map.bucket_count()),
               std::to_string(torn)});
    emit("E11.2 whole-map snapshots during split-ordered growth", t);
    std::printf("torn_snapshots %llu (acceptance: 0)%s\n\n",
                static_cast<unsigned long long>(torn),
                torn == 0 ? "" : "  ** TORN **");
}

void handoff_cost(int millis) {
    table t({"mode", "erase+insert/s", "note"});
    using map_t = sorted_list_map<int, int>;
    for (int with_queries = 0; with_queries <= 1; ++with_queries) {
        map_t map(kKeyRange + 64);
        for (int k = 0; k < kKeyRange; ++k) map.insert(k, k);
        std::atomic<bool> stop{false};
        std::thread query_thread;
        if (with_queries != 0) {
            query_thread = std::thread([&] {  // keeps the registry armed
                while (!stop.load(std::memory_order_acquire)) {
                    (void)map.range_query(0, kKeyRange);
                }
            });
        }
        std::uint64_t churns = 0;
        xorshift64 rng(0xABCD);
        const auto start = std::chrono::steady_clock::now();
        const auto deadline = start + std::chrono::milliseconds(millis);
        while (std::chrono::steady_clock::now() < deadline) {
            const int k = static_cast<int>(rng.next_below(kKeyRange));
            map.erase(k);
            map.insert(k, k);
            ++churns;
        }
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                .count();
        stop.store(true, std::memory_order_release);
        if (query_thread.joinable()) query_thread.join();
        t.add_row({with_queries ? "armed" : "idle",
                   fmt_si(static_cast<double>(churns) / seconds),
                   with_queries ? "continuous snapshots" : "armed() gate closed"});
    }
    emit("E11.3 erase-path victim hand-off cost", t);
}

}  // namespace

int main() {
    bench::telemetry_session session;
    const int millis = bench_millis(150);
    range_sweep(millis);
    snapshot_during_growth(millis);
    handoff_cost(millis);
    return 0;
}
