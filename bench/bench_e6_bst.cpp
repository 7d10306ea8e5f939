// E6 — binary search tree (§4.2): "If we consider only Find and Insert
// dictionary operations, then the amount of extra work done by a sequence
// of operations is expected to be O(n log n)" — i.e. O(log n) per op,
// versus the flat list's O(n).
//
// Also ablation A3: the paper's physical splice deletion (whose effect it
// calls "unknown") vs. the tombstone deletion we default to. Splice is
// restricted to a single structural mutator, so the A3 comparison runs
// one mutator thread with concurrent searchers.
#include <atomic>

#include "bench_common.hpp"
#include "lfll/dict/bst.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/primitives/rng.hpp"

namespace {

using namespace bench;
using namespace lfll;

/// find/insert-only worker for the bst_set (set interface).
std::uint64_t set_worker(bst_set<int>& s, int find_pct, std::uint64_t keys, int tid,
                         std::atomic<bool>& stop, bool tombstone_deletes) {
    xorshift64 rng(0xbb5700ULL + static_cast<std::uint64_t>(tid) * 2999);
    std::uint64_t ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
        const int k = static_cast<int>(rng.next_below(keys));
        const int pick = static_cast<int>(rng.next_below(100));
        if (pick < find_pct) {
            (void)s.contains(k);
        } else if (pick % 2 == 0) {
            (void)s.insert(k);
        } else if (tombstone_deletes) {
            (void)s.erase(k);
        }
        ++ops;
    }
    return ops;
}

void sweep_n_find_insert(int threads, int millis) {
    table t({"structure", "keys(n)", "ops/s", "cells/op"});
    for (std::uint64_t keys : {64ULL, 512ULL, 4096ULL}) {
        {
            bst_set<int> s(2 * keys);
            // Randomized insertion order -> expected O(log n) height.
            xorshift64 rng(5);
            for (std::uint64_t i = 0; i < 4 * keys; ++i) {
                s.insert(static_cast<int>(rng.next_below(keys)));
            }
            auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
                return set_worker(s, 80, keys, tid, stop, true);
            });
            t.add_row({"bst-aux", std::to_string(keys), fmt_si(res.ops_per_sec),
                       fmt_fixed(res.per_op(res.counters.cells_traversed), 1)});
        }
        {
            sorted_list_map<int, int> map(2 * keys);
            prefill(map, keys);
            const op_mix mix{80, 10, 10};
            auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
                return dict_worker(map, mix, keys, tid, stop);
            });
            t.add_row({"sorted-list", std::to_string(keys), fmt_si(res.ops_per_sec),
                       fmt_fixed(res.per_op(res.counters.cells_traversed), 1)});
        }
    }
    emit("E6 BST vs flat list, " + std::to_string(threads) + " threads, 80% find", t);
}

void ablation_delete_policy(std::uint64_t keys, int millis) {
    table t({"delete policy", "mutator ops/s", "searcher ops/s"});
    for (const bool splice : {false, true}) {
        bst_set<int> s(4 * keys);
        for (std::uint64_t k = 0; k < keys; k += 2) s.insert(static_cast<int>(k));
        std::atomic<std::uint64_t> search_ops{0};
        // Thread 0 mutates (insert + delete under the chosen policy);
        // threads 1..3 search.
        auto res = run_timed(4, millis, [&](int tid, std::atomic<bool>& stop) {
            xorshift64 rng(0xdee + static_cast<std::uint64_t>(tid));
            std::uint64_t ops = 0;
            if (tid == 0) {
                while (!stop.load(std::memory_order_relaxed)) {
                    const int k = static_cast<int>(rng.next_below(keys));
                    if (rng.next() % 2 == 0) {
                        (void)s.insert(k);
                    } else if (splice) {
                        (void)s.erase_splice(k);
                    } else {
                        (void)s.erase(k);
                    }
                    ++ops;
                }
            } else {
                while (!stop.load(std::memory_order_relaxed)) {
                    (void)s.contains(static_cast<int>(rng.next_below(keys)));
                    ++ops;
                }
                search_ops.fetch_add(ops, std::memory_order_relaxed);
            }
            return ops;
        });
        t.add_row({splice ? "splice (paper Fig. 14)" : "tombstone (default)",
                   fmt_si(static_cast<double>(res.per_thread_ops[0]) / res.seconds),
                   fmt_si(static_cast<double>(search_ops.load()) / res.seconds)});
    }
    emit("E6/A3 delete policy ablation, 1 mutator + 3 searchers, " + std::to_string(keys) +
             " keys",
         t);
}

}  // namespace

int main() {
    bench::telemetry_session telemetry;
    const int millis = bench_millis(150);
    sweep_n_find_insert(4, millis);
    ablation_delete_policy(1024, millis);
    return 0;
}
