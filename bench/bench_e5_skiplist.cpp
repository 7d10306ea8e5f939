// E5 — skip list (§4.1): "Although the structure of the skip list reduces
// the amount of work done traversing the list, a large amount of extra
// work may be incurred due to processes attempting to modify the same
// portion of the list. In the worst case this extra work may be
// O(p log n)."
//
// Two views:
//  1. throughput vs. key range at fixed threads: the flat sorted list is
//     O(n) per op, the skip list O(log n) — the gap must widen with n and
//     the crossover sits at small n (where the skip list's level overhead
//     dominates).
//  2. retries/op vs. threads: the skip list touches log n CAS points per
//     update, so its retry rate grows faster with p than the flat list's.
#include <memory>

#include "bench_common.hpp"
#include "lfll/dict/hash_map.hpp"
#include "lfll/dict/skip_list.hpp"
#include "lfll/dict/sorted_list_map.hpp"

namespace {

using namespace bench;
using namespace lfll;

void sweep_n(int threads, int millis) {
    const op_mix mix = op_mix::mixed();
    table t({"structure", "keys(n)", "ops/s", "cells/op", "retries/op"});
    for (std::uint64_t keys : {64ULL, 512ULL, 4096ULL}) {
        {
            sorted_list_map<int, int> map(2 * keys);
            prefill(map, keys);
            auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
                return dict_worker(map, mix, keys, tid, stop);
            });
            t.add_row({"sorted-list", std::to_string(keys), fmt_si(res.ops_per_sec),
                       fmt_fixed(res.per_op(res.counters.cells_traversed), 1),
                       fmt_fixed(res.per_op(res.counters.insert_retries +
                                            res.counters.delete_retries),
                                 4)});
        }
        {
            skip_list_map<int, int> map(4 * keys, 14);
            prefill(map, keys);
            auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
                return dict_worker(map, mix, keys, tid, stop);
            });
            t.add_row({"skip-list", std::to_string(keys), fmt_si(res.ops_per_sec),
                       fmt_fixed(res.per_op(res.counters.cells_traversed), 1),
                       fmt_fixed(res.per_op(res.counters.insert_retries +
                                            res.counters.delete_retries),
                                 4)});
        }
        {
            hash_map<int, int> map(256, 1 + keys / 256);
            prefill(map, keys);
            auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
                return dict_worker(map, mix, keys, tid, stop);
            });
            t.add_row({"hash-256", std::to_string(keys), fmt_si(res.ops_per_sec),
                       fmt_fixed(res.per_op(res.counters.cells_traversed), 1),
                       fmt_fixed(res.per_op(res.counters.insert_retries +
                                            res.counters.delete_retries),
                                 4)});
        }
    }
    emit("E5 structure vs key range, " + std::to_string(threads) + " threads, mix " +
             mix_name(mix),
         t);
}

void sweep_p(std::uint64_t keys, int millis) {
    const op_mix mix = op_mix::write_only();
    table t({"structure", "threads", "ops/s", "retries/op"});
    sweep_threads(t, "sorted-list", mix, keys, millis,
                  [&] { return std::make_unique<sorted_list_map<int, int>>(2 * keys); });
    for (int threads : thread_counts()) {
        skip_list_map<int, int> map(4 * keys, 14);
        prefill(map, keys);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker(map, mix, keys, tid, stop);
        });
        t.add_row({"skip-list", std::to_string(threads), fmt_si(res.ops_per_sec),
                   fmt_fixed(res.per_op(res.counters.insert_retries +
                                        res.counters.delete_retries),
                             4),
                   ""});
    }
    emit("E5 contention vs p, " + std::to_string(keys) + " keys, write-only", t);
}

}  // namespace

int main() {
    bench::telemetry_session telemetry;
    const int millis = bench_millis(150);
    sweep_n(4, millis);
    sweep_p(512, millis);
    return 0;
}
