// E4 — hash-table dictionary (§4.1): "if we assume that the hash function
// evenly distributes the operations across the lists, then we would
// expect the extra work done to be O(1)."
//
// Three views:
//  1. retries/op vs. threads for a well-provisioned table — must stay
//     near zero (contrast with E3's flat list).
//  2. throughput vs. bucket count at fixed threads — one bucket
//     degenerates to E3's list; more buckets dilute contention AND
//     shorten chains.
//  3. uniform vs. Zipf keys — what happens when the even-distribution
//     assumption fails.
#include <memory>

#include "bench_common.hpp"
#include "lfll/baseline/locked_hash_map.hpp"
#include "lfll/dict/hash_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/primitives/zipf.hpp"

namespace {

using namespace bench;
using namespace lfll;
using lfll::harness::dict_worker_zipf;

void sweep_p(std::uint64_t keys, int millis) {
    const op_mix mix = op_mix::mixed();
    table t({"structure", "threads", "ops/s", "retries/op", "cells/op"});
    for (int threads : thread_counts()) {
        hash_map<int, int> map(256, 16);
        prefill(map, keys);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker(map, mix, keys, tid, stop);
        });
        t.add_row({"lockfree-hash256", std::to_string(threads), fmt_si(res.ops_per_sec),
                   fmt_fixed(res.per_op(res.counters.insert_retries +
                                        res.counters.delete_retries),
                             5),
                   fmt_fixed(res.per_op(res.counters.cells_traversed), 2)});
    }
    for (int threads : thread_counts()) {
        locked_hash_map<int, int> map(256);
        prefill(map, keys);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker(map, mix, keys, tid, stop);
        });
        t.add_row({"locked-hash256", std::to_string(threads), fmt_si(res.ops_per_sec), "-",
                   "-"});
    }
    emit("E4 hash table extra work vs p, " + std::to_string(keys) + " keys", t);
}

void sweep_buckets(std::uint64_t keys, int threads, int millis) {
    const op_mix mix = op_mix::mixed();
    table t({"buckets", "ops/s", "retries/op", "cells/op"});
    for (std::size_t buckets : {1u, 4u, 16u, 64u, 256u}) {
        hash_map<int, int> map(buckets, 1 + keys / buckets);
        prefill(map, keys);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker(map, mix, keys, tid, stop);
        });
        t.add_row({std::to_string(buckets), fmt_si(res.ops_per_sec),
                   fmt_fixed(res.per_op(res.counters.insert_retries +
                                        res.counters.delete_retries),
                             5),
                   fmt_fixed(res.per_op(res.counters.cells_traversed), 2)});
    }
    emit("E4 throughput vs buckets, " + std::to_string(keys) + " keys, " +
             std::to_string(threads) + " threads",
         t);
}

void skew(std::uint64_t keys, int threads, int millis) {
    const op_mix mix = op_mix::mixed();
    table t({"distribution", "ops/s", "retries/op"});
    for (double theta : {0.0, 0.9, 1.2}) {
        hash_map<int, int> map(256, 16);
        prefill(map, keys);
        zipf_generator zipf(keys, theta);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker_zipf(map, mix, zipf, tid, stop);
        });
        t.add_row({theta == 0.0 ? "uniform" : ("zipf-" + fmt_fixed(theta, 1)),
                   fmt_si(res.ops_per_sec),
                   fmt_fixed(res.per_op(res.counters.insert_retries +
                                        res.counters.delete_retries),
                             5)});
    }
    emit("E4 key-distribution skew, 256 buckets, " + std::to_string(threads) + " threads", t);
}

// Fixed slab vs split-ordered resizable, same workload. Two regimes:
// both tables sized right (the resizable design's overhead: dummy cells
// on the walk, the directory indirection), and both started at 8 buckets
// (where "fixed" means long chains forever and "resizable" splits out).
void fixed_vs_resizable(std::uint64_t keys, int threads, int millis) {
    const op_mix mix = op_mix::mixed();
    table t({"structure", "ops/s", "retries/op", "cells/op", "buckets end"});
    auto run_map = [&](const std::string& name, auto& map) {
        prefill(map, keys);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker(map, mix, keys, tid, stop);
        });
        t.add_row({name, fmt_si(res.ops_per_sec),
                   fmt_fixed(res.per_op(res.counters.insert_retries +
                                        res.counters.delete_retries),
                             5),
                   fmt_fixed(res.per_op(res.counters.cells_traversed), 2),
                   std::to_string(map.bucket_count())});
    };
    {
        hash_map<int, int> map(256, 16);
        run_map("fixed-256", map);
    }
    {
        split_ordered_map<int, int> map(256, 4096);
        run_map("so-256", map);
    }
    {
        hash_map<int, int> map(8, 512);
        run_map("fixed-8", map);
    }
    {
        split_ordered_map<int, int> map(8, 4096);
        run_map("so-8", map);
    }
    emit("E4b fixed vs resizable, " + std::to_string(keys) + " keys, " +
             std::to_string(threads) + " threads",
         t);
}

}  // namespace

int main() {
    bench::telemetry_session telemetry("bench_e4_hash");
    const int millis = bench_millis(150);
    sweep_p(4096, millis);
    sweep_buckets(1024, 4, millis);
    skew(4096, 4, millis);
    fixed_vs_resizable(4096, 4, millis);
    return 0;
}
