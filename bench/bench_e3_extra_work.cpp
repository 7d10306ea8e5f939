// E3 — the §4.1 amortized extra-work analysis for the sorted-list
// dictionary.
//
// "With p concurrent processes, each successfully completed operation can
//  cause p-1 concurrent processes to have to retry ... In addition, in the
//  worst case each operation may have to traverse an extra auxiliary node
//  left by every previous operation. Thus, the total work ... is O(n^2)."
//
// We report the hardware-independent quantities directly: retried
// TryInsert/TryDelete per completed operation (should grow with p and
// stay << p-1 on average), auxiliary-node hops per operation (should stay
// O(1) amortized because Update compacts chains), and SafeReads/cells
// traversed per operation (grows with the key range, i.e. list length).
#include <memory>

#include "bench_common.hpp"
#include "lfll/dict/sorted_list_map.hpp"

namespace {

using namespace bench;
using namespace lfll;

void sweep_p(std::uint64_t keys, const op_mix& mix, int millis) {
    table t({"threads", "ops/s", "retries/op", "aux_hops/op", "compactions/op",
             "safereads/op", "cells/op"});
    for (int threads : thread_counts()) {
        sorted_list_map<int, int> map(2 * keys);
        prefill(map, keys);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker(map, mix, keys, tid, stop);
        });
        t.add_row({std::to_string(threads), fmt_si(res.ops_per_sec),
                   fmt_fixed(res.per_op(res.counters.insert_retries +
                                        res.counters.delete_retries),
                             4),
                   fmt_fixed(res.per_op(res.counters.aux_hops), 4),
                   fmt_fixed(res.per_op(res.counters.aux_compactions), 4),
                   fmt_fixed(res.per_op(res.counters.safe_reads), 1),
                   fmt_fixed(res.per_op(res.counters.cells_traversed), 1)});
    }
    emit("E3 extra work vs p, " + std::to_string(keys) + " keys, mix " + mix_name(mix), t);
}

void sweep_n(int threads, const op_mix& mix, int millis) {
    table t({"keys(n)", "ops/s", "retries/op", "aux_hops/op", "safereads/op", "cells/op"});
    for (std::uint64_t keys : {64ULL, 256ULL, 1024ULL, 4096ULL}) {
        sorted_list_map<int, int> map(2 * keys);
        prefill(map, keys);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker(map, mix, keys, tid, stop);
        });
        t.add_row({std::to_string(keys), fmt_si(res.ops_per_sec),
                   fmt_fixed(res.per_op(res.counters.insert_retries +
                                        res.counters.delete_retries),
                             4),
                   fmt_fixed(res.per_op(res.counters.aux_hops), 4),
                   fmt_fixed(res.per_op(res.counters.safe_reads), 1),
                   fmt_fixed(res.per_op(res.counters.cells_traversed), 1)});
    }
    emit("E3 extra work vs n, " + std::to_string(threads) + " threads, mix " + mix_name(mix),
         t);
}

}  // namespace

int main() {
    bench::telemetry_session telemetry;
    const int millis = bench_millis(150);
    sweep_p(128, op_mix::write_only(), millis);
    sweep_p(128, op_mix::mixed(), millis);
    sweep_n(4, op_mix::mixed(), millis);
    return 0;
}
