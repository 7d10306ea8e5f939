// E3b — the §4.1 retry analysis, recovered on a single-core host.
//
// The clean E3 run can't show retries: with one core, threads seldom
// overlap inside the tiny CAS windows. This binary compiles the library
// paths with LFLL_SCHED_CHAOS (randomized yields inside the SafeRead /
// swing windows — the same hooks the chaos tests use), which restores
// genuine interleaving. Wall-clock throughput is meaningless under
// forced yields, so this bench reports ONLY the hardware-independent
// §4.1 quantities:
//
//   * retries/op — the "(p-1) retries per completed operation" term:
//     must grow with p and stay well under p-1 on average.
//   * aux_hops/op and compactions/op — the "extra auxiliary node left by
//     every previous operation" term and its §3 cleanup.
//   * cas_failures/op — raw contention.
#define LFLL_SCHED_CHAOS 1

#include "bench_common.hpp"
#include "lfll/dict/sorted_list_map.hpp"

namespace {

using namespace bench;
using namespace lfll;

void sweep_p(std::uint64_t keys, const op_mix& mix, int millis) {
    table t({"threads", "ops completed", "retries/op", "aux_hops/op", "compactions/op",
             "cas_fail/op"});
    for (int threads : thread_counts()) {
        sorted_list_map<int, int> map(4 * keys);
        prefill(map, keys);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker(map, mix, keys, tid, stop);
        });
        t.add_row({std::to_string(threads), fmt_si(static_cast<double>(res.total_ops)),
                   fmt_fixed(res.per_op(res.counters.insert_retries +
                                        res.counters.delete_retries),
                             4),
                   fmt_fixed(res.per_op(res.counters.aux_hops), 4),
                   fmt_fixed(res.per_op(res.counters.aux_compactions), 4),
                   fmt_fixed(res.per_op(res.counters.cas_failures), 4)});
    }
    emit("E3b chaos-scheduled extra work vs p, " + std::to_string(keys) + " keys, mix " +
             mix_name(mix),
         t);
}

}  // namespace

int main() {
    bench::telemetry_session telemetry;
    const int millis = bench_millis(150);
    sweep_p(16, op_mix::write_only(), millis);  // hot: every op collides
    sweep_p(128, op_mix::mixed(), millis);
    return 0;
}
