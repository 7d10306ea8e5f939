// A1 — what do auxiliary nodes cost?
//
// The Valois list pays two nodes per item (cell + aux) and an extra hop
// per traversal step; the Harris-Michael list (the design that displaced
// it) marks pointers instead. Same sorted-dictionary workload on both, at
// matched thread counts, plus the structural counters that explain the
// difference (cells traversed counts only normal cells for both, so the
// hop overhead shows up in throughput, not the counter).
#include <memory>

#include "bench_common.hpp"
#include "lfll/baseline/harris_michael_list.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/reclaim/epoch.hpp"

namespace {

using namespace bench;
using namespace lfll;

void run_keys(std::uint64_t keys, const op_mix& mix, int millis) {
    table t({"structure", "threads", "ops/s", "retries/op", "cas_fail/op"});
    sweep_threads(t, "valois-auxnodes", mix, keys, millis,
                  [&] { return std::make_unique<sorted_list_map<int, int>>(2 * keys); });
    sweep_threads(t, "harris-michael-hp", mix, keys, millis, [&] {
        return std::make_unique<harris_michael_list<int, int, hazard_domain>>();
    });
    sweep_threads(t, "harris-michael-ebr", mix, keys, millis, [&] {
        return std::make_unique<harris_michael_list<int, int, epoch_domain>>();
    });
    emit("A1 aux-node cost, " + std::to_string(keys) + " keys, mix " + mix_name(mix), t);
}

}  // namespace

int main() {
    bench::telemetry_session telemetry;
    const int millis = bench_millis(150);
    run_keys(256, op_mix::read_heavy(), millis);
    run_keys(256, op_mix::mixed(), millis);
    return 0;
}
