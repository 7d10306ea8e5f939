// E2 — "universal methods ... involve considerable overhead, making them
// impractical" (§1, §2).
//
// The direct lock-free sorted list vs. a Herlihy-style universal
// construction (copy the whole object + CAS the root). Both are lock-free;
// the universal method pays O(n) copying per update and wastes all
// parallelism (one winner per round), so the gap must widen with both the
// object size and the update rate.
#include <memory>

#include "bench_common.hpp"
#include "lfll/baseline/universal_set.hpp"
#include "lfll/dict/sorted_list_map.hpp"

namespace {

using namespace bench;
using namespace lfll;

void run_size(std::uint64_t keys, const op_mix& mix, int millis) {
    table t({"structure", "threads", "ops/s", "retries/op", "cas_fail/op"});
    sweep_threads(t, "valois-direct", mix, keys, millis,
                  [&] { return std::make_unique<sorted_list_map<int, int>>(2 * keys); });
    sweep_threads(t, "universal-list", mix, keys, millis,
                  [&] { return std::make_unique<universal_list_set<int, int>>(); });
    sweep_threads(t, "universal-vector", mix, keys, millis,
                  [&] { return std::make_unique<universal_set<int, int>>(); });
    emit("E2 direct vs universal, " + std::to_string(keys) + " keys, mix " + mix_name(mix), t);
}

}  // namespace

int main() {
    bench::telemetry_session telemetry;
    const int millis = bench_millis(150);
    run_size(64, op_mix::mixed(), millis);
    run_size(512, op_mix::mixed(), millis);
    run_size(512, op_mix::read_heavy(), millis);
    return 0;
}
