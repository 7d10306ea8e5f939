// A2 — reclamation-scheme ablation.
//
// The paper's answer to the ABA/reclamation problem is per-cell reference
// counting (§5). Later practice replaced it with hazard pointers and
// epochs because counting pays two RMWs per *traversal hop*, while HP
// pays per hop only fenced stores and EBR pays per *operation*. This
// bench holds the structure constant:
//   * the SAME valois sorted map under all three MemoryPolicy plugs
//     (§5 refcount / hazard / epoch) — the policy layer swaps only the
//     traversal-protection and reclamation-deferral seams, so the rows
//     isolate exactly the per-hop cost the paper's §6 remark is about,
//   * harris-michael list under hazard / epoch / leaky domains as the
//     established-practice baseline,
// on an identical workload.
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "lfll/baseline/harris_michael_list.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/reclaim/epoch.hpp"
#include "lfll/reclaim/epoch_policy.hpp"
#include "lfll/reclaim/hazard_policy.hpp"
#include "lfll/reclaim/leaky.hpp"

namespace {

using namespace bench;
using namespace lfll;

void run_mix(const op_mix& mix, std::uint64_t keys, int millis) {
    table t({"scheme", "threads", "ops/s", "retries/op", "cas_fail/op"});
    sweep_threads(t, "valois-refcount", mix, keys, millis, [&] {
        return std::make_unique<sorted_list_map<int, int>>(2 * keys);
    });
    sweep_threads(t, "valois-hazard", mix, keys, millis, [&] {
        return std::make_unique<
            sorted_list_map<int, int, std::less<int>, hazard_policy>>(2 * keys);
    });
    sweep_threads(t, "valois-epoch", mix, keys, millis, [&] {
        return std::make_unique<
            sorted_list_map<int, int, std::less<int>, epoch_policy>>(2 * keys);
    });
    sweep_threads(t, "hm-hazard", mix, keys, millis, [&] {
        return std::make_unique<harris_michael_list<int, int, hazard_domain>>();
    });
    sweep_threads(t, "hm-epoch", mix, keys, millis, [&] {
        return std::make_unique<harris_michael_list<int, int, epoch_domain>>();
    });
    sweep_threads(t, "hm-leaky", mix, keys, millis, [&] {
        return std::make_unique<harris_michael_list<int, int, leaky_domain>>();
    });
    emit("A2 reclamation schemes, " + std::to_string(keys) + " keys, mix " + mix_name(mix),
         t);
}

}  // namespace

int main() {
    bench::telemetry_session telemetry;
    const int millis = bench_millis(150);
    run_mix(op_mix::read_heavy(), 256, millis);
    run_mix(op_mix::write_only(), 256, millis);
    return 0;
}
