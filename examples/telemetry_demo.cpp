// Telemetry demo: publish live metrics from a concurrent workload.
//
// Runs a short mixed insert/erase/find workload against the sorted-list
// dictionary under all three memory policies while a periodic exporter
// streams registry snapshots, then prints the final snapshot and (when
// LFLL_TRACE_OUT names a file) writes a Chrome/Perfetto trace there.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/telemetry_demo                 # snapshot to stdout
//   ./build/examples/telemetry_demo 2 /tmp/m.jsonl  # 2s, stream for lfll_top
//
// The second form appends one JSON line per 250 ms tick to /tmp/m.jsonl;
// run `./build/tools/lfll_top /tmp/m.jsonl` in another terminal to watch.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/primitives/rng.hpp"
#include "lfll/reclaim/epoch_policy.hpp"
#include "lfll/reclaim/hazard_policy.hpp"
#include "lfll/telemetry/exporter.hpp"
#include "lfll/telemetry/metrics.hpp"
#include "lfll/telemetry/trace.hpp"

namespace {

/// Churn a dictionary under `Policy` for `seconds`, 4 threads, then
/// drain so the retired-backlog gauge ends at its quiescent value.
template <typename Policy>
void churn(double seconds) {
    lfll::sorted_list_map<int, int, std::less<int>, Policy> map(2048);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            lfll::xorshift64 rng(0xdecafbad + static_cast<std::uint64_t>(t));
            while (!stop.load(std::memory_order_acquire)) {
                const int k = static_cast<int>(rng.next_below(512));
                switch (rng.next() % 3) {
                    case 0: map.insert(k, k); break;
                    case 1: map.erase(k); break;
                    default: (void)map.contains(k); break;
                }
            }
        });
    }
    std::this_thread::sleep_for(deadline - std::chrono::steady_clock::now());
    stop.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    map.list().pool().drain_retired();
    std::printf("telemetry_demo: %s round done\n", Policy::name);
}

}  // namespace

int main(int argc, char** argv) {
    const double seconds = argc > 1 ? std::atof(argv[1]) : 0.5;
    const char* jsonl = argc > 2 ? argv[2] : nullptr;

    // Explicit exporter when a path is given; otherwise honour
    // LFLL_TELEMETRY like the benches do.
    std::unique_ptr<lfll::telemetry::periodic_exporter> exporter;
    if (jsonl != nullptr) {
        exporter = std::make_unique<lfll::telemetry::periodic_exporter>(
            lfll::telemetry::export_format::jsonl, jsonl,
            std::chrono::milliseconds(250));
    } else {
        exporter = lfll::telemetry::exporter_from_env();
    }

    const double per_policy = seconds / 3.0;
    churn<lfll::valois_refcount>(per_policy);
    churn<lfll::hazard_policy>(per_policy);
    churn<lfll::epoch_policy>(per_policy);

    if (exporter != nullptr) exporter->stop();

    // Final snapshot to stdout: the op counters plus one health gauge per
    // policy, proving all three published into the shared registry.
    const auto rows = lfll::telemetry::registry::global().snapshot();
    int gauges_seen = 0;
    for (const auto& r : rows) {
        if (r.name == "lfll_retired_backlog") ++gauges_seen;
    }
    std::printf("%s", lfll::telemetry::render_prometheus(rows).c_str());
    std::printf("telemetry_demo: %d retired-backlog gauges (expect >= 3)\n",
                gauges_seen);

    if (const char* out = std::getenv("LFLL_TRACE_OUT")) {
        lfll::telemetry::write_chrome_trace(out);
        std::printf("telemetry_demo: trace written to %s\n", out);
    }
    return gauges_seen >= 3 ? 0 : 1;
}
