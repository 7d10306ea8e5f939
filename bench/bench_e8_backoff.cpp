// E8 — "starvation at high levels of contention is more efficiently
// handled by techniques such as exponential backoff" (§2.1).
//
// Maximum-contention workload: every thread inserts/deletes within an
// 8-key window of a sorted list, so all CASes target the same
// neighbourhood. We compare backoff on vs. off:
//   * throughput (backoff should win by reducing CAS storms), and
//   * fairness (min/max per-thread ops — without backoff a thread can be
//     starved by retry convoys).
// A4: the backoff cap is swept to show the tuning curve.
#include <chrono>
#include <mutex>

#include "bench_common.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/primitives/backoff.hpp"
#include "lfll/primitives/rng.hpp"

namespace {

using namespace bench;
using namespace lfll;
using lfll::harness::summarize;
using lfll::harness::summary;

struct fairness {
    double min_ops, max_ops;
};

fairness min_max(const run_result& r) {
    double mn = 1e18, mx = 0;
    for (auto v : r.per_thread_ops) {
        mn = std::min(mn, static_cast<double>(v));
        mx = std::max(mx, static_cast<double>(v));
    }
    return {mn, mx};
}

void on_off(int millis) {
    constexpr std::uint64_t kKeys = 8;
    table t({"backoff", "threads", "ops/s", "retries/op", "min/max thread ops", "p50 ns",
             "p99 ns", "max ns"});
    for (const bool enabled : {true, false}) {
        for (int threads : thread_counts()) {
            sorted_list_map<int, int> map(64);
            map.set_backoff(enabled ? backoff::config{} : no_backoff());
            prefill(map, kKeys);
            // Per-op latency, sampled every 16th op into per-thread
            // buffers merged after the run.
            std::mutex merge_mu;
            std::vector<double> latencies;
            auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
                xorshift64 rng(0xe8 + static_cast<std::uint64_t>(tid) * 31);
                std::vector<double> local;
                std::uint64_t ops = 0;
                while (!stop.load(std::memory_order_relaxed)) {
                    const int k = static_cast<int>(rng.next_below(kKeys));
                    const bool sample = (ops & 15) == 0;
                    const auto t0 = sample ? std::chrono::steady_clock::now()
                                           : std::chrono::steady_clock::time_point{};
                    if (rng.next() % 2 == 0) {
                        (void)map.insert(k, k);
                    } else {
                        (void)map.erase(k);
                    }
                    if (sample) {
                        local.push_back(std::chrono::duration<double, std::nano>(
                                            std::chrono::steady_clock::now() - t0)
                                            .count());
                    }
                    ++ops;
                }
                std::lock_guard lk(merge_mu);
                latencies.insert(latencies.end(), local.begin(), local.end());
                return ops;
            });
            const fairness f = min_max(res);
            const summary lat = summarize(std::move(latencies));
            t.add_row({enabled ? "on" : "off", std::to_string(threads),
                       fmt_si(res.ops_per_sec),
                       fmt_fixed(res.per_op(res.counters.insert_retries +
                                            res.counters.delete_retries),
                                 4),
                       fmt_fixed(f.max_ops > 0 ? f.min_ops / f.max_ops : 1.0, 3),
                       fmt_si(lat.p50), fmt_si(lat.p99), fmt_si(lat.max)});
        }
    }
    emit("E8 backoff on/off, single 8-key hot window, write-only", t);
}

void cap_sweep(int millis) {
    constexpr std::uint64_t kKeys = 8;
    const op_mix mix = op_mix::write_only();
    const int threads = 8;
    table t({"max_spins", "ops/s", "retries/op"});
    for (std::uint32_t cap : {16u, 256u, 4096u, 65536u}) {
        sorted_list_map<int, int> map(64);
        map.set_backoff(backoff::config{.min_spins = 4,
                                        .max_spins = cap,
                                        .yield_threshold = 1024,
                                        .enabled = true});
        prefill(map, kKeys);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker(map, mix, kKeys, tid, stop);
        });
        t.add_row({std::to_string(cap), fmt_si(res.ops_per_sec),
                   fmt_fixed(res.per_op(res.counters.insert_retries +
                                        res.counters.delete_retries),
                             4)});
    }
    emit("E8/A4 backoff cap sweep, 8 threads", t);
}

}  // namespace

int main() {
    bench::telemetry_session telemetry;
    const int millis = bench_millis(150);
    on_off(millis);
    cap_sweep(millis);
    return 0;
}
