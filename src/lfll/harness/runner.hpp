// Multi-threaded benchmark driver.
//
// run_timed() spawns N workers behind a start barrier, lets them run for a
// wall-clock window, then collects per-thread op counts and the delta of
// the library's instrumentation counters (retries, aux hops, SafeReads —
// the §4.1 "extra work" quantities the experiments report).
//
// Note on this container: it exposes ONE hardware core, so thread counts
// beyond 1 measure oversubscription (preemption-driven interleaving), not
// parallel speedup. The experiments' comparisons are all relative —
// structure A vs structure B at the same thread count — which survives
// that, and the retry/hop counters are hardware-independent.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "lfll/telemetry/metrics.hpp"
#include "lfll/telemetry/op_counters.hpp"

namespace lfll::harness {

struct run_result {
    double seconds = 0;
    std::uint64_t total_ops = 0;
    double ops_per_sec = 0;
    std::vector<std::uint64_t> per_thread_ops;
    op_counters counters;  ///< instrumentation delta over the run

    double per_op(std::uint64_t counter_total) const {
        return total_ops == 0 ? 0.0
                              : static_cast<double>(counter_total) /
                                    static_cast<double>(total_ops);
    }
};

namespace detail {
inline op_counters delta(const op_counters& before, const op_counters& after) {
    op_counters d;
    d.safe_reads = after.safe_reads - before.safe_reads;
    d.saferead_retries = after.saferead_retries - before.saferead_retries;
    d.cas_attempts = after.cas_attempts - before.cas_attempts;
    d.cas_failures = after.cas_failures - before.cas_failures;
    d.insert_retries = after.insert_retries - before.insert_retries;
    d.delete_retries = after.delete_retries - before.delete_retries;
    d.aux_hops = after.aux_hops - before.aux_hops;
    d.aux_compactions = after.aux_compactions - before.aux_compactions;
    d.cells_traversed = after.cells_traversed - before.cells_traversed;
    d.nodes_allocated = after.nodes_allocated - before.nodes_allocated;
    d.nodes_reclaimed = after.nodes_reclaimed - before.nodes_reclaimed;
    return d;
}
}  // namespace detail

/// Runs `worker(thread_id, stop_flag)` on `threads` threads for `millis`
/// wall-clock milliseconds. The worker returns its completed op count and
/// must poll the stop flag at op granularity.
template <typename Worker>
run_result run_timed(int threads, int millis, Worker&& worker) {
    run_result res;
    res.per_thread_ops.assign(static_cast<std::size_t>(threads), 0);
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    const op_counters before = instrument::snapshot();

    std::vector<std::thread> ts;
    ts.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        ts.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            res.per_thread_ops[static_cast<std::size_t>(t)] = worker(t, stop);
        });
    }

    const auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(millis));
    stop.store(true, std::memory_order_release);
    for (auto& th : ts) th.join();
    const auto t1 = std::chrono::steady_clock::now();

    res.seconds = std::chrono::duration<double>(t1 - t0).count();
    for (std::uint64_t ops : res.per_thread_ops) res.total_ops += ops;
    res.ops_per_sec = res.seconds > 0 ? static_cast<double>(res.total_ops) / res.seconds : 0;
    res.counters = detail::delta(before, instrument::snapshot());

    // Publish the cell's result so a live exporter (LFLL_TELEMETRY, see
    // telemetry/exporter.hpp) shows per-cell progress alongside the live
    // lfll_op_* counters. Per-run, so the by-name lookup cost is noise.
    auto& reg = telemetry::registry::global();
    reg.get_counter("lfll_runs_total").inc();
    reg.get_counter("lfll_run_ops_total").add(res.total_ops);
    reg.get_gauge("lfll_run_threads").set(threads);
    reg.get_gauge("lfll_run_ops_per_sec").set(static_cast<std::int64_t>(res.ops_per_sec));
    return res;
}

}  // namespace lfll::harness
