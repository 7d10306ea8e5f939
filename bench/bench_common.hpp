// Shared helpers for the experiment binaries (E1-E9, A1-A2).
//
// Every binary prints labelled tables via lfll::harness::emit so that a
// plain `for b in build/bench/*; do $b; done` run regenerates every
// experiment row recorded in EXPERIMENTS.md. LFLL_BENCH_MS scales each
// cell's measurement window; LFLL_BENCH_CSV switches output to CSV.
#pragma once

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "lfll/harness/runner.hpp"
#include "lfll/harness/stats.hpp"
#include "lfll/harness/table.hpp"
#include "lfll/harness/workload.hpp"
#include "lfll/telemetry/exporter.hpp"
#include "lfll/telemetry/trace.hpp"

namespace bench {

/// Live-telemetry session for a bench main. Honours LFLL_TELEMETRY
/// (prom:<path> / jsonl:<path>, see telemetry/exporter.hpp) — a no-op
/// unless the variable is set — and, when LFLL_TRACE_OUT is set, writes
/// a Chrome trace of the profiler's event ring there at scope exit.
class telemetry_session {
public:
    telemetry_session() : exporter_(lfll::telemetry::exporter_from_env()) {}

    ~telemetry_session() {
        if (exporter_ != nullptr) exporter_->stop();
        if (const char* out = std::getenv("LFLL_TRACE_OUT")) {
            lfll::telemetry::write_chrome_trace(out);
        }
    }

private:
    std::unique_ptr<lfll::telemetry::periodic_exporter> exporter_;
};

using lfll::harness::bench_millis;
using lfll::harness::dict_worker;
using lfll::harness::emit;
using lfll::harness::fmt_fixed;
using lfll::harness::fmt_si;
using lfll::harness::op_mix;
using lfll::harness::prefill;
using lfll::harness::run_timed;
using lfll::harness::run_result;
using lfll::harness::table;

inline const std::vector<int>& thread_counts() {
    // One hardware core on this box: counts > 1 measure oversubscription
    // behaviour (see runner.hpp), which is where lock-holder preemption —
    // the paper's motivating pathology — actually shows up.
    static const std::vector<int> counts = {1, 2, 4, 8};
    return counts;
}

/// Runs the uniform-key dictionary workload against a fresh map from
/// `make()` at each thread count, adding one row per count to `t`.
/// `counts` defaults to the standard 1-8 sweep; contention sections pass
/// their own (hot keys want the oversubscribed end, where preemption
/// inside a CAS window actually produces retries on this 1-core box).
template <typename MakeMap>
void sweep_threads(table& t, const std::string& name, const op_mix& mix,
                   std::uint64_t key_range, int millis, MakeMap&& make,
                   const std::vector<int>& counts = thread_counts()) {
    for (int threads : counts) {
        auto map = make();
        prefill(*map, key_range);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker(*map, mix, key_range, tid, stop);
        });
        // Six decimals, not four: on a 1-core box op-level retries only
        // happen when a preemption lands inside a CAS window, so their
        // true rate (~1e-5/op, see the hot-key contention section) is
        // real but invisible at lower precision — the columns looked
        // permanently dead.
        t.add_row({name, std::to_string(threads), fmt_si(res.ops_per_sec),
                   fmt_fixed(res.per_op(res.counters.insert_retries +
                                        res.counters.delete_retries),
                             6),
                   fmt_fixed(res.per_op(res.counters.cas_failures), 6)});
    }
}

inline std::string mix_name(const op_mix& m) {
    return std::to_string(m.find_pct) + "f/" + std::to_string(m.insert_pct) + "i/" +
           std::to_string(m.erase_pct) + "e";
}

}  // namespace bench
