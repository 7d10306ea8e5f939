// E12 — batched multi-ops and the request pipeline.
//
// Three views:
//  1. sorted_list_map batch sweep ×3 policies: per-call find vs multi_get
//     at batch {4, 8, 32, 128}. The list walk is O(n) per cold lookup, so
//     a sorted batch served on ONE cursor pass divides the walk by the
//     batch size — the acceptance row (batch-32 refcount >= 1.5x per-call)
//     is gated by CI (batch-smoke) from the committed BENCH_batch.json.
//  2. split_ordered_map mixed-op batches: the hash map's per-call lookups
//     are already O(load factor), so bucket-binned batching only buys
//     locality within a bucket run — the sweep shows where that saturates
//     (and where batching costs more than it saves).
//  3. kv service A/B: one-op-per-call clients vs pipelined clients
//     (request_pipeline submit windows) over sorted-list shards — where
//     traversal amortization dominates — and over split-ordered shards,
//     where the ring handoff is the whole story. Throughput counts
//     LOGICAL ops in both modes (kv_report.ops_per_request records the
//     submission shape).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lfll/dict/sharded_kv.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/harness/kv_service.hpp"
#include "lfll/harness/pipeline.hpp"
#include "lfll/harness/runner.hpp"
#include "lfll/primitives/rng.hpp"
#include "lfll/reclaim/epoch_policy.hpp"
#include "lfll/reclaim/hazard_policy.hpp"

namespace {

using namespace bench;
using namespace lfll;
using lfll::harness::kv_report;
using lfll::harness::kv_service_config;
using lfll::harness::request_mix;
using lfll::harness::run_kv_service;
using lfll::harness::run_timed;

constexpr int kThreads = 2;
constexpr std::size_t kSortedKeys = 4096;
constexpr std::size_t kSoKeys = 8192;
const std::size_t kBatches[] = {4, 8, 32, 128};

// --- E12.1: sorted_list_map, per-call find vs multi_get ------------------

template <typename Policy>
void sweep_sorted_policy(table& t, int millis) {
    sorted_list_map<int, int, std::less<int>, Policy> m(2 * kSortedKeys + 64);
    // Descending prefill: each insert lands at the head, so filling is
    // O(n) instead of the O(n^2) an ascending fill's end-seeks would pay.
    for (std::size_t i = kSortedKeys; i-- > 0;) {
        m.insert(static_cast<int>(i), static_cast<int>(i));
    }
    // Per-call baseline: the same 32 random keys a batch would carry,
    // each paying its own cold seek.
    const run_result base = run_timed(kThreads, millis, [&](int tid, auto& stop) {
        xorshift64 rng(0xE12A0000ULL + static_cast<std::uint64_t>(tid) * 7919);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            for (int j = 0; j < 32; ++j) {
                (void)m.find(static_cast<int>(rng.next_below(kSortedKeys)));
            }
            ops += 32;
        }
        return ops;
    });
    t.add_row({Policy::name, "find/call", "1", fmt_si(base.ops_per_sec),
               fmt_fixed(1.0, 2)});
    for (const std::size_t b : kBatches) {
        const run_result r = run_timed(kThreads, millis, [&](int tid, auto& stop) {
            xorshift64 rng(0xE12B0000ULL + static_cast<std::uint64_t>(tid) * 7919);
            std::vector<int> keys(b);
            std::uint64_t ops = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                for (auto& k : keys) k = static_cast<int>(rng.next_below(kSortedKeys));
                (void)m.multi_get(keys);
                ops += b;
            }
            return ops;
        });
        t.add_row({Policy::name, "multi_get", std::to_string(b),
                   fmt_si(r.ops_per_sec),
                   fmt_fixed(r.ops_per_sec / base.ops_per_sec, 2)});
    }
}

void sweep_sorted(int millis) {
    table t({"policy", "mode", "batch", "ops/s", "vs find"});
    sweep_sorted_policy<valois_refcount>(t, millis);
    sweep_sorted_policy<hazard_policy>(t, millis);
    sweep_sorted_policy<epoch_policy>(t, millis);
    emit("E12.1 sorted_list_map: per-call find vs multi_get (" +
             std::to_string(kSortedKeys) + " keys, " + std::to_string(kThreads) +
             " threads)",
         t);
}

// --- E12.2: split_ordered_map, mixed-op batches --------------------------

struct so_mix {
    const char* name;
    int get_pct;
    int insert_pct;  // remainder = erase
};

void sweep_split_ordered(int millis) {
    table t({"mix", "mode", "batch", "ops/s", "vs per-call"});
    const so_mix mixes[] = {{"get-only", 100, 0}, {"70/20/10", 70, 20}};
    for (const so_mix& mix : mixes) {
        split_ordered_map<int, int> m(64, 1024);
        for (std::size_t i = 0; i < kSoKeys; ++i) {
            m.insert(static_cast<int>(i), static_cast<int>(i));
        }
        const auto draw_op = [&](xorshift64& rng, batch_op<int, int>& op) {
            const int k = static_cast<int>(rng.next_below(2 * kSoKeys));
            const int pick = static_cast<int>(rng.next_below(100));
            op.key = k;
            op.value = k;
            op.kind = pick < mix.get_pct ? batch_op_kind::get
                      : pick < mix.get_pct + mix.insert_pct
                          ? batch_op_kind::insert
                          : batch_op_kind::erase;
        };
        const run_result base = run_timed(kThreads, millis, [&](int tid, auto& stop) {
            xorshift64 rng(0xE12C0000ULL + static_cast<std::uint64_t>(tid) * 7919);
            batch_op<int, int> op;
            std::uint64_t ops = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                for (int j = 0; j < 32; ++j) {
                    draw_op(rng, op);
                    switch (op.kind) {
                        case batch_op_kind::get: (void)m.find(op.key); break;
                        case batch_op_kind::insert: (void)m.insert(op.key, op.value); break;
                        case batch_op_kind::erase: (void)m.erase(op.key); break;
                    }
                }
                ops += 32;
            }
            return ops;
        });
        t.add_row({mix.name, "per-call", "1", fmt_si(base.ops_per_sec),
                   fmt_fixed(1.0, 2)});
        for (const std::size_t b : kBatches) {
            const run_result r = run_timed(kThreads, millis, [&](int tid, auto& stop) {
                xorshift64 rng(0xE12D0000ULL + static_cast<std::uint64_t>(tid) * 7919);
                std::vector<batch_op<int, int>> ops_buf(b);
                std::vector<batch_result<int>> res(b);
                std::uint64_t ops = 0;
                while (!stop.load(std::memory_order_relaxed)) {
                    for (auto& op : ops_buf) draw_op(rng, op);
                    m.apply_batch(ops_buf.data(), b, res.data());
                    ops += b;
                }
                return ops;
            });
            t.add_row({mix.name, "apply_batch", std::to_string(b),
                       fmt_si(r.ops_per_sec),
                       fmt_fixed(r.ops_per_sec / base.ops_per_sec, 2)});
        }
    }
    emit("E12.2 split_ordered_map: per-call vs apply_batch (" +
             std::to_string(kSoKeys) + " keys, " + std::to_string(kThreads) +
             " threads)",
         t);
}

// --- E12.3: kv service, direct vs pipelined ------------------------------

void add_kv_row(table& t, const std::string& store, const std::string& mode,
                const kv_report& rep) {
    t.add_row({store, mode, fmt_si(rep.run.ops_per_sec), fmt_si(rep.latency_ns.p50),
               fmt_si(rep.latency_ns.p99),
               fmt_fixed(rep.ops_per_request, 0)});
}

void kv_direct_vs_pipelined(int millis) {
    table t({"store", "mode", "ops/s", "p50 ns", "p99 ns", "ops/req"});
    {
        // Sorted-list shards: every direct lookup is an O(keys/shard)
        // walk, so this is where batching pays hardest. Saturation rows
        // show the throughput win; p99 is NOT comparable between those
        // rows (the pipelined run keeps clients*window requests in
        // flight vs clients for direct, so Little's law alone inflates
        // its latency ~window-fold). The equal-load comparison the CI
        // batch-smoke job gates (pipelined p99 <= 1.2x direct p99) is
        // the paced pair: both modes offered 75% of direct's measured
        // saturation throughput, where p99 prices the serving path —
        // one O(n) walk vs a shared sorted pass — not the queue depth.
        using sorted_store = sharded_kv<sorted_list_map<int, int>>;
        sorted_store store(4, [](std::size_t) {
            return std::make_unique<sorted_list_map<int, int>>(8192);
        });
        kv_service_config sc;
        sc.clients = 4;
        sc.millis = millis;
        sc.key_range = 1 << 14;
        sc.mix = request_mix::read_heavy();
        for (int i = 1 << 14; i-- > 0;) store.insert(i, i);
        const kv_report direct = run_kv_service(store, sc);
        add_kv_row(t, "sorted-kv", "direct", direct);
        for (const std::size_t w : {std::size_t{8}, std::size_t{32}}) {
            sc.pipeline_window = w;
            sc.pipeline.batch_max = w;
            add_kv_row(t, "sorted-kv", "pipe-w" + std::to_string(w),
                       run_kv_service(store, sc));
        }
        // 75% of direct's measured capacity: high enough that direct's
        // own queueing shows in its tail (the regime where you deploy
        // batching), low enough that both modes sustain the offered rate.
        const auto pace = static_cast<std::uint64_t>(
            std::max(5000.0, 0.75 * direct.run.ops_per_sec));
        sc.pace_ops_per_sec = pace;
        sc.sample_shift = 0;   // paced load is light; sample every request
        sc.millis = 2 * millis;  // and run longer, so p99 has sample mass
        sc.pipeline_window = 0;
        add_kv_row(t, "sorted-kv", "direct-paced", run_kv_service(store, sc));
        sc.pipeline_window = 32;
        sc.pipeline.batch_max = 32;
        add_kv_row(t, "sorted-kv", "pipe-paced", run_kv_service(store, sc));
        sc.pace_ops_per_sec = 0;
    }
    {
        // Split-ordered shards: per-call lookups are already O(1), so
        // this pair prices the pipeline machinery itself (ring hop,
        // futex completion) when there is no traversal to amortize.
        using so_store = sharded_kv<split_ordered_map<int, int>>;
        split_ordered_config cfg;
        cfg.initial_buckets = 64;
        cfg.capacity_hint = 512;
        so_store store = make_sharded_kv<int, int>(4, cfg);
        kv_service_config sc;
        sc.clients = 4;
        sc.millis = millis;
        sc.key_range = 1 << 16;
        sc.mix = request_mix::zipf99();
        add_kv_row(t, "so-kv", "direct", run_kv_service(store, sc));
        sc.pipeline_window = 32;
        sc.pipeline.batch_max = 32;
        add_kv_row(t, "so-kv", "pipe-w32", run_kv_service(store, sc));
    }
    emit("E12.3 kv service: direct vs pipelined (4 clients)", t);
}

}  // namespace

int main() {
    bench::telemetry_session session;
    const int millis = bench_millis(150);
    sweep_sorted(millis);
    sweep_split_ordered(millis);
    kv_direct_vs_pipelined(millis);
    return 0;
}
