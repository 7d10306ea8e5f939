// E10 — KV service on the split-ordered resizable map.
//
// Three views:
//  1. request-mix sweep: the sharded resizable store under each named
//     preset (uniform / zipf99 / read_heavy / write_heavy) at the default
//     client count — throughput, p50/p99, and resize activity per row.
//  2. growth-under-load: start a deliberately tiny store (8 buckets per
//     shard, tight max_load) and hammer it with insert-heavy Zipf traffic;
//     the acceptance row — the directory must grow >= 8x DURING the run
//     with ops flowing throughout (there is no stop-the-world phase to
//     hide in: resize is one CAS and lazy dummy inserts, so any pause
//     would show up as a p99 cliff).
//  3. decay/churn: growth phase then an erase-dominated decay phase with
//     min_load set — the directory must contract (shrink CAS path).
//  4. fixed vs resizable A/B: the same service harness over hash_map
//     shards (pre-sized vs under-sized) and split-ordered shards — what
//     the resize machinery costs when capacity was guessed right, and
//     what it buys when it was not.
#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "lfll/dict/hash_map.hpp"
#include "lfll/dict/sharded_kv.hpp"
#include "lfll/harness/kv_service.hpp"

namespace {

using namespace bench;
using namespace lfll;
using lfll::harness::kv_report;
using lfll::harness::kv_service_config;
using lfll::harness::request_mix;
using lfll::harness::run_kv_service;

constexpr std::size_t kShards = 4;
constexpr int kClients = 4;

using so_store = sharded_kv<split_ordered_map<int, int>>;
using fixed_store = sharded_kv<hash_map<int, int>>;

so_store make_so_store(const split_ordered_config& cfg) {
    return make_sharded_kv<int, int>(kShards, cfg);
}

fixed_store make_fixed_store(std::size_t buckets_per_shard, std::size_t hint) {
    return fixed_store(kShards, [&](std::size_t) {
        return std::make_unique<hash_map<int, int>>(buckets_per_shard, hint);
    });
}

void add_report_row(table& t, const std::string& name, const std::string& mix,
                    const kv_report& rep) {
    t.add_row({name, mix, fmt_si(rep.run.ops_per_sec),
               fmt_si(rep.latency_ns.p50), fmt_si(rep.latency_ns.p99),
               std::to_string(rep.buckets_before) + "->" +
                   std::to_string(rep.buckets_after),
               std::to_string(rep.grows), fmt_si(static_cast<double>(rep.size_after))});
}

/// E10.4 rows: where a mix's sampled latency actually went, one row per
/// profiler phase. Share is of the total attributed ns for that mix, so
/// the column answers "what fraction of the pain is CAS retries vs
/// traversal vs reclamation" per workload shape.
void add_phase_rows(table& t, const std::string& mix, const kv_report& rep) {
    std::uint64_t total_ns = 0;
    for (const auto& st : rep.phases) total_ns += st.sum_ns;
    for (const auto& st : rep.phases) {
        const double share =
            total_ns == 0 ? 0.0
                          : 100.0 * static_cast<double>(st.sum_ns) /
                                static_cast<double>(total_ns);
        t.add_row({mix, st.phase_name, std::to_string(st.count), fmt_si(st.p50_ns),
                   fmt_si(st.p99_ns), fmt_fixed(share, 1)});
    }
}

void sweep_mixes(int millis) {
    table t({"store", "mix", "ops/s", "p50 ns", "p99 ns", "buckets", "grows", "size"});
    table phases({"mix", "phase", "samples", "p50 ns", "p99 ns", "share %"});
    std::size_t n = 0;
    const request_mix* presets = request_mix::all(n);
    for (std::size_t i = 0; i < n; ++i) {
        split_ordered_config cfg;
        cfg.initial_buckets = 64;
        cfg.capacity_hint = 512;
        so_store store = make_so_store(cfg);
        kv_service_config sc;
        sc.clients = kClients;
        sc.millis = millis;
        sc.key_range = 1 << 16;
        sc.mix = presets[i];
        const kv_report rep = run_kv_service(store, sc);
        add_report_row(t, "so-kv", presets[i].name, rep);
        add_phase_rows(phases, presets[i].name, rep);
    }
    emit("E10.1 kv service: request-mix sweep (shards=" + std::to_string(kShards) + ")",
         t);
    emit("E10.4 phase attribution per mix (sampled profiler, ns per phase)", phases);
}

void growth_under_load(int millis) {
    table t({"store", "mix", "ops/s", "p50 ns", "p99 ns", "buckets", "grows", "size"});
    split_ordered_config cfg;
    cfg.initial_buckets = 8;  // deliberately undersized: force splits mid-run
    cfg.capacity_hint = 64;
    cfg.max_load = 2.0;
    cfg.resize_check_period = 8;
    so_store store = make_so_store(cfg);
    kv_service_config sc;
    sc.clients = kClients;
    sc.millis = millis;
    sc.key_range = 1 << 18;
    sc.mix = request_mix{"zipf99-grow", {10, 80, 10}, 0.99};
    const kv_report rep = run_kv_service(store, sc);
    add_report_row(t, "so-kv-tiny", sc.mix.name, rep);
    emit("E10.2 growth under load (start 8 buckets/shard)", t);
    const double factor = rep.growth_factor();
    std::printf("growth_factor %.1fx (acceptance: >= 8x, ops flowing throughout)%s\n\n",
                factor, factor >= 8.0 ? "" : "  ** BELOW TARGET **");
}

void decay_churn(int millis) {
    // E10.5 — the shrink half of the resize machinery under a realistic
    // lifecycle: an insert-heavy growth phase inflates the directory, then
    // an erase-dominated decay phase (most erases miss once the store
    // drains — exactly the traffic shape that used to starve maybe_resize,
    // which only ticked on successful ops) must walk it back down.
    table t({"phase", "mix", "ops/s", "buckets", "grows", "shrinks", "size"});
    split_ordered_config cfg;
    cfg.initial_buckets = 8;
    cfg.capacity_hint = 64;
    cfg.max_load = 2.0;
    cfg.min_load = 0.4;  // decay target: shrink once load drops below this
    cfg.resize_check_period = 8;
    so_store store = make_so_store(cfg);
    kv_service_config sc;
    sc.clients = kClients;
    sc.millis = millis;
    sc.key_range = 1 << 16;
    sc.mix = request_mix{"zipf99-grow", {10, 80, 10}, 0.99};
    const kv_report grow = run_kv_service(store, sc);
    t.add_row({"grow", sc.mix.name, fmt_si(grow.run.ops_per_sec),
               std::to_string(grow.buckets_before) + "->" +
                   std::to_string(grow.buckets_after),
               std::to_string(grow.grows), std::to_string(grow.shrinks),
               fmt_si(static_cast<double>(grow.size_after))});
    sc.millis = millis * 2;  // draining 80%-insert worth of keys takes longer
    sc.mix = request_mix{"uniform-decay", {10, 5, 85}, 0.0};
    const kv_report decay = run_kv_service(store, sc);
    t.add_row({"decay", sc.mix.name, fmt_si(decay.run.ops_per_sec),
               std::to_string(decay.buckets_before) + "->" +
                   std::to_string(decay.buckets_after),
               std::to_string(decay.grows), std::to_string(decay.shrinks),
               fmt_si(static_cast<double>(decay.size_after))});
    emit("E10.5 decay/churn: shrink after growth (min_load=0.4)", t);
    const bool shrank =
        decay.shrinks > 0 && decay.buckets_after < decay.buckets_before;
    std::printf("decay_shrinks %llu, buckets %zu->%zu (acceptance: shrinks > 0 "
                "and directory contracts)%s\n\n",
                static_cast<unsigned long long>(decay.shrinks),
                decay.buckets_before, decay.buckets_after,
                shrank ? "" : "  ** BELOW TARGET **");
}

void fixed_vs_resizable(int millis) {
    table t({"store", "mix", "ops/s", "p50 ns", "p99 ns", "buckets", "grows", "size"});
    kv_service_config sc;
    sc.clients = kClients;
    sc.millis = millis;
    sc.key_range = 1 << 16;
    sc.mix = request_mix::zipf99();
    {
        // Right-sized fixed table: the capacity-was-known best case.
        fixed_store store = make_fixed_store(256, 64);
        add_report_row(t, "fixed-256/shard", sc.mix.name, run_kv_service(store, sc));
    }
    {
        // Undersized fixed table: what no-resize costs when the guess is
        // 32x low — chains go long and stay long.
        fixed_store store = make_fixed_store(8, 64);
        add_report_row(t, "fixed-8/shard", sc.mix.name, run_kv_service(store, sc));
    }
    {
        // Resizable, starting from the same bad guess: splits its way out.
        split_ordered_config cfg;
        cfg.initial_buckets = 8;
        cfg.capacity_hint = 64;
        so_store store = make_so_store(cfg);
        add_report_row(t, "so-8/shard", sc.mix.name, run_kv_service(store, sc));
    }
    emit("E10.3 fixed vs resizable (same client load)", t);
}

}  // namespace

int main() {
    bench::telemetry_session session;
    const int millis = bench_millis(150);
    sweep_mixes(millis);
    growth_under_load(millis);
    decay_churn(millis);
    fixed_vs_resizable(millis);
    return 0;
}
