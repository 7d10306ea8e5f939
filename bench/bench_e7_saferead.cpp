// E7 — "The most time consuming operation is most likely performing a
// SafeRead on each cell as we traverse the list; it would be useful to
// have this operation implemented in hardware." (§6)
//
// Per-node traversal cost of a 1024-cell sorted list under each read
// protection scheme:
//   * valois-saferead  — cursor traversal; every hop is a SafeRead
//                        (fetch_add + revalidate) plus matching Releases.
//   * valois-raw       — same structure, unprotected pointer walk (the
//                        "hardware SafeRead" upper bound the paper asks
//                        for: what traversal would cost if protection
//                        were free).
//   * valois-hazard /
//     valois-epoch     — the SAME valois cursor traversal with the
//                        MemoryPolicy seam swapped: hazard pays a
//                        publish + revalidate + count per hop, epoch a
//                        plain acquire load under one pin per cursor —
//                        i.e. the paper's §6 wish, implemented in
//                        software.
//   * hm-hazard        — Harris-Michael list, hazard-pointer protected
//                        (two fenced stores + revalidation per hop).
//   * hm-epoch         — Harris-Michael under epochs: one pin per full
//                        traversal, plain loads per hop.
//   * hm-leaky         — no protection at all (floor).
//
// google-benchmark binary: reports ns per full traversal; divide by 1024
// for ns/node. The shape to reproduce: saferead is the most expensive
// per-hop scheme; epoch/leaky show that amortized (per-traversal)
// protection is nearly free.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include <cstdint>
#include <string>

#include "lfll/baseline/harris_michael_list.hpp"
#include "lfll/core/list.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/memory/side_arena.hpp"
#include "lfll/primitives/rng.hpp"
#include "lfll/reclaim/epoch.hpp"
#include "lfll/reclaim/epoch_policy.hpp"
#include "lfll/reclaim/hazard_policy.hpp"
#include "lfll/reclaim/leaky.hpp"

namespace {

using namespace lfll;

constexpr int kCells = 1024;

template <typename Policy = valois_refcount>
sorted_list_map<int, int, std::less<int>, Policy>& valois_map() {
    static sorted_list_map<int, int, std::less<int>, Policy>* m = [] {
        auto* map = new sorted_list_map<int, int, std::less<int>, Policy>(2 * kCells);
        for (int k = 0; k < kCells; ++k) map->insert(k, k);
        return map;
    }();
    return *m;
}

template <typename Policy>
void BM_ValoisPolicyTraversal(benchmark::State& state) {
    auto& map = valois_map<Policy>();
    long sum = 0;
    for (auto _ : state) {
        for (typename sorted_list_map<int, int, std::less<int>, Policy>::cursor c(
                 map.list());
             !c.at_end(); map.list().next(c)) {
            sum += (*c).first;
        }
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations() * kCells);
}
BENCHMARK(BM_ValoisPolicyTraversal<valois_refcount>)->Name("BM_ValoisSafeReadTraversal");
BENCHMARK(BM_ValoisPolicyTraversal<hazard_policy>)->Name("BM_ValoisHazardTraversal");
BENCHMARK(BM_ValoisPolicyTraversal<epoch_policy>)->Name("BM_ValoisEpochTraversal");

// The batched seek path (seek_while): the mutator-facing traversal the
// dictionaries now ride. Under counting policies each batched segment
// costs ONE protect plus an incarnation sweep instead of per-hop RMWs,
// so this row is the honest refcount-vs-epoch comparison for seeks —
// the CI ratio gate (refcount within 1.5x of epoch) keys on it.
template <typename Policy>
void BM_ValoisPolicySeek(benchmark::State& state) {
    auto& map = valois_map<Policy>();
    using map_t = sorted_list_map<int, int, std::less<int>, Policy>;
    long sum = 0;
    for (auto _ : state) {
        typename map_t::cursor c(map.list());
        map.list().seek_while(c, [&sum](const auto& kv) {
            sum += kv.first;
            return true;
        });
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations() * kCells);
}
BENCHMARK(BM_ValoisPolicySeek<valois_refcount>)->Name("BM_ValoisSafeReadSeek");
BENCHMARK(BM_ValoisPolicySeek<hazard_policy>)->Name("BM_ValoisHazardSeek");
BENCHMARK(BM_ValoisPolicySeek<epoch_policy>)->Name("BM_ValoisEpochSeek");

// Three threads finding in one shared map shaped like perfbench
// ordered-scan's store: 4096 of 8192 keys, uniform, so a find walks
// ~2k cells from First. Under counting policies every find used to
// protect each superhop segment's end — the same ~128 count words for
// all three threads — and now rolls its validation window instead,
// with no RMW from First to the landing. The CI ratio gate keys on
// refcount over epoch here. Items = finds, all threads.
template <typename Policy>
void BM_ValoisPolicySharedFind(benchmark::State& state) {
    using map_t = sorted_list_map<std::uint64_t, std::uint64_t, std::less<std::uint64_t>, Policy>;
    static map_t* m = [] {
        auto* map = new map_t(8192);
        xorshift64 rng(0x5CA9ULL);
        for (int n = 0; n < 4096;) {
            if (map->insert(rng.next_below(8192), 1)) ++n;
        }
        return map;
    }();
    xorshift64 rng(0xF1D0ULL + static_cast<std::uint64_t>(state.thread_index()));
    std::uint64_t hits = 0;
    for (auto _ : state) {
        hits += m->find(rng.next_below(8192)).has_value();
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ValoisPolicySharedFind<valois_refcount>)
    ->Name("BM_ValoisSafeReadSharedFind")->Threads(3)->UseRealTime();
BENCHMARK(BM_ValoisPolicySharedFind<hazard_policy>)
    ->Name("BM_ValoisHazardSharedFind")->Threads(3)->UseRealTime();
BENCHMARK(BM_ValoisPolicySharedFind<epoch_policy>)
    ->Name("BM_ValoisEpochSharedFind")->Threads(3)->UseRealTime();

// map.for_each — the dictionary-level whole-map visit. Historically this
// walked the cursor per cell (one SafeRead + Release per hop) even
// though the seek engine batches; it now rides the same batched scan as
// seek_while, so its ratio to the Seek rows above should be ~1, not the
// old per-hop multiple.
template <typename Policy>
void BM_ValoisPolicyForEach(benchmark::State& state) {
    auto& map = valois_map<Policy>();
    long sum = 0;
    for (auto _ : state) {
        map.for_each([&sum](int k, int) { sum += k; });
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations() * kCells);
}
BENCHMARK(BM_ValoisPolicyForEach<valois_refcount>)->Name("BM_ValoisSafeReadForEach");
BENCHMARK(BM_ValoisPolicyForEach<hazard_policy>)->Name("BM_ValoisHazardForEach");
BENCHMARK(BM_ValoisPolicyForEach<epoch_policy>)->Name("BM_ValoisEpochForEach");

// Insert/erase-heavy dictionary mix (20f/40i/40e over a half-full key
// space): exercises the batched find_from plus the SafeRead-cache
// re-pin in try_insert/try_delete. Items = operations, not cells.
template <typename Policy>
void BM_ValoisPolicyMutatorMix(benchmark::State& state) {
    using map_t = sorted_list_map<int, int, std::less<int>, Policy>;
    static map_t* m = [] {
        auto* map = new map_t(2 * kCells);
        for (int k = 0; k < kCells; k += 2) map->insert(k, k);
        return map;
    }();
    xorshift64 rng(0xE7E7E7E7ULL);
    for (auto _ : state) {
        const int k = static_cast<int>(rng.next_below(kCells));
        const int pick = static_cast<int>(rng.next_below(100));
        if (pick < 20) {
            benchmark::DoNotOptimize(m->find(k));
        } else if (pick < 60) {
            m->insert(k, k);
        } else {
            m->erase(k);
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ValoisPolicyMutatorMix<valois_refcount>)->Name("BM_ValoisSafeReadMutatorMix");
BENCHMARK(BM_ValoisPolicyMutatorMix<hazard_policy>)->Name("BM_ValoisHazardMutatorMix");
BENCHMARK(BM_ValoisPolicyMutatorMix<epoch_policy>)->Name("BM_ValoisEpochMutatorMix");

// Side-arena A/B (EXPERIMENTS.md "Side-arena string traversal"): a
// std::string payload disqualifies the cell from the batched hop (its
// racy byte copy would run user code on torn bytes), so seeks fall back
// to per-cell hops. Storing arena_ref<std::string> instead — payloads
// in an append-only side_arena, a trivially-copyable pointer in the
// cell — restores batch eligibility; both rows touch the string bytes
// per cell so the comparison includes the indirection's extra load.
void BM_ValoisStringSeek(benchmark::State& state) {
    using map_t = sorted_list_map<int, std::string>;
    static map_t* m = [] {
        auto* map = new map_t(2 * kCells);
        for (int k = 0; k < kCells; ++k)
            map->insert(k, std::string(48, static_cast<char>('a' + k % 26)));
        return map;
    }();
    long sum = 0;
    for (auto _ : state) {
        typename map_t::cursor c(m->list());
        m->list().seek_while(c, [&sum](const auto& kv) {
            sum += static_cast<long>(kv.second.size());
            return true;
        });
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations() * kCells);
}
BENCHMARK(BM_ValoisStringSeek);

void BM_ValoisArenaStringSeek(benchmark::State& state) {
    using map_t = sorted_list_map<int, arena_ref<std::string>>;
    static side_arena<std::string>* arena = new side_arena<std::string>(kCells);
    static map_t* m = [] {
        auto* map = new map_t(2 * kCells);
        for (int k = 0; k < kCells; ++k)
            map->insert(k, arena->emplace(std::size_t{48},
                                          static_cast<char>('a' + k % 26)));
        return map;
    }();
    long sum = 0;
    for (auto _ : state) {
        typename map_t::cursor c(m->list());
        // Dereferencing inside the pred is the point: a validated
        // snapshot's arena_ref targets stable arena storage, so the
        // string bytes are readable even if the cell itself recycled.
        m->list().seek_while(c, [&sum](const auto& kv) {
            sum += static_cast<long>(kv.second->size());
            return true;
        });
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations() * kCells);
}
BENCHMARK(BM_ValoisArenaStringSeek);

void BM_ValoisRawTraversal(benchmark::State& state) {
    auto& list = valois_map<>().list();
    long sum = 0;
    for (auto _ : state) {
        // Unprotected walk: only sound because this benchmark is
        // single-threaded and quiescent — exactly the cost floor the
        // paper's "hardware SafeRead" remark is about.
        for (auto* p = list.head()->next.load(std::memory_order_acquire);
             p != nullptr && !p->is_tail(); p = p->next.load(std::memory_order_acquire)) {
            if (p->is_cell()) sum += p->value().first;
        }
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations() * kCells);
}
BENCHMARK(BM_ValoisRawTraversal);

template <typename Domain>
harris_michael_list<int, int, Domain>& hm_list() {
    static harris_michael_list<int, int, Domain>* l = [] {
        auto* list = new harris_michael_list<int, int, Domain>();
        for (int k = 0; k < kCells; ++k) list->insert(k, k);
        return list;
    }();
    return *l;
}

template <typename Domain>
void BM_HarrisMichaelTraversal(benchmark::State& state) {
    auto& list = hm_list<Domain>();
    for (auto _ : state) {
        // find() of the last key walks the whole list under the domain's
        // protection protocol.
        benchmark::DoNotOptimize(list.find(kCells - 1));
    }
    state.SetItemsProcessed(state.iterations() * kCells);
}
BENCHMARK(BM_HarrisMichaelTraversal<hazard_domain>)->Name("BM_HMHazardTraversal");
BENCHMARK(BM_HarrisMichaelTraversal<epoch_domain>)->Name("BM_HMEpochTraversal");
BENCHMARK(BM_HarrisMichaelTraversal<leaky_domain>)->Name("BM_HMLeakyTraversal");

void BM_SafeReadSingle(benchmark::State& state) {
    // The primitive itself: one SafeRead + Release pair.
    auto& list = valois_map<>().list();
    auto& pool = list.pool();
    for (auto _ : state) {
        auto* p = pool.safe_read(list.head()->next);
        pool.release(p);
    }
}
BENCHMARK(BM_SafeReadSingle);

void BM_PlainAcquireLoad(benchmark::State& state) {
    auto& list = valois_map<>().list();
    for (auto _ : state) {
        benchmark::DoNotOptimize(list.head()->next.load(std::memory_order_acquire));
    }
}
BENCHMARK(BM_PlainAcquireLoad);

}  // namespace

// Hand-rolled main (vs BENCHMARK_MAIN) so the run publishes live
// telemetry like every other experiment binary.
int main(int argc, char** argv) {
    bench::telemetry_session telemetry;
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
}
