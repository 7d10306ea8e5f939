// E9 — memory management (§5.2 and thesis [28]): the lock-free free-list
// pool (Alloc/Reclaim) and the buddy system.
//
//  1. Fixed-size alloc/release cycles per second vs. threads:
//     node_pool (the paper's Figs. 17-18) vs. buddy vs. malloc/free.
//  2. Variable-size workload on the buddy allocator (what the free list
//     cannot serve at all — the reason the thesis builds the buddy
//     system) vs. malloc.
#include <cstdlib>

#include "bench_common.hpp"
#include "lfll/core/node.hpp"
#include "lfll/memory/buddy_allocator.hpp"
#include "lfll/memory/node_pool.hpp"
#include "lfll/primitives/rng.hpp"

namespace {

using namespace bench;
using namespace lfll;

// Prevents the compiler from eliding the allocation round-trip.
inline void benchmark_guard(void* p) { asm volatile("" : : "g"(p) : "memory"); }

void fixed_size(int millis) {
    table t({"allocator", "threads", "cycles/s"});
    using node_t = list_node<int>;
    // The pool as every structure uses it: magazines in front of the
    // Fig. 17/18 free list.
    for (int threads : thread_counts()) {
        node_pool<node_t> pool(4096);
        auto res = run_timed(threads, millis, [&](int, std::atomic<bool>& stop) {
            std::uint64_t ops = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                node_t* n = pool.alloc();
                benchmark_guard(n);
                pool.release(n);
                ++ops;
            }
            return ops;
        });
        t.add_row({"node_pool/mag", std::to_string(threads), fmt_si(res.ops_per_sec)});
    }
    for (int threads : thread_counts()) {
        buddy_allocator buddy(1 << 22, 64);
        auto res = run_timed(threads, millis, [&](int, std::atomic<bool>& stop) {
            std::uint64_t ops = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                void* p = buddy.allocate(64);
                benchmark_guard(p);
                buddy.deallocate(p);
                ++ops;
            }
            return ops;
        });
        t.add_row({"buddy", std::to_string(threads), fmt_si(res.ops_per_sec)});
    }
    for (int threads : thread_counts()) {
        auto res = run_timed(threads, millis, [&](int, std::atomic<bool>& stop) {
            std::uint64_t ops = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                void* p = std::malloc(64);
                benchmark_guard(p);
                std::free(p);
                ++ops;
            }
            return ops;
        });
        t.add_row({"malloc", std::to_string(threads), fmt_si(res.ops_per_sec)});
    }
    emit("E9 fixed-size alloc/free cycles (64B)", t);
}

void variable_size(int millis) {
    table t({"allocator", "threads", "cycles/s"});
    for (int threads : {1, 4}) {
        buddy_allocator buddy(1 << 24, 64);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            xorshift64 rng(0xa110c + static_cast<std::uint64_t>(tid));
            void* live[16] = {};
            std::size_t n_live = 0;
            std::uint64_t ops = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                if (n_live < 16 && rng.next() % 2 == 0) {
                    void* p = buddy.allocate(64 + rng.next_below(4000));
                    if (p != nullptr) live[n_live++] = p;
                } else if (n_live > 0) {
                    buddy.deallocate(live[--n_live]);
                }
                ++ops;
            }
            while (n_live > 0) buddy.deallocate(live[--n_live]);
            return ops;
        });
        t.add_row({"buddy", std::to_string(threads), fmt_si(res.ops_per_sec)});
    }
    for (int threads : {1, 4}) {
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            xorshift64 rng(0xa110c + static_cast<std::uint64_t>(tid));
            void* live[16] = {};
            std::size_t n_live = 0;
            std::uint64_t ops = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                if (n_live < 16 && rng.next() % 2 == 0) {
                    live[n_live++] = std::malloc(64 + rng.next_below(4000));
                } else if (n_live > 0) {
                    std::free(live[--n_live]);
                }
                ++ops;
            }
            while (n_live > 0) std::free(live[--n_live]);
            return ops;
        });
        t.add_row({"malloc", std::to_string(threads), fmt_si(res.ops_per_sec)});
    }
    emit("E9 variable-size alloc/free (64B-4KB, 16 live)", t);
}

}  // namespace

int main() {
    bench::telemetry_session telemetry("bench_e9_alloc");
    const int millis = bench_millis(150);
    fixed_size(millis);
    variable_size(millis);
    return 0;
}
