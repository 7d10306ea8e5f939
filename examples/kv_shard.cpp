// kv_shard: a miniature concurrent key-value store shard built on the
// lock-free split-ordered resizable map (lfll::split_ordered_map),
// demonstrating the paper's headline property: a stalled thread cannot
// stall the store.
//
// N worker threads serve a mixed get/put/del workload. One "rogue" thread
// is repeatedly suspended mid-operation (simulating page faults or
// preemption, the pathologies §1 cites); with a lock-based table its lock
// would convoy everyone behind it — here throughput barely notices.
//
//   ./build/examples/kv_shard [workers] [seconds]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/primitives/rng.hpp"

int main(int argc, char** argv) {
    const int workers = argc > 1 ? std::atoi(argv[1]) : 4;
    const double seconds = argc > 2 ? std::atof(argv[2]) : 1.0;
    constexpr std::uint64_t kKeys = 100000;

    // Deliberately undersized for ~50k live entries: the resizable map
    // doubles its way up under load (watch "buckets now" below).
    lfll::split_ordered_map<int, std::string> store(64, 128);
    for (std::uint64_t k = 0; k < kKeys; k += 2) {
        store.insert(static_cast<int>(k), "v" + std::to_string(k));
    }

    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> ops(static_cast<std::size_t>(workers) + 1, 0);
    std::vector<std::thread> threads;

    auto worker_loop = [&](std::size_t slot, bool rogue) {
        lfll::xorshift64 rng(0x5702e + slot);
        std::uint64_t n = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            const int k = static_cast<int>(rng.next_below(kKeys));
            switch (rng.next() % 10) {
                case 0:
                    store.insert(k, "v" + std::to_string(k));
                    break;
                case 1:
                    store.erase(k);
                    break;
                default:
                    (void)store.find(k);
                    break;
            }
            ++n;
            if (rogue && n % 64 == 0) {
                // Suspended mid-stream of operations, cursor state and
                // all. Non-blocking progress: nobody waits for us.
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }
        }
        ops[slot] = n;
    };

    for (int w = 0; w < workers; ++w) {
        threads.emplace_back(worker_loop, static_cast<std::size_t>(w), false);
    }
    threads.emplace_back(worker_loop, static_cast<std::size_t>(workers), true);  // rogue

    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();

    std::uint64_t total = 0;
    for (std::size_t w = 0; w < static_cast<std::size_t>(workers); ++w) total += ops[w];
    std::printf("kv_shard: %d workers + 1 rogue (sleeps 20ms every 64 ops), %.1fs\n", workers,
                seconds);
    std::printf("  healthy-worker throughput: %.2f Mops/s total\n",
                static_cast<double>(total) / seconds / 1e6);
    std::printf("  rogue thread still completed: %llu ops (non-blocking: its stalls hurt "
                "only itself)\n",
                (unsigned long long)ops[static_cast<std::size_t>(workers)]);
    std::printf("  store size now: %zu (buckets now: %zu)\n", store.size_slow(),
                store.bucket_count());
    return 0;
}
