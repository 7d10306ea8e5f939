// E1b — the §1 pathology, injected directly: "the delay of a process
// while in a critical section (for example, due to a page fault,
// multitasking preemption, memory access latency, etc.) forms a
// bottleneck which can cause performance problems such as convoying".
//
// Every thread sleeps 1ms once per 2000 operations — *inside* whatever
// critical section or optimistic window it happens to be in (we simply
// sleep mid-workload; for a locked structure the probability of holding
// the lock at that instant equals the fraction of time spent holding it,
// which for coarse locks is nearly 1). Healthy-thread throughput shows
// who convoys: a stalled lock holder blocks everyone; a stalled
// lock-free thread hurts only itself.
//
// This is the claim E1 can only show indirectly via oversubscription.
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "bench_common.hpp"
#include "lfll/baseline/coarse_list.hpp"
#include "lfll/baseline/fine_list.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/primitives/rng.hpp"

namespace {

using namespace bench;
using namespace lfll;

/// Worker that sleeps 1ms every 2000 ops, mid-stream.
template <typename Map>
std::uint64_t stalling_worker(Map& m, const op_mix& mix, std::uint64_t keys, int tid,
                              std::atomic<bool>& stop) {
    xorshift64 rng(0x57a11 + static_cast<std::uint64_t>(tid) * 17);
    std::uint64_t ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
        const int k = static_cast<int>(rng.next_below(keys));
        const int pick = static_cast<int>(rng.next_below(100));
        if (pick < mix.find_pct) {
            (void)m.find(k);
        } else if (pick < mix.find_pct + mix.insert_pct) {
            (void)m.insert(k, k);
        } else {
            (void)m.erase(k);
        }
        if (++ops % 2000 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return ops;
}

// A coarse list whose critical sections INCLUDE the stall: the honest
// model of "page fault while holding the lock". We wrap the lock to
// sleep inside it occasionally.
template <typename Lock>
class stall_inside_lock {
public:
    void lock() {
        inner_.lock();
        if (++acquisitions_ % 2000 == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    bool try_lock() { return inner_.try_lock(); }
    void unlock() { inner_.unlock(); }

private:
    Lock inner_;
    // Per-lock, not per-thread: every 2000th critical section stalls.
    std::atomic<std::uint64_t> acquisitions_{0};

    std::uint64_t operator++(int) = delete;
};

/// Runs `make()`'s map clean and stalled, and reports retained capacity.
/// The interesting quantity is the RATIO: a lock-free structure's stalls
/// cost only the stalled thread's own time; a lock's stalls convoy
/// everyone behind the held lock.
template <typename MakeClean, typename MakeStalled, typename StallWorker>
void measure(table& t, const std::string& name, int threads, int millis, const op_mix& mix,
             std::uint64_t keys, MakeClean&& make_clean, MakeStalled&& make_stalled,
             StallWorker&& stalled_worker_fn) {
    double clean_ops, stalled_ops;
    {
        auto m = make_clean();
        prefill(*m, keys);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker(*m, mix, keys, tid, stop);
        });
        clean_ops = res.ops_per_sec;
    }
    {
        auto m = make_stalled();
        prefill(*m, keys);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return stalled_worker_fn(*m, tid, stop);
        });
        stalled_ops = res.ops_per_sec;
    }
    t.add_row({name, std::to_string(threads), fmt_si(clean_ops), fmt_si(stalled_ops),
               fmt_fixed(100.0 * stalled_ops / clean_ops, 1) + "%"});
}

void run(int millis) {
    constexpr std::uint64_t kKeys = 256;
    const op_mix mix = op_mix::mixed();
    table t({"structure", "threads", "clean ops/s", "stalled ops/s", "retained"});
    for (int threads : {2, 4, 8}) {
        measure(
            t, "valois-lockfree", threads, millis, mix, kKeys,
            [&] { return std::make_unique<sorted_list_map<int, int>>(2 * kKeys); },
            [&] { return std::make_unique<sorted_list_map<int, int>>(2 * kKeys); },
            [&](auto& m, int tid, std::atomic<bool>& stop) {
                return stalling_worker(m, mix, kKeys, tid, stop);
            });
        measure(
            t, "coarse-ttas", threads, millis, mix, kKeys,
            [&] { return std::make_unique<coarse_list_map<int, int, ttas_lock>>(); },
            [&] {
                return std::make_unique<
                    coarse_list_map<int, int, stall_inside_lock<ttas_lock>>>();
            },
            [&](auto& m, int tid, std::atomic<bool>& stop) {
                return dict_worker(m, mix, kKeys, tid, stop);  // stall is inside the lock
            });
        measure(
            t, "coarse-mutex", threads, millis, mix, kKeys,
            [&] { return std::make_unique<coarse_list_map<int, int, std::mutex>>(); },
            [&] {
                return std::make_unique<
                    coarse_list_map<int, int, stall_inside_lock<std::mutex>>>();
            },
            [&](auto& m, int tid, std::atomic<bool>& stop) {
                return dict_worker(m, mix, kKeys, tid, stop);
            });
        measure(
            t, "fine-coupling", threads, millis, mix, kKeys,
            [&] { return std::make_unique<fine_list_map<int, int, ttas_lock>>(); },
            [&] {
                return std::make_unique<
                    fine_list_map<int, int, stall_inside_lock<ttas_lock>>>();
            },
            [&](auto& m, int tid, std::atomic<bool>& stop) {
                return dict_worker(m, mix, kKeys, tid, stop);
            });
    }
    emit("E1b stalled-holder pathology (§1): 1ms stall per 2000 crit-sections/ops, "
         "throughput retained",
         t);
}

}  // namespace

int main() {
    bench::telemetry_session telemetry;
    const int millis = bench_millis(200);
    run(millis);
    return 0;
}
