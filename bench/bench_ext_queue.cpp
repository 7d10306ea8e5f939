// EXT — queue building blocks (§1's claim, [27] context).
//
// The same producer/consumer workload over: the dedicated Valois queue
// [27], the generic-list FIFO adapter (O(n) enqueue — the simple corner
// of the trade-off), the priority-queue adapter, and a mutex-guarded
// std::deque as the conventional baseline.
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "lfll/adapters/priority_queue.hpp"
#include "lfll/adapters/queue.hpp"
#include "lfll/adapters/stack.hpp"
#include "lfll/adapters/treiber_stack.hpp"
#include "lfll/adapters/valois_queue.hpp"

namespace {

using namespace bench;
using namespace lfll;

class mutex_queue {
public:
    void enqueue(int v) {
        std::lock_guard lk(mu_);
        q_.push_back(v);
    }
    std::optional<int> dequeue() {
        std::lock_guard lk(mu_);
        if (q_.empty()) return std::nullopt;
        int v = q_.front();
        q_.pop_front();
        return v;
    }

private:
    std::mutex mu_;
    std::deque<int> q_;
};

/// Half the threads enqueue, half dequeue; reports combined op rate.
template <typename Q, typename Enq, typename Deq>
run_result pingpong(Q& q, int threads, int millis, Enq&& enq, Deq&& deq) {
    return run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
        std::uint64_t ops = 0;
        if (tid % 2 == 0) {
            while (!stop.load(std::memory_order_relaxed)) {
                enq(q, static_cast<int>(ops));
                ++ops;
            }
        } else {
            while (!stop.load(std::memory_order_relaxed)) {
                (void)deq(q);
                ++ops;
            }
        }
        return ops;
    });
}

void run(int millis) {
    table t({"queue", "threads", "ops/s"});
    for (int threads : {2, 4, 8}) {
        {
            valois_queue<int> q(8192);
            auto res = pingpong(q, threads, millis,
                                [](auto& qq, int v) { qq.enqueue(v); },
                                [](auto& qq) { return qq.dequeue(); });
            t.add_row({"valois-queue[27]", std::to_string(threads), fmt_si(res.ops_per_sec)});
        }
        {
            lf_queue<int> q(8192);
            auto res = pingpong(q, threads, millis,
                                [](auto& qq, int v) { qq.enqueue(v); },
                                [](auto& qq) { return qq.dequeue(); });
            t.add_row({"list-fifo-adapter", std::to_string(threads), fmt_si(res.ops_per_sec)});
        }
        {
            lf_priority_queue<int, int> q(8192);
            auto res = pingpong(q, threads, millis,
                                [](auto& qq, int v) { qq.push(v & 15, v); },
                                [](auto& qq) { return qq.pop(); });
            t.add_row({"priority-adapter", std::to_string(threads), fmt_si(res.ops_per_sec)});
        }
        {
            mutex_queue q;
            auto res = pingpong(q, threads, millis,
                                [](auto& qq, int v) { qq.enqueue(v); },
                                [](auto& qq) { return qq.dequeue(); });
            t.add_row({"mutex-deque", std::to_string(threads), fmt_si(res.ops_per_sec)});
        }
    }
    emit("EXT queue building blocks, half enqueue / half dequeue", t);
}

class mutex_stack {
public:
    void push(int v) {
        std::lock_guard lk(mu_);
        s_.push_back(v);
    }
    std::optional<int> pop() {
        std::lock_guard lk(mu_);
        if (s_.empty()) return std::nullopt;
        int v = s_.back();
        s_.pop_back();
        return v;
    }

private:
    std::mutex mu_;
    std::vector<int> s_;
};

void run_stacks(int millis) {
    table t({"stack", "threads", "ops/s"});
    for (int threads : {2, 4, 8}) {
        {
            treiber_stack<int> s(8192);
            auto res = pingpong(s, threads, millis,
                                [](auto& ss, int v) { ss.push(v); },
                                [](auto& ss) { return ss.pop(); });
            t.add_row({"treiber-counted", std::to_string(threads), fmt_si(res.ops_per_sec)});
        }
        {
            lf_stack<int> s(8192);
            auto res = pingpong(s, threads, millis,
                                [](auto& ss, int v) { ss.push(v); },
                                [](auto& ss) { return ss.pop(); });
            t.add_row({"list-lifo-adapter", std::to_string(threads), fmt_si(res.ops_per_sec)});
        }
        {
            mutex_stack s;
            auto res = pingpong(s, threads, millis,
                                [](auto& ss, int v) { ss.push(v); },
                                [](auto& ss) { return ss.pop(); });
            t.add_row({"mutex-vector", std::to_string(threads), fmt_si(res.ops_per_sec)});
        }
    }
    emit("EXT stack building blocks, half push / half pop", t);
}

}  // namespace

int main() {
    bench::telemetry_session telemetry;
    const int millis = bench_millis(150);
    run(millis);
    run_stacks(millis);
    return 0;
}
