// Session runner: spawns N workers under the deterministic scheduler.
//
// run(opts, fns) wraps each fn in attach()/detach(), releases no worker
// until all have attached (the scheduler enforces that), and — the
// subtle part — holds every finished worker on a latch until the whole
// session has detached. Without the latch, a fast worker's *thread
// exit* would run thread-local destructors (notably the node_pool
// magazine flush, which takes the registry mutex and touches the shared
// depot) concurrently with still-serialized peers, reintroducing exactly
// the nondeterminism this subsystem exists to remove.
//
// Each worker also seeds its profiler stream from (session seed, slot)
// before attaching. The profiler's own per-thread seed comes from a
// process-wide thread ordinal and its slow-op capture from the clock;
// either would make a session's `sample` and `slow_capture` steps
// depend on what ran earlier in the process, not on the seed alone.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

#include "lfll/sched/scheduler.hpp"
#include "lfll/telemetry/profiler.hpp"

namespace lfll::sched {

/// Runs the given thread bodies as one deterministic session. Blocks
/// until all finish. Exceptions escaping a body terminate (they would
/// deadlock the schedule anyway); test assertions should use death-free
/// signalling (collect results, EXPECT after run()).
inline void run(const options& o, std::vector<std::function<void()>> fns) {
    auto& s = scheduler::instance();
    const int n = static_cast<int>(fns.size());
    s.begin(o, n);
    std::latch all_done(n);
    std::vector<std::thread> workers;
    workers.reserve(fns.size());
    for (int i = 0; i < n; ++i) {
        workers.emplace_back([&, i, fn = std::move(fns[static_cast<std::size_t>(i)])] {
            std::uint64_t stream = o.seed ^ (0x100000001b3ULL * static_cast<std::uint64_t>(i + 1));
            telemetry::prof::testing::seed_thread(detail::mix64(stream));
            s.attach(i);
            fn();
            s.detach();
            // Park until every worker has detached: thread-exit
            // destructors (magazine flushes) must not overlap the
            // serialized phase of slower peers.
            all_done.arrive_and_wait();
        });
    }
    for (auto& w : workers) w.join();
    s.finish();
}

}  // namespace lfll::sched
