// Deterministic, replayable cooperative scheduler for concurrency tests.
//
// The legacy chaos hook was a self-seeded ~3% random yield: it found
// bugs only by luck and could never reproduce them. This subsystem
// replaces it with a seeded scheduler in the PCT family (Burckhardt et
// al., "A Randomized Scheduler with Probabilistic Guarantees of Finding
// Bugs"): a test session registers N worker threads, the scheduler
// assigns each a distinct random priority and samples `change_points`
// priority-change steps, and execution is then *serialized* — exactly
// one attached thread runs at any instant, and control is handed over
// only at annotated chaos points (testing_hooks::chaos_point(kind)).
// Because the whole interleaving is a pure function of the seed, any
// failure replays exactly: rerun with LFLL_SCHED_REPLAY=<seed>.
//
// Two exploration modes:
//   * pct         — classic PCT: highest priority runs until one of the
//                   sampled change points demotes it below everyone else.
//                   Few, adversarially placed context switches.
//   * random_walk — a uniformly random attached thread is chosen at
//                   every step. Many context switches; explores dense
//                   neighborhoods the PCT schedule skips.
//
// Threads that are NOT attached to a session (including every thread
// when no session is active — e.g. the legacy chaos stress tests) fall
// back to the old probabilistic yield, but seeded from the global
// schedule seed and a process-wide thread ordinal instead of a stack
// address, so even the fallback is stable across runs and ASLR.
//
// Invariant required of annotation sites: a chaos point must never be
// reached while holding a library-internal mutex (pool growth, the
// magazine registry). All sites added by this subsystem respect that;
// the watchdog below turns any future violation into a loud abort with
// replay instructions rather than a silent CI hang.
#pragma once

#include <algorithm>
#include <atomic>
#include <array>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "lfll/primitives/env.hpp"
#include "lfll/sched/step.hpp"

namespace lfll::sched {

enum class mode : std::uint8_t { pct, random_walk };

constexpr const char* mode_name(mode m) noexcept {
    return m == mode::pct ? "pct" : "random_walk";
}

struct options {
    std::uint64_t seed = 1;
    mode sched_mode = mode::pct;
    /// Number of PCT priority-change points (d-1 in the paper's d-depth
    /// terminology). Ignored by random_walk.
    int change_points = 3;
    /// Change-point steps are sampled uniformly from [1, change_horizon].
    std::uint64_t change_horizon = 2048;
    /// Hard cap on serialized steps per session; 0 = unlimited. A session
    /// exceeding it aborts with replay instructions (runaway schedule).
    std::uint64_t max_steps = 0;
    /// How long an attached thread may wait to be scheduled before the
    /// session is declared deadlocked (aborts with replay instructions).
    std::chrono::milliseconds watchdog{30000};
    /// Record the full (thread, kind) step trace; read it back after the
    /// session with scheduler::trace(). Used by the determinism tests.
    bool record_trace = false;
};

struct trace_event {
    std::uint16_t thread;
    step_kind kind;

    friend bool operator==(const trace_event& a, const trace_event& b) noexcept {
        return a.thread == b.thread && a.kind == b.kind;
    }
};

namespace detail {

/// SplitMix64 step — local copy so this header stays free of the
/// workload-RNG header (which hot paths must not pull in transitively).
inline std::uint64_t mix64(std::uint64_t& x) noexcept {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Attached-state of the calling thread: index within the current
/// session, or -1. Thread-local, so unattached threads (gtest's main
/// thread, thread-exit destructors) bypass serialization entirely.
inline int& tls_slot() noexcept {
    thread_local int slot = -1;
    return slot;
}

/// Process-wide ordinal for the fallback RNG streams: each thread's
/// first fallback chaos point claims the next ordinal. Deterministic
/// whenever thread start order is (and never address-dependent).
inline std::atomic<std::uint32_t>& fallback_ordinal() noexcept {
    static std::atomic<std::uint32_t> n{0};
    return n;
}

}  // namespace detail

/// LFLL_SCHED_REPLAY=<seed>: replay exactly one schedule. Exploration
/// tests check this first and, when set, run only that seed.
inline std::optional<std::uint64_t> replay_seed_from_env() noexcept {
    static const std::optional<std::uint64_t> seed = env::integer("LFLL_SCHED_REPLAY");
    return seed;
}

/// The process-wide chaos seed used by unattached (fallback) threads:
/// LFLL_SCHED_REPLAY, else LFLL_SCHED_SEED, else a fixed constant.
/// set_chaos_seed() overrides (tests); affects streams created after it.
inline std::atomic<std::uint64_t>& chaos_seed_word() noexcept {
    static std::atomic<std::uint64_t> w{[] {
        if (auto r = replay_seed_from_env()) return *r;
        if (auto s = env::integer("LFLL_SCHED_SEED")) return *s;
        return std::uint64_t{0x9e3779b97f4a7c15ULL};
    }()};
    return w;
}

inline void set_chaos_seed(std::uint64_t s) noexcept {
    chaos_seed_word().store(s, std::memory_order_relaxed);
}

inline std::uint64_t chaos_seed() noexcept {
    return chaos_seed_word().load(std::memory_order_relaxed);
}

class scheduler {
public:
    static scheduler& instance() {
        static scheduler s;
        return s;
    }

    // --- controller side --------------------------------------------------

    /// Arms a session for `nthreads` workers. No worker runs user code
    /// until all of them have attached (so registration order cannot
    /// perturb the schedule). Must not be called while a session is
    /// active.
    void begin(const options& o, int nthreads) {
        std::lock_guard lk(mu_);
        assert(!active_ && "sched::scheduler: begin() inside an active session");
        assert(nthreads > 0);
        opt_ = o;
        nthreads_ = nthreads;
        attached_ = 0;
        live_ = 0;
        current_ = -1;
        step_count_ = 0;
        next_change_ = 0;
        next_change_pri_ = -1;
        rng_ = o.seed;
        kind_counts_.fill(0);
        trace_.clear();
        threads_.assign(static_cast<std::size_t>(nthreads), thread_state{});
        // PCT base priorities: a seeded random permutation of
        // [k+1, k+n], strictly above every change-point priority.
        std::vector<std::int64_t> base(static_cast<std::size_t>(nthreads));
        for (int i = 0; i < nthreads; ++i) {
            base[static_cast<std::size_t>(i)] = opt_.change_points + 1 + i;
        }
        for (int i = nthreads - 1; i > 0; --i) {
            const auto j = static_cast<std::size_t>(
                detail::mix64(rng_) % static_cast<std::uint64_t>(i + 1));
            std::swap(base[static_cast<std::size_t>(i)], base[j]);
        }
        for (int i = 0; i < nthreads; ++i) {
            threads_[static_cast<std::size_t>(i)].priority = base[static_cast<std::size_t>(i)];
        }
        // Change-point steps, sorted ascending, duplicates allowed to
        // collapse (firing twice on one step is a no-op anyway).
        change_steps_.clear();
        for (int i = 0; i < opt_.change_points; ++i) {
            change_steps_.push_back(1 + detail::mix64(rng_) % opt_.change_horizon);
        }
        std::sort(change_steps_.begin(), change_steps_.end());
        active_ = true;
    }

    /// Tears the session down. All workers must have detached (the
    /// controller joins them first).
    void finish() {
        std::lock_guard lk(mu_);
        assert(active_ && "sched::scheduler: finish() without begin()");
        assert(live_ == 0 && attached_ == nthreads_ &&
               "sched::scheduler: finish() with workers still attached");
        active_ = false;
    }

    bool session_active() const {
        std::lock_guard lk(mu_);
        return active_;
    }

    /// Seed of the current (or last) session.
    std::uint64_t session_seed() const {
        std::lock_guard lk(mu_);
        return opt_.seed;
    }

    /// Serialized steps executed in the current (or last) session.
    std::uint64_t steps() const {
        std::lock_guard lk(mu_);
        return step_count_;
    }

    std::uint64_t kind_count(step_kind k) const {
        std::lock_guard lk(mu_);
        return kind_counts_[static_cast<std::size_t>(k)];
    }

    /// The recorded step trace (options.record_trace). Stable only after
    /// finish().
    std::vector<trace_event> trace() const {
        std::lock_guard lk(mu_);
        return trace_;
    }

    // --- worker side ------------------------------------------------------

    /// Worker `id` announces itself and blocks until every worker has
    /// attached AND the scheduler picks it. Pairs with detach().
    void attach(int id) {
        std::unique_lock lk(mu_);
        assert(active_ && id >= 0 && id < nthreads_);
        thread_state& t = threads_[static_cast<std::size_t>(id)];
        assert(!t.attached && "sched::scheduler: slot attached twice");
        t.attached = true;
        detail::tls_slot() = id;
        ++attached_;
        ++live_;
        if (attached_ == nthreads_) {
            schedule_next(lk);
        }
        wait_for_turn(lk, id);
    }

    /// Worker is done: hand the token to the next runnable thread.
    void detach() {
        std::unique_lock lk(mu_);
        const int me = detail::tls_slot();
        assert(me >= 0 && "sched::scheduler: detach() from unattached thread");
        threads_[static_cast<std::size_t>(me)].finished = true;
        detail::tls_slot() = -1;
        --live_;
        current_ = -1;
        if (live_ > 0) schedule_next(lk);
        cv_.notify_all();
    }

    /// The serialization point. Attached threads may switch here; every
    /// other thread takes the seeded probabilistic fallback.
    void yield(step_kind k) {
        const int me = detail::tls_slot();
        if (me < 0) {
            fallback_yield(k);
            return;
        }
        std::unique_lock lk(mu_);
        ++step_count_;
        ++kind_counts_[static_cast<std::size_t>(k)];
        if (opt_.record_trace) {
            trace_.push_back({static_cast<std::uint16_t>(me), k});
        }
        if (opt_.max_steps != 0 && step_count_ > opt_.max_steps) {
            die("step budget exhausted (schedule runaway?)");
        }
        if (opt_.sched_mode == mode::pct) {
            // Fire any change point scheduled at this step: demote the
            // running thread below everyone scheduled-so-far.
            while (next_change_ < change_steps_.size() &&
                   change_steps_[next_change_] <= step_count_) {
                threads_[static_cast<std::size_t>(me)].priority = next_change_pri_--;
                ++next_change_;
            }
        }
        current_ = -1;
        schedule_next(lk);
        wait_for_turn(lk, me);
    }

    // --- fallback (unattached / legacy) -----------------------------------

    /// The legacy ~3% probabilistic yield, re-seeded from the schedule
    /// seed and a process-wide thread ordinal (never a stack address).
    static void fallback_yield(step_kind) noexcept {
        thread_local std::uint64_t state = 0;
        if (state == 0) {
            std::uint64_t s =
                chaos_seed() ^
                (0x100000001b3ULL *
                 (1 + detail::fallback_ordinal().fetch_add(1, std::memory_order_relaxed)));
            state = detail::mix64(s) | 1;
        }
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if ((state & 0x1f) == 0) std::this_thread::yield();
    }

private:
    struct thread_state {
        bool attached = false;
        bool finished = false;
        std::int64_t priority = 0;
    };

    /// Picks the next thread to run among attached, unfinished workers.
    /// Caller holds mu_ and has cleared current_ (or is in attach before
    /// the session starts running).
    void schedule_next(std::unique_lock<std::mutex>&) {
        int pick = -1;
        if (opt_.sched_mode == mode::random_walk) {
            const auto n = static_cast<std::uint64_t>(live_);
            auto target = detail::mix64(rng_) % n;
            for (int i = 0; i < nthreads_; ++i) {
                const thread_state& t = threads_[static_cast<std::size_t>(i)];
                if (!t.attached || t.finished) continue;
                if (target-- == 0) {
                    pick = i;
                    break;
                }
            }
        } else {
            std::int64_t best = 0;
            for (int i = 0; i < nthreads_; ++i) {
                const thread_state& t = threads_[static_cast<std::size_t>(i)];
                if (!t.attached || t.finished) continue;
                if (pick < 0 || t.priority > best) {
                    pick = i;
                    best = t.priority;
                }
            }
        }
        assert(pick >= 0);
        current_ = pick;
        cv_.notify_all();
    }

    void wait_for_turn(std::unique_lock<std::mutex>& lk, int me) {
        while (current_ != me) {
            if (cv_.wait_for(lk, opt_.watchdog) == std::cv_status::timeout &&
                current_ != me) {
                die("watchdog expired waiting to be scheduled (deadlock?)");
            }
        }
    }

    [[noreturn]] void die(const char* why) {
        std::fprintf(stderr,
                     "[lfll-sched] FATAL: %s\n"
                     "[lfll-sched]   seed=%llu mode=%s step=%llu threads=%d live=%d\n"
                     "[lfll-sched]   replay with: LFLL_SCHED_REPLAY=%llu\n",
                     why, static_cast<unsigned long long>(opt_.seed),
                     mode_name(opt_.sched_mode),
                     static_cast<unsigned long long>(step_count_), nthreads_, live_,
                     static_cast<unsigned long long>(opt_.seed));
        std::abort();
    }

    mutable std::mutex mu_;
    std::condition_variable cv_;
    options opt_{};
    bool active_ = false;
    int nthreads_ = 0;
    int attached_ = 0;
    int live_ = 0;
    int current_ = -1;
    std::uint64_t rng_ = 1;
    std::uint64_t step_count_ = 0;
    std::size_t next_change_ = 0;
    std::int64_t next_change_pri_ = -1;
    std::vector<std::uint64_t> change_steps_;
    std::vector<thread_state> threads_;
    std::vector<trace_event> trace_;
    std::array<std::uint64_t, step_kind_count> kind_counts_{};
};

/// The hook target: test_hooks::chaos_point(kind) lands here in chaos
/// builds. Attached threads serialize; everyone else takes the seeded
/// fallback.
inline void on_chaos_point(step_kind k) noexcept {
    if (detail::tls_slot() >= 0) {
        scheduler::instance().yield(k);
    } else {
        scheduler::fallback_yield(k);
    }
}

}  // namespace lfll::sched
