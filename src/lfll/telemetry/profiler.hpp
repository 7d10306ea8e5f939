// Always-on sampled operation profiler: phase-level latency attribution,
// a hot-key contention sketch, and the event ring — compiled into every
// build. op_scope is the one per-op event boundary.
//
// Why sampling: the §4.1 cost model (and the related retry-behaviour
// studies — see PAPERS.md) says *where* an operation's time goes —
// traversal vs CAS retries vs SafeRead vs allocation vs reclamation vs
// backoff — decides which algorithm wins under load, but per-op timing of
// every operation would dwarf the ~1 RMW/hop traversal engine it is
// meant to observe. So every Nth dictionary operation (per-thread
// xorshift gap draw, mean gap = LFLL_PROFILE_RATE, default 1024) runs
// "armed": phase timers split its latency into exclusive (self-time)
// buckets, and at completion the sample feeds
//   (a) per-phase log2 histograms in the metrics registry
//       (lfll_prof_phase_ns{phase=...}, lfll_prof_op_ns{op=...}),
//   (b) a lock-free space-saving top-K hot-key sketch with per-key
//       CAS-failure counts (and the shard, when routed via sharded_kv),
//   (c) when total latency exceeds LFLL_SLOW_OP_NS: a slow-op record —
//       full phase breakdown + a policy-health gauge snapshot — into a
//       bounded MPSC seqlock ring, dumped by the jsonl exporter,
//       rendered offline by tools/lfll_prof, and exported as a Chrome
//       trace by chrome_trace_json() (trace.hpp).
//
// The non-negotiable hot-path contract (bench-gated in CI at 3% on E7):
// an UNSAMPLED operation pays one cached-TLS-pointer load + branch and
// one countdown decrement in op_scope, and each phase_scope on its path
// costs one TLS load + branch. Nothing else. Arming, timing, sketch and
// ring traffic happen only on the 1-in-rate sampled ops. When
// LFLL_PROFILE=0 the decision is made at arm time (the countdown still
// runs), so the profiler-on and -off binaries execute the *identical*
// unsampled fast path — the CI gate therefore measures exactly the
// sampled-op work, not a code-layout delta.
//
// Phase semantics: time is attributed EXCLUSIVELY (self-time). An op
// starts in `traverse`; entering a nested phase_scope closes the current
// phase's accumulation and re-opens it on exit, so alloc-inside-traverse
// can never double-count by construction (profiler_test pins this).
//
// Concurrency: the per-op context is thread-private (no atomics). The
// sketch and the ring are shared: every field is a relaxed atomic cell
// and record consistency is a seqlock version check, so concurrent
// readers (exporter ticks, lfll_top) are TSan-clean by construction.
// The ring's claim->publish window is a typed chaos point
// (sched::step_kind::slow_capture), swept by the schedule explorer like
// every other lock-free publication window in the tree; the arming
// decision is step_kind::sample.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "lfll/primitives/test_hooks.hpp"
#include "lfll/telemetry/metrics.hpp"
#include "lfll/telemetry/op_counters.hpp"
#include "lfll/telemetry/trace.hpp"

namespace lfll::telemetry::prof {

// ------------------------------------------------------------ knobs
// Default -> environment (read once, through lfll/primitives/env.hpp)
// -> runtime override (for in-process A/B and tests).

/// Master switch (LFLL_PROFILE, default on). Consulted at arm time only.
bool enabled() noexcept;
/// Mean sampled-op gap (LFLL_PROFILE_RATE, default 1024; 1 = every op).
std::uint64_t sample_rate() noexcept;
/// Slow-op capture threshold (LFLL_SLOW_OP_NS, default 100000).
std::uint64_t slow_threshold_ns() noexcept;
/// Hot-key ranks published to the registry.
inline constexpr std::size_t topk = 10;

/// Runtime overrides; negative restores the env/compiled default.
void set_enabled_override(int v) noexcept;
void set_rate_override(std::int64_t r) noexcept;
void set_slow_ns_override(std::int64_t ns) noexcept;
/// Whether set_slow_ns_override currently pins the threshold.
bool slow_ns_overridden() noexcept;

namespace detail {

inline std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// xorshift64* step (same recurrence as primitives/rng.hpp, on raw state
/// so tests can replay the exact gap sequence).
inline std::uint64_t sample_next(std::uint64_t& s) noexcept {
    std::uint64_t x = s;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    s = x;
    return x * 0x2545F4914F6CDD1DULL;
}

/// Gap to the next sample: uniform in [1, 2*rate - 1], mean = rate.
inline std::uint64_t next_gap(std::uint64_t& s, std::uint64_t rate) noexcept {
    if (rate <= 1) return 1;
    return 1 + sample_next(s) % (2 * rate - 1);
}

// Registry handles (resolved once, out of line) and the slow-op health
// snapshot. Only touched on sampled paths.
histogram& phase_hist(phase p);
histogram& op_hist(trace_op op);
counter& sampled_counter();
counter& slow_counter();
void sample_health(std::int64_t out[4]);

}  // namespace detail

// ------------------------------------------------- hot-key sketch

/// Lock-free approximate space-saving top-K: a fixed open-addressed
/// table of (key, hits, cas_failures, shard) cells. A touch probes a
/// short window; on a full window it evicts the window's min-hits tenant
/// by CAS on the key cell, INHERITING its hit count (the space-saving
/// overestimate — a heavy hitter can never be undercounted by more than
/// the evicted minimum). Racy by design: a lost eviction race drops one
/// touch; counts are relaxed atomics, so concurrent readers are clean.
class hotkey_sketch {
public:
    static constexpr std::size_t slot_count = 128;
    static constexpr std::size_t probe_window = 8;

    struct entry {
        std::uint64_t key = 0;
        std::uint64_t hits = 0;
        std::uint64_t cas_failures = 0;
        std::int64_t shard = -1;
    };

    void touch(std::uint64_t key, std::uint64_t cas_fails, std::int64_t shard) noexcept {
        // Keys are stored +1 so 0 can mean "empty" (the all-ones key
        // aliases; acceptable for a sketch).
        const std::uint64_t ik = key + 1;
        std::uint64_t h = key * 0x9E3779B97F4A7C15ULL;
        h ^= h >> 29;
        const std::size_t base = static_cast<std::size_t>(h) % slot_count;
        slot* min_slot = nullptr;
        std::uint64_t min_hits = ~std::uint64_t{0};
        for (std::size_t i = 0; i < probe_window; ++i) {
            slot& s = slots_[(base + i) % slot_count];
            std::uint64_t cur = s.key.load(std::memory_order_relaxed);
            if (cur == 0 &&
                s.key.compare_exchange_strong(cur, ik, std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {
                bump(s, cas_fails, shard);
                return;
            }
            if (cur == ik) {  // claimed above, or already resident
                bump(s, cas_fails, shard);
                return;
            }
            const std::uint64_t hh = s.hits.load(std::memory_order_relaxed);
            if (hh < min_hits) {
                min_hits = hh;
                min_slot = &s;
            }
        }
        // Space-saving eviction: take over the window's coldest slot,
        // inheriting its count. Losing the CAS means someone else evicted
        // concurrently — drop this touch rather than loop.
        std::uint64_t expect = min_slot->key.load(std::memory_order_relaxed);
        if (expect != 0 && expect != ik &&
            min_slot->key.compare_exchange_strong(expect, ik, std::memory_order_acq_rel,
                                                  std::memory_order_relaxed)) {
            min_slot->cas_failures.store(0, std::memory_order_relaxed);
            bump(*min_slot, cas_fails, shard);
        }
    }

    /// Racy snapshot of the k heaviest entries, hits-descending.
    std::vector<entry> top(std::size_t k) const {
        std::vector<entry> out;
        out.reserve(slot_count);
        for (const slot& s : slots_) {
            const std::uint64_t ik = s.key.load(std::memory_order_relaxed);
            if (ik == 0) continue;
            out.push_back({ik - 1, s.hits.load(std::memory_order_relaxed),
                           s.cas_failures.load(std::memory_order_relaxed),
                           s.shard.load(std::memory_order_relaxed)});
        }
        std::sort(out.begin(), out.end(),
                  [](const entry& a, const entry& b) { return a.hits > b.hits; });
        if (out.size() > k) out.resize(k);
        return out;
    }

    /// Quiescent-only (tests).
    void clear() noexcept {
        for (slot& s : slots_) {
            s.key.store(0, std::memory_order_relaxed);
            s.hits.store(0, std::memory_order_relaxed);
            s.cas_failures.store(0, std::memory_order_relaxed);
            s.shard.store(-1, std::memory_order_relaxed);
        }
    }

private:
    struct slot {
        std::atomic<std::uint64_t> key{0};  ///< stored key + 1; 0 = empty
        std::atomic<std::uint64_t> hits{0};
        std::atomic<std::uint64_t> cas_failures{0};
        std::atomic<std::int64_t> shard{-1};
    };

    static void bump(slot& s, std::uint64_t cas_fails, std::int64_t shard) noexcept {
        s.hits.fetch_add(1, std::memory_order_relaxed);
        if (cas_fails != 0) s.cas_failures.fetch_add(cas_fails, std::memory_order_relaxed);
        if (shard >= 0) s.shard.store(shard, std::memory_order_relaxed);
    }

    slot slots_[slot_count];
};

/// The process-wide sketch every sampled op feeds.
inline hotkey_sketch& sketch() {
    static hotkey_sketch s;
    return s;
}

// ------------------------------------------------- slow-op ring

/// One captured slow operation: the sample's phase breakdown plus the
/// reclamation-health gauges at capture time (the question a slow op
/// always raises is "was reclamation backed up right then?").
struct slow_op_record {
    std::uint64_t ts_ns = 0;  ///< capture time (steady clock)
    std::uint64_t key = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t cas_failures = 0;
    std::uint64_t phase_ns[phase_count] = {};
    std::int64_t shard = -1;
    /// retired_backlog{hazard}, retired_backlog{epoch},
    /// free_list_depth{valois_refcount}, epoch_lag{epoch}.
    std::int64_t health[4] = {};
    std::uint32_t tid = 0;
    std::uint16_t op = 0;  ///< trace_op
};

/// Bounded MPSC-by-convention capture ring (any thread writes, exporter
/// ticks read). Writers claim a monotone ticket, mark the cell odd,
/// publish the payload as relaxed atomic words, then mark it even with
/// the ticket's unique version; a reader discards any cell whose version
/// moved across its copy (seqlock). Wraparound simply overwrites the
/// oldest record — the ring is a flight recorder, not a log.
class slow_op_ring {
public:
    // Power of two. Zero-initialised static storage: a cell costs RSS
    // only once it is written.
    static constexpr std::size_t capacity = 4096;
    static constexpr std::size_t word_count = 17;

    void push(const slow_op_record& r) noexcept {
        const std::uint64_t t = head_.fetch_add(1, std::memory_order_relaxed);
        cell& c = cells_[t & (capacity - 1)];
        c.ver.store(2 * t + 1, std::memory_order_release);  // claim (odd)
        testing_hooks::chaos_point(sched::step_kind::slow_capture);
        std::uint64_t w[word_count];
        w[0] = r.ts_ns;
        w[1] = r.key;
        w[2] = (static_cast<std::uint64_t>(r.op) << 32) | r.tid;
        w[3] = r.total_ns;
        w[4] = r.cas_failures;
        for (int i = 0; i < phase_count; ++i) w[5 + static_cast<std::size_t>(i)] = r.phase_ns[i];
        w[12] = static_cast<std::uint64_t>(r.shard);
        for (int i = 0; i < 4; ++i) w[13 + static_cast<std::size_t>(i)] =
            static_cast<std::uint64_t>(r.health[i]);
        for (std::size_t i = 0; i < word_count; ++i)
            c.w[i].store(w[i], std::memory_order_relaxed);
        c.ver.store(2 * t + 2, std::memory_order_release);  // publish (even)
    }

    /// Appends every consistent record with ticket >= `since` to `out`
    /// and returns the cursor for the next collect (the current head).
    /// Records overwritten or mid-publish are skipped, never torn.
    std::uint64_t collect(std::uint64_t since, std::vector<slow_op_record>& out) const {
        const std::uint64_t h = head_.load(std::memory_order_acquire);
        std::uint64_t lo = h > capacity ? h - capacity : 0;
        if (lo < since) lo = since;
        for (std::uint64_t t = lo; t < h; ++t) {
            const cell& c = cells_[t & (capacity - 1)];
            const std::uint64_t v = c.ver.load(std::memory_order_acquire);
            if (v != 2 * t + 2) continue;  // claimed, overwritten, or in flight
            std::uint64_t w[word_count];
            for (std::size_t i = 0; i < word_count; ++i)
                w[i] = c.w[i].load(std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (c.ver.load(std::memory_order_relaxed) != v) continue;
            slow_op_record r;
            r.ts_ns = w[0];
            r.key = w[1];
            r.op = static_cast<std::uint16_t>(w[2] >> 32);
            r.tid = static_cast<std::uint32_t>(w[2]);
            r.total_ns = w[3];
            r.cas_failures = w[4];
            for (int i = 0; i < phase_count; ++i)
                r.phase_ns[i] = w[5 + static_cast<std::size_t>(i)];
            r.shard = static_cast<std::int64_t>(w[12]);
            for (int i = 0; i < 4; ++i)
                r.health[i] = static_cast<std::int64_t>(w[13 + static_cast<std::size_t>(i)]);
            out.push_back(r);
        }
        return h;
    }

    /// Total slow ops ever pushed (tickets issued).
    std::uint64_t head() const noexcept { return head_.load(std::memory_order_relaxed); }

    /// Quiescent-only (tests).
    void clear() noexcept {
        head_.store(0, std::memory_order_relaxed);
        for (cell& c : cells_) {
            c.ver.store(0, std::memory_order_relaxed);
            for (auto& wv : c.w) wv.store(0, std::memory_order_relaxed);
        }
    }

private:
    struct cell {
        std::atomic<std::uint64_t> ver{0};
        std::atomic<std::uint64_t> w[word_count] = {};
    };
    std::atomic<std::uint64_t> head_{0};
    cell cells_[capacity];
};

/// The process-wide slow-op ring.
inline slow_op_ring& slow_ring() {
    static slow_op_ring r;
    return r;
}

// ------------------------------------------------- the op/phase scopes

namespace detail {

/// Arm this thread for one sampled op. Out of the fast path but inline
/// (not in profiler.cpp) so the `sample` chaos point compiles into
/// chaos-enabled TUs. Returns false when the profiler is disabled — the
/// countdown is refilled either way, keeping on/off fast paths identical.
inline bool arm(thread_record& t, trace_op op, std::uint64_t key) noexcept {
    if (t.rng == 0) t.rng = 0x9E3779B97F4A7C15ULL;  // reseed guard
    t.countdown = next_gap(t.rng, sample_rate());
    if (!enabled()) return false;
    testing_hooks::chaos_point(sched::step_kind::sample);
    op_ctx& c = t.ctx;
    c = op_ctx{};
    c.op = op;
    c.key = key;
    c.shard = t.shard_hint;
    t.shard_hint = -1;
    c.cas_failures0 = t.counters.cas_failures.load();
    c.t0_ns = c.phase_start_ns = now_ns();
    t.active = &c;
    return true;
}

/// Complete the sample: close the open phase, publish histograms, feed
/// the sketch, and capture a slow-op record past the threshold. Inline
/// for the same chaos-point reason (slow_ring().push carries one).
inline void finish(thread_record& t) noexcept {
    op_ctx& c = t.ctx;
    const std::uint64_t now = now_ns();
    c.phase_ns[static_cast<int>(c.cur)] += now - c.phase_start_ns;
    c.total_ns = now - c.t0_ns;
    t.active = nullptr;
    t.samples++;
    const std::uint64_t cas_fails = t.counters.cas_failures.load() - c.cas_failures0;

    sampled_counter().add(1);
    op_hist(c.op).record(c.total_ns);
    for (int i = 0; i < phase_count; ++i) {
        if (c.phase_ns[i] != 0) phase_hist(static_cast<phase>(i)).record(c.phase_ns[i]);
    }
    sketch().touch(c.key, cas_fails, c.shard);

    // A seeded thread decides without the clock, so its schedule (the
    // ring's slow_capture step) stays a function of its seed: it
    // captures only under a threshold a test pinned.
    if ((!t.seeded || slow_ns_overridden()) && c.total_ns >= slow_threshold_ns()) {
        slow_counter().add(1);
        slow_op_record r;
        r.ts_ns = now;
        r.key = c.key;
        r.total_ns = c.total_ns;
        r.cas_failures = cas_fails;
        for (int i = 0; i < phase_count; ++i) r.phase_ns[i] = c.phase_ns[i];
        r.shard = c.shard;
        sample_health(r.health);
        r.tid = t.ordinal;
        r.op = static_cast<std::uint16_t>(c.op);
        slow_ring().push(r);
    }
}

}  // namespace detail

/// Top-of-operation scope: place one at each dictionary entry point.
/// Unsampled cost: one cached-TLS load + branch, one countdown
/// decrement + branch. Nested op_scopes are inert (the outermost owns
/// the sample).
class op_scope {
public:
    op_scope(trace_op op, std::uint64_t key) noexcept {
        thread_record& t = record();
        if (t.active != nullptr) return;  // nested: outer op owns the sample
        if (--t.countdown != 0) return;   // the unsampled fast path
        if (detail::arm(t, op, key)) t_ = &t;
    }
    ~op_scope() {
        if (t_ != nullptr) detail::finish(*t_);
    }

    op_scope(const op_scope&) = delete;
    op_scope& operator=(const op_scope&) = delete;

private:
    thread_record* t_ = nullptr;
};

/// Exclusive-time phase marker: while alive, the armed op's elapsed time
/// is charged to `p` instead of the enclosing phase. Inert (one TLS load
/// + branch) when no sample is armed on this thread. Nesting restores
/// the outer phase on exit, so inner time is never double-counted.
class phase_scope {
public:
    explicit phase_scope(phase p) noexcept {
        thread_record* t = telemetry::detail::cached;
        if (t == nullptr || t->active == nullptr) return;
        c_ = t->active;
        prev_ = c_->cur;
        const std::uint64_t now = detail::now_ns();
        c_->phase_ns[static_cast<int>(prev_)] += now - c_->phase_start_ns;
        c_->cur = p;
        c_->phase_start_ns = now;
    }
    ~phase_scope() {
        if (c_ == nullptr) return;
        const std::uint64_t now = detail::now_ns();
        c_->phase_ns[static_cast<int>(c_->cur)] += now - c_->phase_start_ns;
        c_->cur = prev_;
        c_->phase_start_ns = now;
    }

    phase_scope(const phase_scope&) = delete;
    phase_scope& operator=(const phase_scope&) = delete;

private:
    op_ctx* c_ = nullptr;
    phase prev_ = phase::traverse;
};

/// Shard attribution hint: sharded_kv calls this just before delegating
/// an op, so a sample armed inside the shard's map carries the shard
/// index into the sketch and slow-op records. Consumed (and reset) at
/// arm time; a no-op until this thread's telemetry record exists.
inline void note_shard(std::int64_t shard) noexcept {
    if (thread_record* t = telemetry::detail::cached) t->shard_hint = shard;
}

// ------------------------------------------------- publication

/// Refresh the registry's published profiler series: rank-labelled
/// hot-key gauges (lfll_prof_hot_key{rank="r"} + _hits/_cas_failures/
/// _shard) from the sketch, and the slow-op backlog gauge. Called by
/// every exporter tick; cheap enough to call from tests/benches too.
void publish();

/// Append (as jsonl lines) every slow-op record captured since `*cursor`
/// and advance the cursor; used by the jsonl exporter so the slow-op log
/// interleaves with metric snapshots in one stream. lfll_top skips these
/// lines; tools/lfll_prof renders them.
void append_slow_ops_jsonl(std::string& out, std::uint64_t& cursor);

// ------------------------------------------------- kv attribution

/// One phase's registry-histogram delta over a measurement window
/// (run_kv_service fills these into kv_report; bench_e10_kv renders the
/// E10.4 table).
struct phase_stat {
    const char* phase_name = "";
    std::uint64_t count = 0;   ///< sampled ops that spent time in the phase
    std::uint64_t sum_ns = 0;  ///< total sampled ns attributed to it
    double p50_ns = 0;         ///< log2-bucket upper-bound quantiles
    double p99_ns = 0;
};

namespace detail {
/// Quantile over non-cumulative log2 buckets, mirroring
/// metric_row::quantile (bucket upper bound holding the q-th sample).
inline double quantile_from_buckets(const std::vector<std::uint64_t>& b, double q) {
    std::uint64_t total = 0;
    for (std::uint64_t n : b) total += n;
    if (total == 0) return 0;
    const auto target =
        static_cast<std::uint64_t>(q * static_cast<double>(total) + 0.5);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        cum += b[i];
        if (cum >= target && b[i] != 0)
            return static_cast<double>(histogram::bucket_bound(static_cast<int>(i)));
    }
    return static_cast<double>(histogram::bucket_bound(static_cast<int>(b.size()) - 1));
}
}  // namespace detail

/// Snapshot-delta helper: construct before a measurement window, call
/// stats() after, get each phase's count/sum/p50/p99 over the window
/// alone (the global histograms accumulate across runs).
class phase_delta {
public:
    phase_delta() {
        for (int i = 0; i < phase_count; ++i) {
            auto& h = detail::phase_hist(static_cast<phase>(i));
            before_[i] = h.buckets();
            before_sum_[i] = h.sum();
        }
    }

    std::vector<phase_stat> stats() const {
        std::vector<phase_stat> out;
        for (int i = 0; i < phase_count; ++i) {
            auto& h = detail::phase_hist(static_cast<phase>(i));
            const auto now = h.buckets();
            std::vector<std::uint64_t> delta(now.size(), 0);
            phase_stat st;
            st.phase_name = phase_name(static_cast<phase>(i));
            for (std::size_t b = 0; b < now.size(); ++b) {
                delta[b] = now[b] - before_[i][b];
                st.count += delta[b];
            }
            st.sum_ns = h.sum() - before_sum_[i];
            if (st.count != 0) {
                st.p50_ns = detail::quantile_from_buckets(delta, 0.50);
                st.p99_ns = detail::quantile_from_buckets(delta, 0.99);
            }
            out.push_back(st);
        }
        return out;
    }

private:
    std::vector<std::uint64_t> before_[phase_count];
    std::uint64_t before_sum_[phase_count] = {};
};

// ------------------------------------------------- test hooks

namespace testing {

/// Force the next op_scope on this thread to sample (countdown = 1).
inline void force_sample_next() noexcept { record().countdown = 1; }

/// Reseed this thread's gap RNG and draw a fresh countdown, so a test
/// can replay the exact sample positions with detail::next_gap.
inline void reseed(std::uint64_t seed) noexcept {
    thread_record& t = record();
    t.rng = seed != 0 ? seed : 0x9E3779B97F4A7C15ULL;
    t.countdown = detail::next_gap(t.rng, sample_rate());
}

/// Makes this thread's profiler steps a function of `seed` alone:
/// reseeds the gap RNG and stops slow capture from reading the clock
/// unless set_slow_ns_override pins the threshold. sched::run calls it
/// on every session worker.
inline void seed_thread(std::uint64_t seed) noexcept {
    reseed(seed);
    record().seeded = true;
}

/// Samples completed on this thread since it first touched the profiler.
inline std::uint64_t thread_sample_count() noexcept { return record().samples; }

/// The last completed sample's context (valid when thread_sample_count()
/// > 0 and no op is currently armed).
inline const op_ctx& last_sample() noexcept { return record().ctx; }

}  // namespace testing

}  // namespace lfll::telemetry::prof
