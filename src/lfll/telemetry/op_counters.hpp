// Per-thread telemetry record: the op counters (the telemetry registry's
// hot-path counter backend) and the sampled profiler's per-thread state
// share one thread_local record, one cached pointer to it, and one
// registration and thread-exit path.
//
// The paper's §4.1 performance claims are stated in terms of *extra work* —
// retried TryInsert/TryDelete calls and auxiliary-node hops — which are
// hardware-independent quantities. Benchmarks E3-E6 report these counters,
// so the library increments them on the relevant paths.
//
// Concurrency contract: each counter cell is written by exactly ONE thread
// (its owner) and read by any thread. Cells are std::atomic<uint64_t>, but
// the owner's increment is a relaxed load + relaxed store — a single plain
// add on x86/ARM, the same codegen as the old non-atomic fields — not an
// atomic RMW. Concurrent snapshot() calls are therefore well-defined (and
// TSan-clean): they observe each cell at some recent relaxed value. Totals
// are only *exact* when mutators are quiescent; mid-run snapshots are
// monotone approximations, which is what the periodic exporters want.
// The profiler fields are thread-private: only the owner touches them.
#pragma once

#include <atomic>
#include <cstdint>

#include "lfll/telemetry/trace.hpp"

namespace lfll {

/// Single-writer counter cell: one owning thread increments, anyone reads.
class owned_counter_cell {
public:
    /// Owner-thread increment: relaxed load + store, one add when compiled.
    void operator++(int) noexcept { add(1); }
    owned_counter_cell& operator+=(std::uint64_t n) noexcept {
        add(n);
        return *this;
    }
    void add(std::uint64_t n) noexcept {
        v_.store(v_.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    }

    /// Any-thread read.
    std::uint64_t load() const noexcept { return v_.load(std::memory_order_relaxed); }

    /// Owner-thread (or quiescent) reset.
    void clear() noexcept { v_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> v_{0};
};

/// Plain value snapshot of the op counters (copyable; what snapshot(),
/// benchmark deltas, and run_result carry).
struct op_counters {
    std::uint64_t safe_reads = 0;       ///< SafeRead invocations
    std::uint64_t saferead_retries = 0; ///< SafeRead revalidation failures
    std::uint64_t cas_attempts = 0;     ///< pointer-swing CAS attempts
    std::uint64_t cas_failures = 0;     ///< pointer-swing CAS failures
    std::uint64_t insert_retries = 0;   ///< TryInsert calls that returned false
    std::uint64_t delete_retries = 0;   ///< TryDelete calls that returned false
    std::uint64_t aux_hops = 0;         ///< auxiliary nodes traversed by Update
    std::uint64_t aux_compactions = 0;  ///< adjacent-aux chains collapsed
    std::uint64_t cells_traversed = 0;  ///< normal cells visited by FindFrom
    std::uint64_t nodes_allocated = 0;  ///< pool Alloc calls
    std::uint64_t nodes_reclaimed = 0;  ///< pool Reclaim calls
    std::uint64_t traverse_hops = 0;       ///< cells (or Last) a hop read, every superhop copy included
    std::uint64_t traverse_fast_hops = 0;  ///< hops that took the elided-aux fast path
    std::uint64_t batch_fallbacks = 0;     ///< superhops abandoned for the per-cell hop
    std::uint64_t deferred_flushes = 0;    ///< always 0: the deferred-release buffer is gone; no cell feeds it

    op_counters& operator+=(const op_counters& o) noexcept;
};

/// The per-thread mutable counters (op_counters' fields but the always-0
/// deferred_flushes, each a single-writer atomic cell).
struct op_counters_tls {
    owned_counter_cell safe_reads;
    owned_counter_cell saferead_retries;
    owned_counter_cell cas_attempts;
    owned_counter_cell cas_failures;
    owned_counter_cell insert_retries;
    owned_counter_cell delete_retries;
    owned_counter_cell aux_hops;
    owned_counter_cell aux_compactions;
    owned_counter_cell cells_traversed;
    owned_counter_cell nodes_allocated;
    owned_counter_cell nodes_reclaimed;
    owned_counter_cell traverse_hops;
    owned_counter_cell traverse_fast_hops;
    owned_counter_cell batch_fallbacks;

    /// Relaxed read of every cell into a plain value.
    op_counters read() const noexcept;
    void clear() noexcept;
};

namespace telemetry {

namespace prof {
/// The armed op's accumulator (profiler.hpp); reused across samples.
struct op_ctx {
    std::uint64_t t0_ns = 0;
    std::uint64_t phase_start_ns = 0;
    std::uint64_t key = 0;
    std::uint64_t cas_failures0 = 0;
    std::uint64_t total_ns = 0;  ///< set when the sample completes
    std::uint64_t phase_ns[phase_count] = {};
    std::int64_t shard = -1;
    trace_op op = trace_op::other;
    phase cur = phase::traverse;
};
}  // namespace prof

/// Everything telemetry keeps per thread.
struct thread_record {
    op_counters_tls counters;
    // Sampled-profiler state (profiler.hpp).
    std::uint64_t countdown = 1;   ///< ops until the next sample
    std::uint64_t rng = 0;         ///< xorshift64* gap-draw state
    std::uint64_t samples = 0;     ///< samples completed on this thread
    std::int64_t shard_hint = -1;  ///< set by sharded_kv, consumed at arm
    std::uint32_t ordinal = 0;     ///< stable thread id for event records
    bool seeded = false;           ///< a sched session worker (seed_thread)
    prof::op_ctx* active = nullptr;  ///< non-null while a sampled op runs
    prof::op_ctx ctx;
};

namespace detail {
/// Registers this thread's record (out of line; takes the registry lock
/// once, seeds the sampler) and primes `cached` for the fast path below.
thread_record& record_slow();
/// Plain trivially-destructible thread_local pointer: unlike the record
/// itself it needs no init-guard check, so the steady-state record()
/// access compiles to one TLS load + branch. Nulled when the record is
/// destroyed at thread exit (late calls fall back to record_slow).
inline thread_local thread_record* cached = nullptr;
}  // namespace detail

/// This thread's record. After the first call in a thread this is an
/// inline TLS pointer load.
inline thread_record& record() {
    if (thread_record* p = detail::cached) return *p;
    return detail::record_slow();
}

}  // namespace telemetry

namespace instrument {

/// This thread's counters. Cheap enough to call on hot paths: after the
/// first call in a thread this is an inline TLS pointer load.
inline op_counters_tls& tls() { return telemetry::record().counters; }

/// Sum of all counters: live threads' current values plus totals from
/// threads that have exited. Exact when mutators are quiescent; a monotone
/// approximation otherwise (always well-defined — see header comment).
op_counters snapshot();

/// Reset every registered thread's counters and the retired total.
/// Only call while mutators are quiescent (a concurrent owner increment
/// may survive or be lost; never a data race).
void reset();

}  // namespace instrument
}  // namespace lfll
