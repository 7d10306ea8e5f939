// Per-thread operation counters — the telemetry registry's hot-path
// counter backend.
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
//
// (Historically lfll/primitives/instrument.hpp; absorbed into telemetry/
// as the registry's counter backend. The old header forwards here.)
#pragma once

#include <atomic>
#include <cstdint>

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
    std::uint64_t traverse_prefetches = 0; ///< next->next software prefetches issued
    std::uint64_t deferred_flushes = 0;    ///< always 0: the deferred-release buffer is gone

    op_counters& operator+=(const op_counters& o) noexcept;
};

/// The per-thread mutable counters (same field names as op_counters, but
/// each field is a single-writer atomic cell).
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
    owned_counter_cell traverse_prefetches;
    owned_counter_cell deferred_flushes;

    /// Relaxed read of every cell into a plain value.
    op_counters read() const noexcept;
    void clear() noexcept;
};

namespace instrument {

namespace detail {
/// Registers this thread's counter slot (out of line; takes the registry
/// lock once) and primes `cached` for the fast path below.
op_counters_tls& tls_slow();
/// Plain trivially-destructible thread_local pointer: unlike the slot
/// itself it needs no init-guard check, so the steady-state tls() access
/// compiles to one TLS load + branch. Nulled when the slot is destroyed
/// at thread exit (late calls fall back to tls_slow).
inline thread_local op_counters_tls* cached = nullptr;
}  // namespace detail

/// This thread's counters. Cheap enough to call on hot paths: after the
/// first call in a thread this is an inline TLS pointer load.
inline op_counters_tls& tls() {
    if (op_counters_tls* p = detail::cached) return *p;
    return detail::tls_slow();
}

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
