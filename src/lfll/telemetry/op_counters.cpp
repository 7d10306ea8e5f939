#include "lfll/telemetry/op_counters.hpp"

#include <mutex>
#include <vector>

#include "lfll/telemetry/profiler.hpp"

namespace lfll {

op_counters& op_counters::operator+=(const op_counters& o) noexcept {
    safe_reads += o.safe_reads;
    saferead_retries += o.saferead_retries;
    cas_attempts += o.cas_attempts;
    cas_failures += o.cas_failures;
    insert_retries += o.insert_retries;
    delete_retries += o.delete_retries;
    aux_hops += o.aux_hops;
    aux_compactions += o.aux_compactions;
    cells_traversed += o.cells_traversed;
    nodes_allocated += o.nodes_allocated;
    nodes_reclaimed += o.nodes_reclaimed;
    traverse_hops += o.traverse_hops;
    traverse_fast_hops += o.traverse_fast_hops;
    batch_fallbacks += o.batch_fallbacks;
    deferred_flushes += o.deferred_flushes;
    return *this;
}

op_counters op_counters_tls::read() const noexcept {
    op_counters v;
    v.safe_reads = safe_reads.load();
    v.saferead_retries = saferead_retries.load();
    v.cas_attempts = cas_attempts.load();
    v.cas_failures = cas_failures.load();
    v.insert_retries = insert_retries.load();
    v.delete_retries = delete_retries.load();
    v.aux_hops = aux_hops.load();
    v.aux_compactions = aux_compactions.load();
    v.cells_traversed = cells_traversed.load();
    v.nodes_allocated = nodes_allocated.load();
    v.nodes_reclaimed = nodes_reclaimed.load();
    v.traverse_hops = traverse_hops.load();
    v.traverse_fast_hops = traverse_fast_hops.load();
    v.batch_fallbacks = batch_fallbacks.load();
    return v;
}

void op_counters_tls::clear() noexcept {
    safe_reads.clear();
    saferead_retries.clear();
    cas_attempts.clear();
    cas_failures.clear();
    insert_retries.clear();
    delete_retries.clear();
    aux_hops.clear();
    aux_compactions.clear();
    cells_traversed.clear();
    nodes_allocated.clear();
    nodes_reclaimed.clear();
    traverse_hops.clear();
    traverse_fast_hops.clear();
    batch_fallbacks.clear();
}

namespace telemetry {
namespace {

struct record_registry {
    std::mutex mu;
    std::vector<op_counters_tls*> live;
    op_counters retired;  // folded-in totals of exited threads

    static record_registry& get() {
        static record_registry r;
        return r;
    }
};

// Registers on first use in a thread; folds into `retired` on thread exit.
struct record_slot {
    thread_record r;

    record_slot() {
        static std::atomic<std::uint32_t> next_ordinal{0};
        r.ordinal = next_ordinal.fetch_add(1, std::memory_order_relaxed);
        // splitmix64 of the ordinal: distinct nonzero stream per thread.
        std::uint64_t z = (static_cast<std::uint64_t>(r.ordinal) + 1) * 0x9E3779B97F4A7C15ULL;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        r.rng = z != 0 ? z : 0x9E3779B97F4A7C15ULL;
        r.countdown = prof::detail::next_gap(r.rng, prof::sample_rate());
        auto& reg = record_registry::get();
        std::lock_guard lk(reg.mu);
        reg.live.push_back(&r.counters);
    }

    ~record_slot() {
        detail::cached = nullptr;  // late record() calls take the slow path
        auto& reg = record_registry::get();
        std::lock_guard lk(reg.mu);
        reg.retired += r.counters.read();
        std::erase(reg.live, &r.counters);
    }
};

}  // namespace

thread_record& detail::record_slow() {
    thread_local record_slot slot;
    // Post-destruction calls (thread-exit cascades) land here again and
    // return the dead slot's storage: plain atomic cells, already
    // unregistered, so late increments are dropped, never raced.
    detail::cached = &slot.r;
    return slot.r;
}

}  // namespace telemetry

namespace instrument {

op_counters snapshot() {
    auto& r = telemetry::record_registry::get();
    std::lock_guard lk(r.mu);
    op_counters total = r.retired;
    for (const op_counters_tls* c : r.live) total += c->read();
    return total;
}

void reset() {
    auto& r = telemetry::record_registry::get();
    std::lock_guard lk(r.mu);
    r.retired = {};
    for (op_counters_tls* c : r.live) c->clear();
}

}  // namespace instrument
}  // namespace lfll
