#include "lfll/telemetry/op_counters.hpp"

#include <mutex>
#include <vector>

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
    traverse_prefetches += o.traverse_prefetches;
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
    v.traverse_prefetches = traverse_prefetches.load();
    v.deferred_flushes = deferred_flushes.load();
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
    traverse_prefetches.clear();
    deferred_flushes.clear();
}

namespace instrument {
namespace {

struct registry {
    std::mutex mu;
    std::vector<const op_counters_tls*> live;
    op_counters retired;  // folded-in totals of exited threads

    static registry& get() {
        static registry r;
        return r;
    }
};

// Registers on first use in a thread; folds into `retired` on thread exit.
struct tls_slot {
    op_counters_tls counters;

    tls_slot() {
        auto& r = registry::get();
        std::lock_guard lk(r.mu);
        r.live.push_back(&counters);
    }

    ~tls_slot() {
        detail::cached = nullptr;  // late tls() calls take the slow path
        auto& r = registry::get();
        std::lock_guard lk(r.mu);
        r.retired += counters.read();
        std::erase(r.live, &counters);
    }
};

}  // namespace

op_counters_tls& detail::tls_slow() {
    thread_local tls_slot slot;
    // Post-destruction calls (thread-exit cascades) land here again and
    // return the dead slot's storage — same benign behavior as before the
    // cached fast path existed (plain atomic cells; already unregistered).
    detail::cached = &slot.counters;
    return slot.counters;
}

op_counters snapshot() {
    auto& r = registry::get();
    std::lock_guard lk(r.mu);
    op_counters total = r.retired;
    for (const op_counters_tls* c : r.live) total += c->read();
    return total;
}

void reset() {
    auto& r = registry::get();
    std::lock_guard lk(r.mu);
    r.retired = {};
    for (const op_counters_tls* c : r.live) {
        const_cast<op_counters_tls*>(c)->clear();
    }
}

}  // namespace instrument
}  // namespace lfll
