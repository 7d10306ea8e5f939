#include "lfll/reclaim/hazard_pointers.hpp"

#include <algorithm>
#include <cassert>

#include "lfll/telemetry/metrics.hpp"

namespace lfll {
namespace {

// Health gauges, shared by every hazard_domain in the process (last
// sampled instance wins — ticker-grade telemetry). Occupancy is sampled
// inside scan(), which already reads every slot, so the gauge costs the
// hot path nothing.
telemetry::gauge& backlog_gauge() {
    static telemetry::gauge& g = telemetry::registry::global().get_gauge(
        "lfll_retired_backlog", "policy=\"hazard\"");
    return g;
}
telemetry::gauge& occupancy_gauge() {
    static telemetry::gauge& g = telemetry::registry::global().get_gauge(
        "lfll_hazard_slots_occupied", "policy=\"hazard\"");
    return g;
}
telemetry::gauge& groups_gauge() {
    static telemetry::gauge& g = telemetry::registry::global().get_gauge(
        "lfll_hazard_groups_occupied", "policy=\"hazard\"");
    return g;
}
telemetry::counter& drained_counter() {
    static telemetry::counter& c = telemetry::registry::global().get_counter(
        "lfll_drain_freed_total", "policy=\"hazard\"");
    return c;
}

}  // namespace

hazard_domain::hazard_domain(int max_threads, std::size_t scan_threshold)
    : groups_(static_cast<std::size_t>(max_threads)), scan_threshold_(scan_threshold) {
    // Build the slot-group free list.
    for (int g = static_cast<int>(groups_.size()) - 1; g >= 0; --g) {
        for (auto& h : groups_[g].hp) h.store(nullptr, std::memory_order_relaxed);
        groups_[g].next_free.store(head_index(free_head_.load(std::memory_order_relaxed)),
                                   std::memory_order_relaxed);
        free_head_.store(pack_head(g, 0), std::memory_order_relaxed);
    }
}

hazard_domain::~hazard_domain() {
    // Callbacks may cascade-retire while we sweep; loop until dry.
    while (retired_count() > 0) drain();
}

int hazard_domain::acquire_group() {
    for (;;) {
        std::uint64_t head = free_head_.load(std::memory_order_acquire);
        const std::int32_t idx = head_index(head);
        assert(idx >= 0 && "hazard_domain: more concurrent pins than max_threads");
        const std::int32_t next =
            groups_[static_cast<std::size_t>(idx)].next_free.load(std::memory_order_acquire);
        if (free_head_.compare_exchange_weak(head, pack_head(next, head_tag(head) + 1),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
            return idx;
        }
    }
}

void hazard_domain::release_group(int g) {
    std::uint64_t head = free_head_.load(std::memory_order_acquire);
    do {
        groups_[static_cast<std::size_t>(g)].next_free.store(head_index(head),
                                                             std::memory_order_release);
    } while (!free_head_.compare_exchange_weak(head, pack_head(g, head_tag(head) + 1),
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire));
}

void hazard_domain::publish(int group, int slot, void* p) noexcept {
    // seq_cst: the store must be ordered before the revalidation load in
    // protect(), and visible to any retirer's scan.
    groups_[group].hp[slot].store(p, std::memory_order_seq_cst);
}

void hazard_domain::clear_slot(int group, int slot) noexcept {
    groups_[group].hp[slot].store(nullptr, std::memory_order_release);
}

hazard_domain::pin::pin(hazard_domain& d) : dom_(d), group_(d.acquire_group()) {}

hazard_domain::pin::~pin() {
    clear_all();
    // The group's retired list stays with the group; whoever claims it next
    // inherits the backlog, and the destructor/drain sweeps leftovers.
    dom_.release_group(group_);
}

void hazard_domain::pin::set(int slot, void* p) noexcept { dom_.publish(group_, slot, p); }

void hazard_domain::pin::clear(int slot) noexcept { dom_.clear_slot(group_, slot); }

void hazard_domain::pin::clear_all() noexcept {
    for (int i = 0; i < slots_per_thread; ++i) clear(i);
}

void hazard_domain::pin::retire(void* p, void (*deleter)(void*)) {
    dom_.retire_impl(group_, {p, deleter, nullptr, nullptr});
}

void hazard_domain::retire_with(int group, void* p, void (*fn)(void*, void*), void* ctx) {
    retire_impl(group, {p, nullptr, fn, ctx});
}

void hazard_domain::retire_impl(int group, retired_node r) {
    auto& g = groups_[group];
    bool threshold;
    {
        std::lock_guard lk(g.mu);
        g.retired.push_back(r);
        threshold = g.retired.size() >= scan_threshold_;
    }
    const std::size_t total = retired_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    backlog_gauge().set(static_cast<std::int64_t>(total));
    if (threshold) scan(g);
}

std::size_t hazard_domain::scan(slot_group& g) {
    // Callbacks may retire further nodes into this very group (a pool
    // reclamation drops the node's links, which can take other counts to
    // zero). Latch against recursive and concurrent scans and move the
    // work list out so such retires land in a fresh vector instead of
    // invalidating our iteration; anything new is picked up by a later
    // scan. g.mu is held only around the vector moves, never across the
    // callbacks — a callback's cascaded retire_impl takes it again.
    {
        std::lock_guard lk(g.mu);
        if (g.scanning) return 0;
        g.scanning = true;
    }
    std::size_t total_freed = 0;
    std::vector<retired_node> work;
    std::vector<retired_node> keep;
    std::vector<void*> hazards;
    // Loop while freeing makes progress: a reclaimed node's dropped links
    // can retire its successors one at a time (the queue's dummy chain is
    // exactly this shape), and each round picks up what the previous
    // round's callbacks banked.
    for (;;) {
        work.clear();
        {
            std::lock_guard lk(g.mu);
            work.swap(g.retired);
        }
        if (work.empty()) break;

        hazards.clear();
        hazards.reserve(groups_.size() * slots_per_thread);
        std::size_t occupied_groups = 0;
        for (const auto& grp : groups_) {
            const std::size_t before = hazards.size();
            for (const auto& h : grp.hp) {
                void* p = h.load(std::memory_order_seq_cst);
                if (p != nullptr) hazards.push_back(p);
            }
            if (hazards.size() != before) ++occupied_groups;
        }
        // The scan already paid for every slot load, so occupancy is a
        // free sample at exactly the drain boundary the ISSUE asks for.
        occupancy_gauge().set(static_cast<std::int64_t>(hazards.size()));
        groups_gauge().set(static_cast<std::int64_t>(occupied_groups));
        std::sort(hazards.begin(), hazards.end());

        std::size_t freed = 0;
        keep.clear();
        keep.reserve(work.size());
        for (const retired_node& r : work) {
            if (std::binary_search(hazards.begin(), hazards.end(), r.ptr)) {
                keep.push_back(r);
            } else {
                if (r.fn != nullptr)
                    r.fn(r.ctx, r.ptr);
                else
                    r.deleter(r.ptr);
                retired_total_.fetch_sub(1, std::memory_order_relaxed);
                ++freed;
            }
        }
        {
            std::lock_guard lk(g.mu);
            g.retired.insert(g.retired.end(), keep.begin(), keep.end());
        }
        total_freed += freed;
        if (freed == 0) break;
    }
    if (total_freed > 0) {
        drained_counter().add(total_freed);
        backlog_gauge().set(
            static_cast<std::int64_t>(retired_total_.load(std::memory_order_relaxed)));
    }
    {
        std::lock_guard lk(g.mu);
        g.scanning = false;
    }
    return total_freed;
}

void hazard_domain::drain() {
    // A reclamation callback can cascade-retire into a *different* group
    // (the freeing thread's transient checkout), so one pass over the
    // groups is not enough — and a cascade keeps retired_count() constant
    // while real work happens, so progress is measured in nodes freed.
    // Hazard-covered leftovers make a full sweep free nothing, ending the
    // loop.
    for (;;) {
        std::size_t freed = 0;
        // Scan unconditionally: peeking at g.retired without the lock
        // would race the owner's push, and a scan of an empty group is
        // just the latch round-trip.
        for (auto& g : groups_) freed += scan(g);
        if (freed == 0 || retired_count() == 0) break;
    }
}

}  // namespace lfll
