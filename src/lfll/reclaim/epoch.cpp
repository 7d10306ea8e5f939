#include "lfll/reclaim/epoch.hpp"

#include <cassert>

#include "lfll/telemetry/metrics.hpp"

namespace lfll {
namespace {

// Health gauges, shared by every epoch_domain in the process (last
// sampled instance wins — ticker-grade telemetry, not per-instance
// accounting). Resolved once; the registry outlives all domains.
telemetry::gauge& backlog_gauge() {
    static telemetry::gauge& g = telemetry::registry::global().get_gauge(
        "lfll_retired_backlog", "policy=\"epoch\"");
    return g;
}
telemetry::gauge& lag_gauge() {
    static telemetry::gauge& g =
        telemetry::registry::global().get_gauge("lfll_epoch_lag", "policy=\"epoch\"");
    return g;
}
telemetry::counter& advances_counter() {
    static telemetry::counter& c = telemetry::registry::global().get_counter(
        "lfll_epoch_advances_total", "policy=\"epoch\"");
    return c;
}
telemetry::counter& drained_counter() {
    static telemetry::counter& c = telemetry::registry::global().get_counter(
        "lfll_drain_freed_total", "policy=\"epoch\"");
    return c;
}

}  // namespace

epoch_domain::epoch_domain(int max_threads, std::size_t advance_threshold)
    : ctxs_(static_cast<std::size_t>(max_threads)), advance_threshold_(advance_threshold) {
    for (int c = static_cast<int>(ctxs_.size()) - 1; c >= 0; --c) {
        ctxs_[c].next_free.store(head_index(free_head_.load(std::memory_order_relaxed)),
                                 std::memory_order_relaxed);
        free_head_.store(pack_head(c, 0), std::memory_order_relaxed);
    }
}

epoch_domain::~epoch_domain() {
    // Callbacks may cascade-retire into (other) buckets while we sweep;
    // loop until every bucket stays empty. Single-threaded by contract.
    for (;;) {
        bool any = false;
        for (auto& ctx : ctxs_) {
            for (auto& bucket : ctx.buckets) {
                if (bucket.empty()) continue;
                any = true;
                std::vector<retired_node> work;
                work.swap(bucket);
                retired_total_.fetch_sub(work.size(), std::memory_order_relaxed);
                for (auto& r : work) invoke(r);
            }
        }
        if (!any) break;
    }
}

int epoch_domain::acquire_ctx() {
    for (;;) {
        std::uint64_t head = free_head_.load(std::memory_order_acquire);
        const std::int32_t idx = head_index(head);
        assert(idx >= 0 && "epoch_domain: more concurrent pins than max_threads");
        const std::int32_t next =
            ctxs_[static_cast<std::size_t>(idx)].next_free.load(std::memory_order_acquire);
        if (free_head_.compare_exchange_weak(head, pack_head(next, head_tag(head) + 1),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
            return idx;
        }
    }
}

void epoch_domain::release_ctx(int c) {
    std::uint64_t head = free_head_.load(std::memory_order_acquire);
    do {
        ctxs_[static_cast<std::size_t>(c)].next_free.store(head_index(head),
                                                           std::memory_order_release);
    } while (!free_head_.compare_exchange_weak(head, pack_head(c, head_tag(head) + 1),
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire));
}

int epoch_domain::client_enter() {
    const int c = acquire_ctx();
    const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    // seq_cst: the activity announcement must be visible to any advancer
    // before we read shared pointers.
    ctxs_[c].state.store(2 * e + 1, std::memory_order_seq_cst);
    return c;
}

void epoch_domain::client_exit(int c) {
    ctxs_[c].state.store(0, std::memory_order_release);
    release_ctx(c);
}

epoch_domain::pin::pin(epoch_domain& d) : dom_(d), ctx_(d.client_enter()) {}

epoch_domain::pin::~pin() { dom_.client_exit(ctx_); }

void epoch_domain::pin::retire(void* p, void (*deleter)(void*)) {
    dom_.retire_at(ctx_, {p, deleter, nullptr, nullptr});
}

void epoch_domain::client_retire(int ctx, void* p, void (*fn)(void*, void*), void* ctx_ptr) {
    retire_at(ctx, {p, nullptr, fn, ctx_ptr});
}

void epoch_domain::retire_at(int ctx, retired_node r) {
    // Bank by the CURRENT global epoch, loaded after the retiring unlink
    // (same thread, program order). Any pin that can still reach the node
    // observed the link before the unlink, so its pinned epoch is <= e;
    // bucket e is freed only at the advance from e+1 to e+2, which
    // requires every such pin to have died. Note the caller's own active
    // ctx bounds the advance: with a pin at epoch ep the global can reach
    // at most ep+1, so the bucket we push into here can never be the one
    // concurrently being freed.
    const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    ctxs_[ctx].buckets[e % kBuckets].push_back(r);
    const std::size_t total = retired_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    backlog_gauge().set(static_cast<std::int64_t>(total));
    if (total >= advance_threshold_) try_advance();
}

std::size_t epoch_domain::try_advance() {
    if (advancing_.test_and_set(std::memory_order_acquire)) return 0;  // someone else is at it
    const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    bool all_current = true;
    std::uint64_t min_pinned = e;  // no lagging pin seen yet
    for (const auto& ctx : ctxs_) {
        const std::uint64_t s = ctx.state.load(std::memory_order_seq_cst);
        if (s != 0) {
            const std::uint64_t pinned = s >> 1;
            if (pinned != e) all_current = false;
            if (pinned < min_pinned) min_pinned = pinned;
        }
    }
    // Epoch lag (global − min pinned): 0 means every active pin is
    // current and the next advance can proceed; a persistently positive
    // lag fingers a stalled reader holding the grace period open. The ctx
    // sweep already paid for the loads, so the sample is free here.
    lag_gauge().set(static_cast<std::int64_t>(e - min_pinned));
    std::size_t freed = 0;
    if (all_current) {
        global_epoch_.store(e + 1, std::memory_order_seq_cst);
        advances_counter().inc();
        // Nodes banked in epoch e-1 are now unreachable by any pin: every
        // active thread was verified to be in e, and new pins start in e+1.
        freed = free_bucket((e - 1) % kBuckets);
    }
    advancing_.clear(std::memory_order_release);
    return freed;
}

std::size_t epoch_domain::free_bucket(std::size_t idx) {
    // Callbacks may cascade-retire; those retires bank by the *new*
    // current epoch (e or e+1 mod 3), never into the bucket being freed,
    // and a nested try_advance bounces off the advancing_ latch.
    std::size_t freed = 0;
    for (auto& ctx : ctxs_) {
        auto& bucket = ctx.buckets[idx];
        if (bucket.empty()) continue;
        std::vector<retired_node> work;
        work.swap(bucket);
        retired_total_.fetch_sub(work.size(), std::memory_order_relaxed);
        freed += work.size();
        for (auto& r : work) invoke(r);
    }
    if (freed > 0) {
        drained_counter().add(freed);
        backlog_gauge().set(
            static_cast<std::int64_t>(retired_total_.load(std::memory_order_relaxed)));
    }
    return freed;
}

void epoch_domain::drain() {
    // Each full advance cycle frees every bucket once. Cascaded retires
    // (a freed node's dropped links retiring its successors, as in the
    // queue's dummy chain) land in the current bucket and need further
    // cycles — and they keep retired_count() constant while real work
    // happens, so progress is measured in nodes actually freed. Active
    // pins make try_advance free nothing, ending the loop.
    for (;;) {
        std::size_t freed = 0;
        for (int i = 0; i < 2 * kBuckets; ++i) freed += try_advance();
        if (freed == 0 || retired_count() == 0) break;
    }
}

}  // namespace lfll
