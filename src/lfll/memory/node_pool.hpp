// Typed node pool: slab arena + the paper's lock-free LIFO free list
// (Alloc / Reclaim, Figs. 17-18), parameterized over a MemoryPolicy that
// decides how traversals protect nodes and when a dead node may be
// recycled (policy.hpp). The default policy is the paper's own §5
// SafeRead / Release reference counting (Figs. 15-16, with the Michael &
// Scott correction — see ref_count.hpp).
//
// Ownership discipline ("counted links") — policy-independent:
//  * Every pointer stored in shared memory (a node's next/back_link, the
//    free-list head) holds ONE counted reference on its target.
//  * alloc() hands the caller ONE counted reference, dropped with
//    unref(). Long-held private pointers (skip-list predecessor hints)
//    also hold counted references (ref()/try_ref()/unref()).
//  * A CAS that swings a shared pointer from `old` to `new` must
//    try_ref(new) BEFORE the CAS; on success the caller must unref(old)
//    (the dying link's reference); on failure it must unref(new) (the
//    speculative reference). valois_list encapsulates this in one helper.
//  * Traversal references are policy-shaped: protect() acquires one from
//    a shared location, copy() duplicates one, drop() releases one. For
//    counting policies these hit the count word; under epochs they are
//    free and the pointer is valid only while the guard's pin is held.
//
// When the count reaches zero and the claim bit is won, the node is
// retire-eligible. Immediate policies (valois_refcount) cascade the
// reclamation on the spot; deferred policies (hazard, epoch) bank the
// node with their domain and the pool's reclaim callback runs after the
// grace period, dropping the node's outgoing links (which may take
// further counts to zero) and pushing it back on the free list.
//
// Slabs are never returned to the OS while the pool lives; this is the
// precondition for SafeRead's transient increment on a recycled node being
// harmless (§5.1: "we can safely reuse cells ... as long as we can
// guarantee that no other processes have pointers to the cell"). A slab of
// at least 2 MiB gets its own 2 MiB-aligned mapping with its whole-huge-
// page prefix advised for transparent huge pages; smaller slabs stay on
// the heap (slab_memory.hpp). Either backing is released only in
// ~node_pool.
//
// --- Magazine fast path (Bonwick-style, in front of Figs. 17-18) --------
//
// The paper's Alloc/Reclaim funnel every thread through one CAS-contended
// free-list head. To make the steady-state alloc/free path a thread-local
// pointer bump, the pool layers a magazine allocator in front of it:
//
//   thread cache (active + previous magazine)   <- no shared memory at all
//        |  exchange full/empty magazines
//   depot (lock-free stacks of full / empty magazines)
//        |  single-node fallback on magazine miss
//   global free list (Fig. 17/18, unchanged)
//        |  slab growth on exhaustion
//   slab arena
//
// A magazine is a bounded array of `mag_rounds` node pointers; each node
// cached in a magazine carries the cache's counted reference (count 1,
// next == nullptr), exactly like a node on the global free list, so the
// SafeRead transient-increment protocol stays sound for cached nodes.
// alloc() pops from the active magazine (plain array store, zero RMWs
// beyond the caller-visible count transfer, which is free: the magazine's
// reference is handed to the caller); reclaim() pushes into it. When the
// active magazine runs dry (or fills), it is swapped with the previous
// magazine; only when BOTH are dry (full) does the thread touch shared
// memory, exchanging a magazine with the depot. The depot sits in front
// of the global list: deferred policies' drains land reclaimed nodes in
// the draining thread's magazines (overflowing into the depot), not past
// them.
//
// Thread exit and pool destruction flush residual magazines through a
// registry (one record per (thread, pool), protocol serialized by a
// per-pool striped registry mutex): nodes go back to the global free list, magazines to
// the empty depot. Everything above the global list is therefore an
// accounting detail: free_count()/for_each_free() aggregate the global
// list AND every magazine, so quiescent audits see one coherent pool.
//
// The layer is always on: its ablation (EXPERIMENTS.md A3) found kv-read
// writes and kv-churn throughput worse without it.
//
// --- ABA audit of the LIFO heads (PR 1 follow-up) -----------------------
//
// Three LIFO heads live in this subsystem; they use two different ABA
// defenses, on purpose:
//
//  * The global free-list head (`free_head_`) carries NO version tag.
//    It does not need one: pops go through free_list_read(), which lands
//    a counted reference on the candidate head before the CAS. While any
//    thread holds that reference the node's count cannot reach zero, so
//    the node cannot be reclaimed and therefore cannot be *re-pushed*;
//    head == q can only recur after every in-flight popper of q has
//    released it. A stalled pop's CAS thus succeeds only when its `next`
//    snapshot is still the node's current successor — the counted head IS
//    the tagged-head fix here, with the count word as an unbounded tag.
//  * The depot heads (`depot_full_head_`, `depot_empty_head_`) hold
//    magazines, which have no count word, so they use the same
//    {tag:32, index:32} packed heads as the epoch/hazard ctx allocators
//    (PR 1). Tag-width invariant: the tag is bumped by every successful
//    CAS and wraps at 2^32, so ABA would require one thread to stall
//    mid-pop across an exact multiple of 2^32 successful depot
//    operations and then observe the same index — out of reach for any
//    real schedule (the depot is the *slow* path; it sees one op per
//    mag_rounds pool ops). Magazines, like slabs, are never freed while
//    the pool lives, so a stale depot pointer is always dereferenceable.
//
// Node requirements (duck-typed; valois_list::node and the baselines'
// nodes satisfy them):
//    derives from Policy::header (provides std::atomic<refct_t> refct)
//    std::atomic<Node*>   next;     // reused as the free-list link
//    void drop_links(Sink&& drop);  // pass each *counted* outgoing link
//                                   //   target (may be null) to drop()
//    void on_reclaim();             // destroy payload, reset flags
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "lfll/memory/policy.hpp"
#include "lfll/memory/ref_count.hpp"
#include "lfll/memory/slab_memory.hpp"
#include "lfll/primitives/cacheline.hpp"
#include "lfll/primitives/test_hooks.hpp"
#include "lfll/telemetry/metrics.hpp"
#include "lfll/telemetry/op_counters.hpp"
#include "lfll/telemetry/profiler.hpp"

namespace lfll {

/// Construction-time knobs for node_pool.
struct pool_config {
    std::size_t initial_capacity = 1024;
    /// Node pointers per magazine; 0 = auto (scaled to initial_capacity,
    /// clamped to [8, 64] so small per-bucket pools keep small caches).
    std::size_t mag_rounds = 0;
};

template <typename Node, typename Policy = valois_refcount>
class node_pool {
    static_assert(memory_policy_for<Policy, Node>,
                  "Policy does not satisfy the MemoryPolicy concept for this Node");
    static_assert(std::is_nothrow_default_constructible_v<Node>,
                  "grow() placement-constructs slab nodes and cannot unwind a throw");

public:
    using policy_type = Policy;
    using domain_type = typename Policy::domain;
    using guard = policy_guard<Policy>;

    /// Whether traversal references hit the count word under this policy.
    /// Clients gate the counted-traversal fast path (hand-over-hand ref
    /// transfer) on this: under epochs drop()/copy() are free and the
    /// fast path would be a pessimization.
    static constexpr bool counts_traversal = Policy::counted_traversal;

    /// Creates a pool with `initial_capacity` pre-allocated nodes. The pool
    /// grows by doubling slabs when exhausted (growth takes a mutex; the
    /// alloc fast path is lock-free).
    explicit node_pool(std::size_t initial_capacity = 1024)
        : node_pool(pool_config{initial_capacity}) {}

    explicit node_pool(const pool_config& cfg)
        : mag_rounds_(cfg.mag_rounds != 0
                          ? cfg.mag_rounds
                          : std::clamp<std::size_t>(cfg.initial_capacity / 4, 8, 64)) {
        // Health gauges, labelled by policy and shared by every pool under
        // that policy (last-sampled instance wins; see docs/telemetry.md).
        // Resolved once here so the sampling sites are a relaxed store.
        auto& reg = telemetry::registry::global();
        const std::string label = std::string("policy=\"") + Policy::name + "\"";
        g_free_depth_ = &reg.get_gauge("lfll_free_list_depth", label);
        g_capacity_ = &reg.get_gauge("lfll_pool_capacity", label);
        g_huge_bytes_ = &reg.get_gauge("lfll_pool_huge_bytes", label);
        g_backlog_ = &reg.get_gauge("lfll_retired_backlog", label);
        g_mag_hits_ = &reg.get_counter("lfll_pool_magazine_hits_total", label);
        g_mag_misses_ = &reg.get_counter("lfll_pool_magazine_misses_total", label);
        g_mag_flushes_ = &reg.get_counter("lfll_pool_magazine_flushes_total", label);
        g_mag_depot_ = &reg.get_gauge("lfll_pool_magazine_depot_full", label);
        g_backlog_->set(0);  // registered (and correct) even before any retire
        grow(cfg.initial_capacity == 0 ? 1 : cfg.initial_capacity);
    }

    /// Flushes anything the policy still has banked back onto the free
    /// list (the reclaim callback touches pool internals, so this must
    /// complete before members die; domain_ is declared last and thus
    /// destroyed first as a backstop). Magazines are flushed after the
    /// drain (the drain may land nodes in this thread's magazines) and
    /// their registry records detached so exiting threads skip the dead
    /// pool.
    ~node_pool() {
        drain_retired();
        detach_caches();
        assert(domain_.retired_count() == 0 &&
               "node_pool destroyed with nodes still protected");
    }

    node_pool(const node_pool&) = delete;
    node_pool& operator=(const node_pool&) = delete;

    domain_type& domain() noexcept { return domain_; }

    /// Read-side critical section covering this pool's nodes. Cursors
    /// carry one internally; loose traversals (scan, adapters) open one
    /// per operation.
    guard make_guard() { return guard(domain_); }

    /// Paper Fig. 17 (Alloc), fronted by the magazine layer. Returns a
    /// node holding one private counted reference owned by the caller
    /// (under every policy); `next` is null. Never returns nullptr
    /// (grows).
    Node* alloc() {
        instrument::tls().nodes_allocated++;
        // Sampled-op attribution: everything below — magazine hit or
        // miss, free-list pop, grow — is alloc time.
        telemetry::prof::phase_scope prof_phase(telemetry::prof::phase::alloc);
        for (;;) {
            // Magazine hit: the cache's counted reference transfers to
            // the caller — the fast path performs no shared-memory RMW.
            if (Node* q = mag_alloc()) return q;
            Node* q = free_list_read(free_head_);
            if (q == nullptr) {
                // Reclaim pressure before growing: a deferred policy may
                // have a long retire cascade banked (e.g. the queue's
                // dummy chain, which frees strictly one node per pass).
                // Progress lands either on the global list or in THIS
                // thread's magazines; both are visible next iteration.
                if constexpr (Policy::deferred) {
                    const std::size_t before = domain_.retired_count();
                    if (before > 0) {
                        drain_retired();
                        if (domain_.retired_count() < before) continue;
                    }
                }
                grow(capacity_.load(std::memory_order_relaxed));
                continue;
            }
            Node* next = q->next.load(std::memory_order_acquire);
            testing_hooks::chaos_point(sched::step_kind::alloc);  // before committing the pop
            Node* expected = q;
            if (free_head_.compare_exchange_strong(expected, next,
                                                   std::memory_order_acq_rel,
                                                   std::memory_order_acquire)) {
                // The free-list's reference to q died with the pop; our
                // transient reference keeps the count >= 1, so a plain
                // decrement (no reclaim check) is sound.
                q->refct.fetch_sub(refct_one, std::memory_order_acq_rel);
                q->next.store(nullptr, std::memory_order_relaxed);
                free_count_.fetch_sub(1, std::memory_order_relaxed);
                return q;
            }
            // CAS failed: q is no longer (or was never still) the head.
            unref(q);
        }
    }

    // --- counted references (policy-independent) --------------------------

    /// Adds a counted reference to a node the caller already protects
    /// (holds a counted reference to, directly or through a guard while
    /// the target is provably unretired — e.g. via a live counted link).
    Node* ref(Node* p) noexcept {
        if (p != nullptr) refct_acquire(p->refct);
        return p;
    }

    /// Adds a counted reference unless the node has already been retired
    /// (claim bit set) — a claimed node must never be re-linked or given
    /// new references, it belongs to the reclaimer. Returns false (count
    /// restored) in that case. Needed whenever the source pointer is a
    /// policy-shaped traversal reference that does not itself hold a
    /// count (epoch guards), harmless elsewhere. try_ref(nullptr) is
    /// vacuously true.
    bool try_ref(Node* p) noexcept {
        if (p == nullptr) return true;
        const refct_t old = p->refct.fetch_add(refct_one, std::memory_order_acq_rel);
        if (refct_claimed(old)) {
            p->refct.fetch_sub(refct_one, std::memory_order_acq_rel);
            return false;
        }
        return true;
    }

    /// Paper Fig. 16 (Release), M&S-corrected. Drops one counted
    /// reference; if the count reaches zero and this caller wins the
    /// claim, the node is retired through the policy: immediately
    /// cascaded back to the free list (valois_refcount) or banked until
    /// the domain's grace period passes (hazard/epoch), after which the
    /// reclaim callback drops its links and recycles it.
    void unref(Node* p) noexcept {
        if (p == nullptr) return;
        if constexpr (Policy::deferred) {
            testing_hooks::chaos_point(sched::step_kind::release);  // before the decrement
            if (refct_release(p->refct)) {
                testing_hooks::chaos_point(sched::step_kind::retire);  // claim won, not yet banked
                Policy::retire(domain_, p, &node_pool::reclaim_cb, this);
            }
        } else {
            release_cascade(p);
        }
    }

    // --- traversal references (policy-shaped) -----------------------------

    /// Acquires a traversal reference from a shared location (the
    /// SafeRead seat). For counting policies this lands a count the
    /// caller must drop(); under epochs it is a plain load valid only
    /// while the caller's guard is engaged.
    Node* protect(const std::atomic<Node*>& location) noexcept {
        return Policy::template protect<Node>(domain_, location, &node_pool::unref_cb, this);
    }

    /// Duplicates a traversal reference the caller already holds.
    Node* copy(Node* p) noexcept {
        if constexpr (policy_counts_traversal) {
            return ref(p);
        } else {
            return p;
        }
    }

    /// Drops a traversal reference.
    void drop(Node* p) noexcept {
        if constexpr (policy_counts_traversal) {
            unref(p);
        } else {
            (void)p;
        }
    }

    // --- legacy names (paper vocabulary; §5-faithful under the default
    // policy, where every reference is a counted reference) -----------------

    Node* add_ref(Node* p) noexcept { return ref(p); }
    Node* safe_read(const std::atomic<Node*>& location) noexcept { return protect(location); }
    void release(Node* p) noexcept { unref(p); }

    // --- introspection ----------------------------------------------------

    /// Number of nodes the pool has ever handed slabs for.
    std::size_t capacity() const noexcept { return capacity_.load(std::memory_order_relaxed); }

    /// Approximate count of nodes available for alloc — global free list
    /// plus every magazine (thread caches and depot). Exact when
    /// quiescent.
    std::size_t free_count() const noexcept {
        return free_count_.load(std::memory_order_relaxed) + magazine_cached_count();
    }

    /// Nodes currently outside the free list and magazines (exact when
    /// quiescent).
    std::size_t live_count() const noexcept { return capacity() - free_count(); }

    /// Nodes retired but awaiting the policy's grace period (0 for the
    /// immediate default policy).
    std::size_t retired_count() const noexcept { return domain_.retired_count(); }

    /// Node pointers per magazine.
    std::size_t magazine_rounds() const noexcept { return mag_rounds_; }

    /// Approximate count of nodes cached in magazines (thread caches and
    /// depot together). Exact when quiescent.
    std::size_t magazine_cached_count() const noexcept {
        std::size_t total = 0;
        for_each_magazine([&](const magazine& m) {
            total += m.count.load(std::memory_order_relaxed);
        });
        return total;
    }

    /// Full magazines currently parked in the depot (gauge source).
    std::size_t depot_full_magazines() const noexcept {
        const std::int64_t n = depot_full_count_.load(std::memory_order_relaxed);
        return n > 0 ? static_cast<std::size_t>(n) : 0;
    }

    /// Quiescent flush of the policy's banked nodes back to the free list.
    /// Runs the policy's collection until it stops making progress.
    /// Cascaded retires (reclaiming a node drops its links, which can
    /// retire further nodes) are chased to exhaustion; nodes still
    /// protected by concurrent guards survive and end the loop.
    void drain_retired() {
        if constexpr (Policy::deferred) {
            telemetry::prof::phase_scope prof_phase(telemetry::prof::phase::reclaim);
            std::size_t prev = domain_.retired_count();
            while (prev > 0) {
                testing_hooks::chaos_point(sched::step_kind::drain);
                domain_.drain();
                const std::size_t now = domain_.retired_count();
                g_backlog_->set(static_cast<std::int64_t>(now));
                if (now >= prev) break;
                prev = now;
            }
            sample_gauges();
        }
    }

    /// Quiescent flush of every magazine (thread caches and depot) back
    /// to the global free list, so tests see every node on the Fig. 17/18
    /// list; the destructor runs it implicitly.
    void flush_magazines() {
        std::lock_guard lk(registry_mutex());
        for (mag_cache* c = cache_records_; c != nullptr; c = c->next_record) {
            flush_cache(*c);
        }
        flush_depot_full();
    }

    /// Visits every slab slot. Only meaningful while no other thread is
    /// mutating; used by the test-suite audits.
    template <typename F>
    void for_each_node(F&& f) const {
        std::lock_guard lk(grow_mu_);
        for (const auto& slab : slabs_) {
            for (std::size_t i = 0; i < slab.count; ++i) f(&slab.nodes()[i]);
        }
    }

    /// Walks every node available for alloc: the global free list, then
    /// every magazine's cached nodes. Only meaningful while no other
    /// thread is mutating; used by the test-suite audits (a cached node
    /// carries the cache's reference, exactly like a free-list node).
    template <typename F>
    void for_each_free(F&& f) const {
        for (const Node* p = free_head_.load(std::memory_order_acquire); p != nullptr;
             p = p->next.load(std::memory_order_acquire)) {
            f(p);
        }
        for_each_magazine([&](const magazine& m) {
            const std::uint32_t n = m.count.load(std::memory_order_acquire);
            for (std::uint32_t i = 0; i < n; ++i) f(m.rounds[i]);
        });
    }

private:
    static constexpr bool policy_counts_traversal = Policy::counted_traversal;

    /// `count` nodes placement-constructed at the start of `mem`.
    struct slab {
        detail::slab_memory mem;
        std::size_t count;

        Node* nodes() const noexcept { return static_cast<Node*>(mem.data()); }

        slab(detail::slab_memory m, std::size_t n) noexcept : mem(std::move(m)), count(n) {}
        slab(slab&&) noexcept = default;
        ~slab() {
            if constexpr (!std::is_trivially_destructible_v<Node>) {
                if (mem.data() != nullptr) std::destroy_n(nodes(), count);
            }
        }
    };

    // --- magazine layer ---------------------------------------------------

    /// A bounded cache of node pointers. rounds[0..count) hold nodes, each
    /// carrying the magazine's counted reference (count word 1, next
    /// null). `count` is owner-written (the holding thread, or a flusher
    /// at quiescence) and racily read by the approximate introspection;
    /// cross-thread hand-off happens only through the depot CAS, whose
    /// release/acquire pair publishes rounds[] and count.
    struct magazine {
        std::atomic<std::int32_t> next_free{-1};  ///< depot stack link
        std::int32_t index = -1;                  ///< own arena slot
        std::atomic<std::uint32_t> count{0};
        std::unique_ptr<Node*[]> rounds;
    };

    /// Per-(thread, pool) magazine cache. Hot fields are owner-only while
    /// the pool lives; owner/next_record are serialized by
    /// registry_mutex(). hit/miss/flush tallies are folded into the
    /// telemetry registry at depot and flush boundaries (single-writer
    /// until a quiescent flush).
    struct mag_cache {
        /// Mirrors of active->rounds.get() / active->count that keep the
        /// hit path's dependent-load chain inside this record (the
        /// magazine's own count is write-through-updated every op, so the
        /// accounting walkers never see a stale value).
        Node** arounds = nullptr;
        std::uint32_t acount = 0;
        magazine* active = nullptr;
        magazine* prev = nullptr;  ///< invariant: empty or full, never partial
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t flushes = 0;
        node_pool* owner = nullptr;
        mag_cache* next_record = nullptr;

        void attach_active(magazine* m) noexcept {
            active = m;
            arounds = m != nullptr ? m->rounds.get() : nullptr;
            acount = m != nullptr ? m->count.load(std::memory_order_relaxed) : 0;
        }
    };

    /// Registry-protocol lock for THIS pool: thread first-use, thread
    /// exit, pool destruction, and explicit flushes serialize here (never
    /// the hot path). The lock is picked from a static stripe array keyed
    /// by pool id, which keeps both properties we need: (a) mutex
    /// lifetime is static, sidestepping the race of locking a mutex
    /// inside a pool that is concurrently destructed (the reason this
    /// used to be one class-wide mutex), and (b) distinct pools — e.g.
    /// per-shard arenas in a sharded KV store — land on distinct stripes
    /// with high probability, so one shard's registry protocol (flushes,
    /// thread churn) no longer serializes every other shard's.
    std::mutex& registry_mutex() const noexcept {
        return registry_stripe(pool_id_);
    }

    static constexpr std::size_t registry_stripe_count = 64;

    /// Stripe lookup, shared by all instantiations on purpose: a record's
    /// pool id alone must recover the mutex after the pool is gone
    /// (thread-exit flush), and pool ids are process-unique.
    static std::mutex& registry_stripe(std::uint64_t pool_id) noexcept {
        static std::mutex stripes[registry_stripe_count];
        return stripes[pool_id % registry_stripe_count];
    }

    /// Thread-local record table for this instantiation, keyed by pool id
    /// so a record can never alias a dead pool whose storage was reused.
    /// The destructor is the thread-exit flush.
    struct tl_registry {
        std::unordered_map<std::uint64_t, mag_cache*> records;
        std::uint64_t cached_id = 0;
        mag_cache* cached = nullptr;

        ~tl_registry() {
            // One stripe at a time: the record's key IS the pool id, so
            // the right mutex survives even if the pool itself is gone
            // (owner nulled by detach_caches).
            for (auto& [id, c] : records) {
                std::lock_guard lk(registry_stripe(id));
                if (c->owner != nullptr) {
                    c->owner->flush_cache(*c);
                    c->owner->unlink_record(c);
                }
                delete c;
            }
        }
    };

    static tl_registry& tls_registry() {
        thread_local tl_registry r;
        return r;
    }

    /// This thread's cache for this pool (created and registered on first
    /// use). The single-entry cache makes the common one-pool-per-loop
    /// case two loads and a compare.
    mag_cache* this_thread_cache() {
        tl_registry& r = tls_registry();
        if (r.cached_id == pool_id_) return r.cached;
        mag_cache*& slot = r.records[pool_id_];
        if (slot == nullptr) {
            auto* c = new mag_cache{};
            {
                std::lock_guard lk(registry_mutex());
                c->owner = this;
                c->next_record = cache_records_;
                cache_records_ = c;
            }
            slot = c;
        }
        r.cached_id = pool_id_;
        r.cached = slot;
        return slot;
    }

    /// Magazine-layer alloc. Returns nullptr on a miss (empty caches and
    /// empty depot); the caller falls through to the global free list.
    Node* mag_alloc() {
        mag_cache* c = this_thread_cache();
        for (;;) {
            const std::uint32_t n = c->acount;
            if (n > 0) {
                c->hits++;
                c->acount = n - 1;
                Node* q = c->arounds[n - 1];
                c->active->count.store(n - 1, std::memory_order_relaxed);
                return q;
            }
            if (c->prev != nullptr &&
                c->prev->count.load(std::memory_order_relaxed) > 0) {
                magazine* was_active = c->active;
                c->attach_active(c->prev);
                c->prev = was_active;
                continue;
            }
            // Depot exchange (lock-free; annotated here, NOT inside
            // depot_pop/push, which flush paths call under the registry
            // mutex — a chaos point there would deadlock a serialized
            // session).
            testing_hooks::chaos_point(sched::step_kind::magazine);
            magazine* full = depot_pop(depot_full_head_);
            if (full == nullptr) {
                c->misses++;
                return nullptr;
            }
            depot_full_count_.fetch_sub(1, std::memory_order_relaxed);
            if (c->prev != nullptr) depot_push(depot_empty_head_, c->prev);
            c->prev = c->active;  // empty (or null): invariant preserved
            c->attach_active(full);
            fold_stats(*c);
        }
    }

    /// Magazine-layer free. Returns false when the magazine arena is
    /// exhausted (caller falls back to the global free list). `q` must
    /// already carry the cache's reference (refct_unclaim_to_one ran).
    bool mag_free(Node* q) {
        mag_cache* c = this_thread_cache();
        for (;;) {
            const std::uint32_t n = c->acount;
            if (c->active != nullptr && n < mag_rounds_) {
                q->next.store(nullptr, std::memory_order_relaxed);
                c->arounds[n] = q;
                c->acount = n + 1;
                c->active->count.store(n + 1, std::memory_order_relaxed);
                return true;
            }
            if (c->prev != nullptr &&
                c->prev->count.load(std::memory_order_relaxed) == 0) {
                magazine* was_active = c->active;
                c->attach_active(c->prev);
                c->prev = was_active;
                continue;
            }
            testing_hooks::chaos_point(sched::step_kind::magazine);  // depot exchange
            magazine* empty = depot_pop(depot_empty_head_);
            if (empty == nullptr) empty = new_magazine();
            if (empty == nullptr) {
                c->misses++;
                return false;  // arena cap: overflow to the global list
            }
            if (c->prev != nullptr) {  // full (invariant): park it
                depot_push(depot_full_head_, c->prev);
                depot_full_count_.fetch_add(1, std::memory_order_relaxed);
                c->flushes++;
            }
            c->prev = c->active;  // full (or null)
            c->attach_active(empty);
            fold_stats(*c);
        }
    }

    /// Depot stacks: {tag:32, index:32} packed heads over the magazine
    /// arena, the PR 1 tagged-head idiom (see the ABA audit in the header
    /// comment). index -1 = empty.
    static std::uint64_t pack_head(std::int32_t index, std::uint32_t tag) noexcept {
        return (static_cast<std::uint64_t>(tag) << 32) | static_cast<std::uint32_t>(index);
    }
    static std::int32_t head_index(std::uint64_t w) noexcept {
        return static_cast<std::int32_t>(static_cast<std::uint32_t>(w));
    }
    static std::uint32_t head_tag(std::uint64_t w) noexcept {
        return static_cast<std::uint32_t>(w >> 32);
    }

    magazine* depot_pop(std::atomic<std::uint64_t>& head) noexcept {
        std::uint64_t h = head.load(std::memory_order_acquire);
        for (;;) {
            const std::int32_t idx = head_index(h);
            if (idx < 0) return nullptr;
            magazine* m = mag_at(idx);
            const std::int32_t next = m->next_free.load(std::memory_order_acquire);
            if (head.compare_exchange_weak(h, pack_head(next, head_tag(h) + 1),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
                return m;
            }
        }
    }

    void depot_push(std::atomic<std::uint64_t>& head, magazine* m) noexcept {
        std::uint64_t h = head.load(std::memory_order_acquire);
        do {
            m->next_free.store(head_index(h), std::memory_order_release);
        } while (!head.compare_exchange_weak(h, pack_head(m->index, head_tag(h) + 1),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire));
    }

    magazine* mag_at(std::int32_t idx) const noexcept {
        magazine* chunk =
            mag_chunks_[static_cast<std::size_t>(idx) / mag_chunk_size].load(
                std::memory_order_acquire);
        return &chunk[static_cast<std::size_t>(idx) % mag_chunk_size];
    }

    /// Allocates a fresh empty magazine from the arena (slow path; shares
    /// grow_mu_ with slab growth). Returns nullptr at the arena cap — the
    /// caller then overflows to the global free list, so the cap only
    /// bounds cache size, never correctness.
    magazine* new_magazine() {
        std::lock_guard lk(grow_mu_);
        const std::size_t n = mag_count_.load(std::memory_order_relaxed);
        if (n >= mag_chunk_size * mag_max_chunks) return nullptr;
        const std::size_t chunk_idx = n / mag_chunk_size;
        if (mag_chunks_[chunk_idx].load(std::memory_order_relaxed) == nullptr) {
            auto chunk = std::make_unique<magazine[]>(mag_chunk_size);
            mag_chunks_[chunk_idx].store(chunk.get(), std::memory_order_release);
            mag_chunk_owner_.push_back(std::move(chunk));
        }
        magazine* m = mag_at(static_cast<std::int32_t>(n));
        m->index = static_cast<std::int32_t>(n);
        m->rounds = std::make_unique<Node*[]>(mag_rounds_);
        // Release-publish the slot only after index/rounds are in place:
        // concurrent for_each_magazine walkers (gauge samplers calling
        // free_count()) stop at the published count, never at a
        // half-built slot.
        mag_count_.store(n + 1, std::memory_order_release);
        return m;
    }

    /// Visits every magazine ever created (wherever it currently sits:
    /// thread cache, depot, or in transit). Arena slots are append-only
    /// and never freed while the pool lives, so a racy walk is safe;
    /// counts are exact only at quiescence.
    template <typename F>
    void for_each_magazine(F&& f) const {
        const std::size_t n = mag_count_.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < n; ++i) f(*mag_at(static_cast<std::int32_t>(i)));
    }

    /// Quiescent: returns a cache's nodes to the global free list, its
    /// magazines to the empty depot, and folds its stat tallies. Caller
    /// holds registry_mutex().
    void flush_cache(mag_cache& c) {
        for (magazine** slot : {&c.active, &c.prev}) {
            magazine* m = *slot;
            if (m == nullptr) continue;
            flush_magazine(*m);
            depot_push(depot_empty_head_, m);
            *slot = nullptr;
            c.flushes++;
        }
        c.arounds = nullptr;
        c.acount = 0;
        fold_stats(c);
    }

    void flush_magazine(magazine& m) {
        std::uint32_t n = m.count.load(std::memory_order_relaxed);
        while (n > 0) {
            Node* q = m.rounds[--n];
            push_chain(q, q);
        }
        m.count.store(0, std::memory_order_relaxed);
    }

    /// Quiescent: drains the full-magazine depot back to the free list.
    void flush_depot_full() {
        while (magazine* m = depot_pop(depot_full_head_)) {
            depot_full_count_.fetch_sub(1, std::memory_order_relaxed);
            flush_magazine(*m);
            depot_push(depot_empty_head_, m);
        }
        g_mag_depot_->set(depot_full_count_.load(std::memory_order_relaxed));
    }

    /// Destructor protocol: flush every cache, detach the records from
    /// this pool (their owning threads delete them at thread exit), and
    /// empty the depot so no node dies inside a magazine.
    void detach_caches() {
        std::lock_guard lk(registry_mutex());
        for (mag_cache* c = cache_records_; c != nullptr;) {
            mag_cache* next = c->next_record;
            flush_cache(*c);
            c->owner = nullptr;
            c->next_record = nullptr;
            c = next;
        }
        cache_records_ = nullptr;
        flush_depot_full();
    }

    /// Removes a record from this pool's registry list. Caller holds
    /// registry_mutex().
    void unlink_record(mag_cache* c) noexcept {
        for (mag_cache** p = &cache_records_; *p != nullptr; p = &(*p)->next_record) {
            if (*p == c) {
                *p = c->next_record;
                return;
            }
        }
    }

    /// Folds a cache's hit/miss/flush tallies into the registry counters
    /// and refreshes the depot gauge. Runs at depot and flush boundaries
    /// only, so the steady-state fast path writes no shared metric.
    void fold_stats(mag_cache& c) noexcept {
        if (c.hits != 0) {
            g_mag_hits_->add(c.hits);
            c.hits = 0;
        }
        if (c.misses != 0) {
            g_mag_misses_->add(c.misses);
            c.misses = 0;
        }
        if (c.flushes != 0) {
            g_mag_flushes_->add(c.flushes);
            c.flushes = 0;
        }
        g_mag_depot_->set(depot_full_count_.load(std::memory_order_relaxed));
    }

    // --- global free list (Figs. 17-18) -----------------------------------

    /// Raw counted read of the free-list head. Policy-independent on
    /// purpose: free-list nodes never leave the slab arena, so the blind
    /// increment + revalidate protocol is safe here under every policy
    /// (a stale increment on a re-allocated or claimed node is undone by
    /// the matching unref, which cannot mis-claim — see ref_count.hpp).
    Node* free_list_read(const std::atomic<Node*>& location) noexcept {
        auto& ctr = instrument::tls();
        ctr.safe_reads++;
        for (;;) {
            Node* q = location.load(std::memory_order_acquire);
            if (q == nullptr) return nullptr;
            testing_hooks::chaos_point(sched::step_kind::free_list);  // read -> increment
            refct_acquire(q->refct);
            testing_hooks::chaos_point(sched::step_kind::free_list);  // increment -> revalidate
            if (location.load(std::memory_order_acquire) == q) return q;
            ctr.saferead_retries++;
            unref(q);
        }
    }

    /// Immediate-reclaim path: iterative cascade. Reclaiming a node
    /// releases its link targets, which may themselves die; a chain of
    /// deleted cells can be long, so recursion is not acceptable here.
    void release_cascade(Node* p) noexcept {
        // Fast path: a release that does not kill the node (the common
        // case on shared structures) is one RMW — no worklist setup.
        testing_hooks::chaos_point(sched::step_kind::release);  // before the decrement
        if (!refct_release(p->refct)) return;
        // The node died: attribute the cascade (not the mere decrement
        // above — that is every hop's cost) to the reclaim phase.
        telemetry::prof::phase_scope prof_phase(telemetry::prof::phase::reclaim);
        Node* inline_stack[32];
        std::size_t top = 0;
        std::vector<Node*> overflow;
        auto push = [&](Node* n) {
            if (n == nullptr) return;
            if (top < std::size(inline_stack))
                inline_stack[top++] = n;
            else
                overflow.push_back(n);
        };
        for (;;) {
            // p is claimed: exclusively ours.
            p->drop_links(push);
            p->on_reclaim();
            reclaim(p);
            for (;;) {
                if (top > 0) {
                    p = inline_stack[--top];
                } else if (!overflow.empty()) {
                    p = overflow.back();
                    overflow.pop_back();
                } else {
                    return;
                }
                testing_hooks::chaos_point(sched::step_kind::release);  // before the decrement
                if (refct_release(p->refct)) break;  // claimed: reclaim it
            }
        }
    }

    /// Runs when a deferred policy's grace period expires: drop the dead
    /// node's outgoing links (nested unrefs only *bank* further retires,
    /// so recursion is bounded), destroy the payload, recycle. Also the
    /// immediate path for valois_refcount::retire when protect's undo
    /// cascades (release_cascade handles the worklist there).
    static void reclaim_cb(void* self, void* node) {
        auto* pool = static_cast<node_pool*>(self);
        Node* q = static_cast<Node*>(node);
        q->drop_links([pool](Node* t) { pool->unref(t); });
        q->on_reclaim();
        pool->reclaim(q);
    }

    /// protect()'s undo callback: a full unref (may cascade).
    static void unref_cb(void* self, void* node) {
        static_cast<node_pool*>(self)->unref(static_cast<Node*>(node));
    }

    /// Paper Fig. 18 (Reclaim): hand a claimed node (refct == claim) to
    /// the magazine layer, overflowing onto the global free list. The
    /// claim->cached transition is a fetch_add so transient SafeRead
    /// increments are preserved (see ref_count.hpp). Deferred drains run
    /// through here too, so their freed nodes land in the draining
    /// thread's magazines / the depot — never past them.
    void reclaim(Node* q) noexcept {
        instrument::tls().nodes_reclaimed++;
        refct_unclaim_to_one(q->refct);  // the cache's / free list's reference
        if (mag_free(q)) return;
        push_chain(q, q);
        // Recycle boundary: cheap (one relaxed store) free-depth sample.
        g_free_depth_->set(
            static_cast<std::int64_t>(free_count_.load(std::memory_order_relaxed)));
    }

    /// Splice the chain first..last (linked via next) onto the free list.
    void push_chain(Node* first, Node* last) noexcept {
        Node* head = free_head_.load(std::memory_order_acquire);
        do {
            last->next.store(head, std::memory_order_relaxed);
        } while (!free_head_.compare_exchange_weak(head, first,
                                                   std::memory_order_acq_rel,
                                                   std::memory_order_acquire));
        free_count_.fetch_add(1, std::memory_order_relaxed);
    }

    /// Adds a slab of `at_least` nodes and splices it onto the free list.
    /// Throws std::bad_alloc (heap, mapping or slab bookkeeping) before
    /// any pool state changes: capacity, free list and gauges stay as
    /// they were, and a slab that was already mapped is released.
    void grow(std::size_t at_least) {
        std::lock_guard lk(grow_mu_);
        if (free_head_.load(std::memory_order_acquire) != nullptr) return;  // lost the race; fine
        const std::size_t n = at_least == 0 ? 1 : at_least;
        if (n > SIZE_MAX / sizeof(Node)) throw std::bad_alloc();
        detail::slab_memory mem(n * sizeof(Node), alignof(Node));
        Node* nodes = static_cast<Node*>(mem.data());
        for (std::size_t i = 0; i < n; ++i) {
            // Fresh nodes enter the world on the free list: count 1.
            Node* q = ::new (static_cast<void*>(nodes + i)) Node();
            q->refct.store(refct_one, std::memory_order_relaxed);
            q->next.store(i + 1 < n ? nodes + i + 1 : nullptr, std::memory_order_relaxed);
        }
        slabs_.emplace_back(std::move(mem), n);
        huge_bytes_ += slabs_.back().mem.huge_bytes();
        capacity_.fetch_add(n, std::memory_order_relaxed);
        g_capacity_->set(static_cast<std::int64_t>(capacity_.load(std::memory_order_relaxed)));
        g_huge_bytes_->set(static_cast<std::int64_t>(huge_bytes_));
        // Splice the whole slab in one CAS loop.
        Node* head = free_head_.load(std::memory_order_acquire);
        do {
            nodes[n - 1].next.store(head, std::memory_order_relaxed);
        } while (!free_head_.compare_exchange_weak(head, &nodes[0],
                                                   std::memory_order_acq_rel,
                                                   std::memory_order_acquire));
        free_count_.fetch_add(n, std::memory_order_relaxed);
        sample_gauges();
    }

    /// Samples the pool-health gauges (grow/drain boundaries).
    void sample_gauges() noexcept {
        g_free_depth_->set(
            static_cast<std::int64_t>(free_count_.load(std::memory_order_relaxed)));
        g_backlog_->set(static_cast<std::int64_t>(domain_.retired_count()));
        g_mag_depot_->set(depot_full_count_.load(std::memory_order_relaxed));
    }

    static constexpr std::size_t mag_chunk_size = 32;
    static constexpr std::size_t mag_max_chunks = 32;  // <= 1024 magazines

    telemetry::gauge* g_free_depth_ = nullptr;
    telemetry::gauge* g_capacity_ = nullptr;
    telemetry::gauge* g_huge_bytes_ = nullptr;
    telemetry::gauge* g_backlog_ = nullptr;
    telemetry::counter* g_mag_hits_ = nullptr;
    telemetry::counter* g_mag_misses_ = nullptr;
    telemetry::counter* g_mag_flushes_ = nullptr;
    telemetry::gauge* g_mag_depot_ = nullptr;
    const std::size_t mag_rounds_;
    const std::uint64_t pool_id_ = next_policy_domain_id();
    // Contended heads each own a cache line (free_head_ takes magazine
    // misses and overflows; the depot heads magazine exchanges) so a push
    // on one never invalidates the other.
    alignas(cacheline_size) std::atomic<Node*> free_head_{nullptr};
    alignas(cacheline_size) std::atomic<std::uint64_t> depot_full_head_{pack_head(-1, 0)};
    alignas(cacheline_size) std::atomic<std::uint64_t> depot_empty_head_{pack_head(-1, 0)};
    alignas(cacheline_size) std::atomic<std::int64_t> depot_full_count_{0};
    alignas(cacheline_size) std::atomic<std::size_t> capacity_{0};
    alignas(cacheline_size) std::atomic<std::size_t> free_count_{0};
    std::atomic<magazine*> mag_chunks_[mag_max_chunks] = {};
    std::atomic<std::size_t> mag_count_{0};  // writers under grow_mu_; release-published
    std::vector<std::unique_ptr<magazine[]>> mag_chunk_owner_;  // under grow_mu_
    mag_cache* cache_records_ = nullptr;  // under registry_mutex()
    mutable std::mutex grow_mu_;
    std::vector<slab> slabs_;
    std::size_t huge_bytes_ = 0;  // under grow_mu_
    domain_type domain_;  // last member: destroyed first, after ~node_pool's drain
};

}  // namespace lfll
