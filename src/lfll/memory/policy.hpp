// Pluggable memory-reclamation policies for the Valois stack.
//
// The paper hard-wires §5 reference counting (SafeRead/Release) into the
// list. This layer lifts the three decisions a reclamation scheme makes
// into a policy type, so the same list/dictionary/adapter code runs under
// reference counting, hazard pointers, or epochs:
//
//   1. `protect`  — how a traversal acquires a dereferenceable pointer
//                   from a shared location (the SafeRead seat).
//   2. `retire`   — what happens when a node's reference count hits zero
//                   and the claim is won: reclaim immediately
//                   (`deferred == false`) or bank it with a domain until a
//                   grace period passes (`deferred == true`).
//   3. enter/leave — per-thread read-side critical-section hooks
//                   (epoch pin, hazard slot-group checkout; no-ops for
//                   pure reference counting).
//
// Hybrid counting: under EVERY policy, pointers stored in shared memory
// (list links, the free-list head) and long-held private pointers
// (alloc ownership, skip-list predecessor hints) keep one reference on
// the per-node count word, and a node becomes retire-eligible exactly
// when the count reaches zero and the claim bit is won (ref_count.hpp).
// Policies differ in what a *traversal hop* costs (two RMWs for
// SafeRead, one publish+validate for hazard, a plain load under an
// epoch pin) and in whether the zero-count node is recycled immediately
// or after a grace period. Because a counted link blocks retirement
// outright, reference acquisition on a node that may already be retired
// must check the claim bit (node_pool::try_ref) — a claimed node must
// never be re-linked.
#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "lfll/memory/ref_count.hpp"
#include "lfll/primitives/test_hooks.hpp"
#include "lfll/telemetry/op_counters.hpp"
#include "lfll/telemetry/profiler.hpp"

namespace lfll {

/// Two-argument reclamation callback: `fn(ctx, node)`. The context is the
/// owning node_pool, which returns the node to its free list.
using reclaim_fn = void (*)(void* ctx, void* node);

/// Per-node state shared by all shipped policies: the §5 count word in
/// the Michael & Scott single-word encoding (2*refs + claim).
struct counted_header {
    std::atomic<refct_t> refct{0};
};

/// Globally unique id for objects that anchor thread-local records:
/// policy domains (epoch/hazard tl_state) and node pools (magazine
/// caches). Records are keyed by this id rather than the owner's
/// address, so a record can never alias a dead owner whose storage was
/// reused.
inline std::uint64_t next_policy_domain_id() noexcept {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

/// What node_pool requires of a policy.
template <typename P, typename Node>
concept memory_policy_for =
    std::is_base_of_v<typename P::header, Node> &&
    requires(typename P::domain& d, const std::atomic<Node*>& loc, void* raw,
             reclaim_fn fn) {
        { P::deferred } -> std::convertible_to<bool>;
        { P::counted_traversal } -> std::convertible_to<bool>;
        { P::name } -> std::convertible_to<const char*>;
        { P::template protect<Node>(d, loc, fn, raw) } -> std::same_as<Node*>;
        P::enter(d);
        P::leave(d);
        P::retire(d, raw, fn, raw);
        { d.retired_count() } -> std::convertible_to<std::size_t>;
        d.drain();
    };

/// RAII read-side critical section for a policy domain. Reentrant: nested
/// guards on the same (thread, domain) are counted by the policy's
/// thread-local state, so a cursor guard inside an operation guard is
/// fine. Copying engages the same domain again on the *current* thread —
/// which is why cursors (whose copy constructor copies the guard) must
/// only be copied on the thread that owns them for non-counted policies.
template <typename Policy>
class policy_guard {
public:
    using domain_type = typename Policy::domain;

    policy_guard() = default;
    explicit policy_guard(domain_type& d) : dom_(&d) { Policy::enter(d); }

    policy_guard(const policy_guard& o) : dom_(o.dom_) {
        if (dom_ != nullptr) Policy::enter(*dom_);
    }
    policy_guard(policy_guard&& o) noexcept : dom_(std::exchange(o.dom_, nullptr)) {}

    policy_guard& operator=(const policy_guard& o) {
        if (this != &o) {
            policy_guard tmp(o);
            swap(tmp);
        }
        return *this;
    }
    policy_guard& operator=(policy_guard&& o) noexcept {
        if (this != &o) {
            reset();
            dom_ = std::exchange(o.dom_, nullptr);
        }
        return *this;
    }

    ~policy_guard() { reset(); }

    void reset() noexcept {
        if (dom_ != nullptr) {
            Policy::leave(*dom_);
            dom_ = nullptr;
        }
    }

    bool engaged() const noexcept { return dom_ != nullptr; }

    void swap(policy_guard& o) noexcept { std::swap(dom_, o.dom_); }

private:
    domain_type* dom_ = nullptr;
};

/// The paper's own scheme (§5): SafeRead/Release reference counting,
/// immediate reclamation at count zero. Traversals pay two atomic RMWs
/// per hop (acquire on the new node, release on the old); there is no
/// read-side critical section and no grace period, so the domain is
/// empty and enter/leave are no-ops.
struct valois_refcount {
    using header = counted_header;
    static constexpr bool deferred = false;
    /// Traversal references (protect/copy/drop) land on the count word.
    static constexpr bool counted_traversal = true;
    static constexpr const char* name = "valois_refcount";

    struct domain {
        std::size_t retired_count() const noexcept { return 0; }
        void drain() noexcept {}
    };

    static void enter(domain&) noexcept {}
    static void leave(domain&) noexcept {}

    /// Immediate reclamation: with no grace period to wait out, a node
    /// whose claim was won goes straight back to the pool. (node_pool
    /// short-circuits this for the common path; see unref.)
    static void retire(domain&, void* p, reclaim_fn fn, void* ctx) {
        telemetry::prof::phase_scope prof_phase(telemetry::prof::phase::reclaim);
        fn(ctx, p);
    }

    /// Paper Fig. 15 (SafeRead): read, blind increment, revalidate; on
    /// revalidation failure the increment may sit on a recycled node and
    /// is undone through a full release (`undo(undo_ctx, q)`), which can
    /// itself cascade reclamation.
    template <typename Node>
    static Node* protect(domain&, const std::atomic<Node*>& location,
                         reclaim_fn undo, void* undo_ctx) noexcept {
        auto& ctr = instrument::tls();
        ctr.safe_reads++;
        for (;;) {
            Node* q = location.load(std::memory_order_acquire);
            if (q == nullptr) return nullptr;
            testing_hooks::chaos_point(sched::step_kind::safe_read);  // read -> increment
            refct_acquire(q->refct);
            testing_hooks::chaos_point(sched::step_kind::safe_read);  // increment -> revalidate
            if (location.load(std::memory_order_acquire) == q) return q;
            ctr.saferead_retries++;
            undo(undo_ctx, q);
        }
    }
};

}  // namespace lfll
