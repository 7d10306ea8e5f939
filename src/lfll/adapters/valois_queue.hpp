// Valois's dedicated lock-free FIFO queue (reference [27]: "Implementing
// lock-free queues", PDCS 1994) — the companion structure the paper cites
// for its memory-management scheme.
//
// Unlike lf_queue (the generic-list adapter, O(n) enqueue), this is the
// real queue algorithm: a dummy-headed singly-linked list with a lagging
// tail pointer.
//   * enqueue: link the new node after the last node — walk forward from
//     `tail` CASing next-null -> node — then swing `tail` (single
//     attempt; lag is fine, later enqueuers walk past it).
//   * dequeue: swing `head` from the current dummy to its successor; the
//     successor's value is returned and it becomes the new dummy.
// Both use the same counted-link discipline as the list (§5 SafeRead /
// Release through the shared node_pool), which is precisely how [27]
// solves the queue's ABA problem.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>

#include "lfll/core/node.hpp"
#include "lfll/memory/node_pool.hpp"
#include "lfll/primitives/backoff.hpp"
#include "lfll/telemetry/profiler.hpp"

namespace lfll {

template <typename T, typename Policy = valois_refcount>
class valois_queue {
public:
    using policy_type = Policy;
    using node = list_node<T, Policy>;
    using pool_type = node_pool<node, Policy>;
    using guard = typename pool_type::guard;

    explicit valois_queue(std::size_t initial_capacity = 1024)
        : pool_(initial_capacity + 1) {
        node* dummy = pool_.alloc();  // starts as an aux node: no payload
        // head_ and tail_ both reference the dummy: its alloc reference
        // covers head_; tail_ needs its own.
        head_ = dummy;
        tail_ = pool_.ref(dummy);
    }

    /// Quiescent teardown: walk off remaining nodes.
    ~valois_queue() {
        while (dequeue().has_value()) {
        }
        node* h = head_.load(std::memory_order_relaxed);
        pool_.unref(tail_.load(std::memory_order_relaxed));
        pool_.unref(h);
    }

    valois_queue(const valois_queue&) = delete;
    valois_queue& operator=(const valois_queue&) = delete;

    void enqueue(T value) {
        telemetry::prof::op_scope prof_op(telemetry::trace_op::enqueue, 0);
        node* q = pool_.alloc();
        q->construct_cell(std::move(value));
        guard g = pool_.make_guard();
        backoff bo;
        node* t0 = pool_.protect(tail_);  // kept for the swing below
        node* p = pool_.copy(t0);
        for (;;) {
            // Try to link q after p; on failure advance p to its
            // successor (we lost to another enqueuer). Linking into a
            // retired p is impossible: a node with a null next field is
            // the end of the chain, still counted by its predecessor's
            // link (or head_), so the CAS can only succeed on a live p.
            node* expected = nullptr;
            pool_.ref(q);  // the prospective link's reference (q is ours)
            testing_hooks::chaos_point(sched::step_kind::cas);  // before the link CAS
            if (p->next.compare_exchange_strong(expected, q, std::memory_order_seq_cst,
                                                std::memory_order_acquire)) {
                break;
            }
            pool_.unref(q);  // undo the speculative link reference
            node* succ = pool_.protect(p->next);
            pool_.drop(p);
            p = succ;
            bo();
        }
        // Swing the lagging tail (best effort, one attempt). The expected
        // value must be t0 — the value we actually read from tail_ — not
        // the end node we walked to: an expected-end swing can only
        // succeed while the lag is zero, so after one adverse interleave
        // leaves tail_ behind, no enqueuer would ever present the value
        // tail_ really holds and the lag (and every subsequent enqueue's
        // walk) would grow without bound. A successful CAS proves tail_
        // still counted t0, and that reference becomes ours.
        pool_.ref(q);  // tail_'s prospective reference
        testing_hooks::chaos_point(sched::step_kind::cas);  // before the tail swing
        node* expected_tail = t0;
        if (tail_.compare_exchange_strong(expected_tail, q, std::memory_order_seq_cst,
                                          std::memory_order_acquire)) {
            pool_.unref(t0);  // tail_'s reference to the displaced node
        } else {
            pool_.unref(q);  // someone else advanced it further
        }
        pool_.drop(p);   // our traversal reference (walk position)
        pool_.drop(t0);  // our traversal reference (swing anchor)
        pool_.unref(q);  // our private reference from alloc
    }

    std::optional<T> dequeue() {
        telemetry::prof::op_scope prof_op(telemetry::trace_op::dequeue, 0);
        guard g = pool_.make_guard();
        backoff bo;
        for (;;) {
            node* h = pool_.protect(head_);
            node* first = pool_.protect(h->next);
            if (first == nullptr) {
                pool_.drop(h);
                return std::nullopt;  // empty (linearizes at the null read)
            }
            // first gains the head_ root reference (speculatively).
            // Plain ref is sound: h is unreclaimed under our guard, so
            // its next link still counts `first`.
            pool_.ref(first);
            testing_hooks::chaos_point(sched::step_kind::cas);  // before the head swing
            node* expected = h;
            if (head_.compare_exchange_strong(expected, first, std::memory_order_seq_cst,
                                              std::memory_order_acquire)) {
                T out = std::move(first->value());
                pool_.drop(first);  // our traversal reference
                pool_.drop(h);      // our traversal reference
                pool_.unref(h);     // head_'s reference to the old dummy
                // first remains in the structure as the new dummy; its
                // payload has been moved out but stays constructed until
                // the node is reclaimed (cell persistence, §2.2).
                return out;
            }
            pool_.unref(first);  // undo speculation
            pool_.drop(first);   // traversal reference
            pool_.drop(h);
            bo();
        }
    }

    /// Heuristic under concurrency (unreferenced snapshot); exact when
    /// quiescent. Dequeue itself re-checks emptiness safely.
    bool empty() const {
        const node* h = head_.load(std::memory_order_acquire);
        return h->next.load(std::memory_order_acquire) == nullptr;
    }

    /// Quiescent-only length (walks the chain).
    std::size_t size_slow() const {
        std::size_t n = 0;
        const node* p = head_.load(std::memory_order_acquire);
        for (p = p->next.load(std::memory_order_acquire); p != nullptr;
             p = p->next.load(std::memory_order_acquire)) {
            ++n;
        }
        return n;
    }

    pool_type& pool() noexcept { return pool_; }

private:
    pool_type pool_;
    alignas(cacheline_size) std::atomic<node*> head_{nullptr};
    alignas(cacheline_size) std::atomic<node*> tail_{nullptr};
};

}  // namespace lfll
