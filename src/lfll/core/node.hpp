// List node: one type for the paper's normal cells, auxiliary nodes, and
// the First/Last dummy cells (§3, Fig. 4).
//
// The paper's auxiliary node "contains only a next field"; we nonetheless
// use a single node type for all four kinds so that (a) every node flows
// through the same fixed-size pool (§5.2: "free cells must all be of the
// same size"), and (b) algorithms can ask "is this a normal cell?" of an
// arbitrary successor, which TryDelete and Update need. The payload is
// raw storage that is only constructed for kind == cell.
//
// Reclamation state lives in the base class the MemoryPolicy provides
// (policy.hpp); for every shipped policy that is counted_header, i.e. the
// §5 refct word, so `node->refct` reads the same as in the paper.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "lfll/memory/policy.hpp"
#include "lfll/primitives/cacheline.hpp"

namespace lfll {

enum class node_kind : std::uint8_t {
    aux = 0,    ///< auxiliary node: only `next` is meaningful
    cell = 1,   ///< normal cell: carries a value, may be deleted
    head = 2,   ///< the First dummy cell
    tail = 3,   ///< the Last dummy cell
};

template <typename T, typename Policy = valois_refcount>
struct alignas(cacheline_size) list_node : Policy::header {
    std::atomic<list_node*> next{nullptr};
    /// Set once (null -> predecessor cell) by the winning deleter of this
    /// cell (Fig. 10 line 6); non-null implies "deleted from the list".
    std::atomic<list_node*> back_link{nullptr};
    /// Atomic because best-effort heuristics may read the kind of a node
    /// that is being recycled; such reads only gate retries, never safety.
    std::atomic<node_kind> kind{node_kind::aux};
    /// Bumped on every reclamation (on_reclaim). The traversal fast path
    /// reads an aux node without taking a counted reference and uses this
    /// counter to detect that the node was recycled out from under it:
    /// snapshot incarnation, re-validate pre_cell->next still points here,
    /// read through, re-check incarnation. Slabs never return to the OS,
    /// so a recycled read is stale, never a fault.
    std::atomic<std::uint64_t> incarnation{0};
    /// Version stamps for the snapshot/range-query layer (vCAS-lite).
    /// A cell is visible to a range query at timestamp t iff
    /// `born_ts <= t < dead_ts`. born_ts is stamped *after* the winning
    /// link CAS (0 means "insert still in flight" and readers exclude);
    /// dead_ts is stamped by the erase linearization CAS (inf -> D).
    /// Both are reset in construct_cell, never in on_reclaim: racy batch
    /// readers rely on node bytes mutating only strictly between
    /// incarnation bumps, and construct_cell happens-after the bump via
    /// the free-list pop chain.
    std::atomic<std::uint64_t> born_ts{0};
    std::atomic<std::uint64_t> dead_ts{~std::uint64_t{0}};

    alignas(T) unsigned char storage[sizeof(T)];

    /// The unit of the seqlock payload copy: the widest word up to 8 bytes
    /// that T's alignment admits (it divides sizeof(T), so no tail).
    using payload_word = std::conditional_t<
        alignof(T) >= 8, std::uint64_t,
        std::conditional_t<alignof(T) >= 4, std::uint32_t,
                           std::conditional_t<alignof(T) >= 2, std::uint16_t, std::uint8_t>>>;

    list_node() = default;
    list_node(const list_node&) = delete;
    list_node& operator=(const list_node&) = delete;

    bool is_aux() const noexcept { return kind.load(std::memory_order_acquire) == node_kind::aux; }
    bool is_cell() const noexcept { return kind.load(std::memory_order_acquire) == node_kind::cell; }
    bool is_tail() const noexcept { return kind.load(std::memory_order_acquire) == node_kind::tail; }
    /// "Normal cell" in the paper's sense: anything that is not auxiliary
    /// (the dummies are cells too; Update's scan stops at Last).
    bool is_normal() const noexcept { return !is_aux(); }
    bool is_deleted() const noexcept { return back_link.load(std::memory_order_acquire) != nullptr; }

    /// Payload access. Only valid for kind == cell; the value stays
    /// readable after deletion until the node is reclaimed ("cell
    /// persistence", §2.2), which the reference count guarantees cannot
    /// happen while anyone still holds a reference.
    T& value() noexcept { return *std::launder(reinterpret_cast<T*>(storage)); }
    const T& value() const noexcept {
        return *std::launder(reinterpret_cast<const T*>(storage));
    }

    /// Payloads the traversal superhop may copy out of a cell it holds no
    /// reference on (valois_list's batch_scannable). Two requirements,
    /// both load-bearing for soundness:
    ///   * trivially destructible — reclaim's payload teardown writes
    ///     nothing, so a cell's bytes mutate strictly between incarnation
    ///     bumps and the seqlock validation window is airtight;
    ///   * trivially copy-constructible — a copy is a byte copy, so a torn
    ///     racy read runs no user code before validation discards it.
    /// (Deliberately NOT is_trivially_copyable: std::pair's user-provided
    /// operator= fails that check while its copy remains a byte copy.)
    static constexpr bool seqlock_payload =
        std::is_trivially_destructible_v<T> && std::is_trivially_copy_constructible_v<T>;

    /// Constructs the payload and marks this node a normal cell. The node
    /// must be private to the caller (freshly allocated). A seqlock
    /// payload is written as Boehm's seqlock writer does ("Can seqlocks
    /// get along with programming language memory models?", MSPC 2012):
    /// a release fence after the incarnation bump that freed the node,
    /// then relaxed atomic word stores, so an unreferenced reader's racy
    /// copy (load_payload) is a data-race-free read the incarnation
    /// re-check then accepts or discards.
    template <typename... Args>
    void construct_cell(Args&&... args) {
        born_ts.store(0, std::memory_order_relaxed);
        dead_ts.store(~std::uint64_t{0}, std::memory_order_relaxed);
        if constexpr (seqlock_payload) {
            const T v(std::forward<Args>(args)...);
            const auto* bytes = reinterpret_cast<const unsigned char*>(&v);
            std::atomic_thread_fence(std::memory_order_release);
            for (std::size_t i = 0; i < sizeof(T); i += sizeof(payload_word)) {
                payload_word w;
                std::memcpy(&w, bytes + i, sizeof w);
                std::atomic_ref<payload_word>(*reinterpret_cast<payload_word*>(storage + i))
                    .store(w, std::memory_order_relaxed);
            }
        } else {
            ::new (static_cast<void*>(storage)) T(std::forward<Args>(args)...);
        }
        kind.store(node_kind::cell, std::memory_order_release);
    }

    /// The seqlock reader's copy of a seqlock payload into `dst`: relaxed
    /// atomic word loads, possibly racing construct_cell on a recycled
    /// node. The caller brackets it with the incarnation load before and
    /// an acquire fence plus incarnation re-check after, and discards the
    /// bytes on a mismatch.
    void load_payload(unsigned char* dst) const noexcept
        requires seqlock_payload
    {
        for (std::size_t i = 0; i < sizeof(T); i += sizeof(payload_word)) {
            auto* word = const_cast<payload_word*>(
                reinterpret_cast<const payload_word*>(storage + i));
            const payload_word w = std::atomic_ref<payload_word>(*word).load(
                std::memory_order_relaxed);
            std::memcpy(dst + i, &w, sizeof w);
        }
    }

    // --- node_pool hooks -------------------------------------------------

    /// Hands each counted outgoing link to the reclamation cascade. If the
    /// payload type itself holds counted links into the same pool (e.g.
    /// the skip list's `down` pointers), it exposes them by defining
    /// `counted_links(sink)` and they are dropped here, while the payload
    /// is still alive.
    template <typename Sink>
    void drop_links(Sink&& drop) noexcept {
        drop(next.exchange(nullptr, std::memory_order_acq_rel));
        drop(back_link.exchange(nullptr, std::memory_order_acq_rel));
        if constexpr (requires(T& t) { t.counted_links(drop); }) {
            if (kind.load(std::memory_order_acquire) == node_kind::cell) {
                value().counted_links(drop);
            }
        }
    }

    /// Destroys the payload (if any) and resets the node for reuse.
    void on_reclaim() noexcept {
        if (kind.load(std::memory_order_acquire) == node_kind::cell) {
            value().~T();
        }
        kind.store(node_kind::aux, std::memory_order_release);
        // Invalidate any unreferenced fast-path snapshot of this node.
        incarnation.fetch_add(1, std::memory_order_acq_rel);
    }
};

}  // namespace lfll
