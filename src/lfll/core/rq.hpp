// Snapshot / range-query support: a per-container timestamp source plus
// a victim hand-off registry (EBR-RQ shape, vCAS-lite stamps).
//
// Every dictionary owns one `rq::registry`. A range query draws a
// timestamp `t` (one fetch_add on the shared counter — its single
// linearization point) and walks the structure; a cell is included iff
// `born_ts <= t < dead_ts`. Mutators stamp `born_ts` *after* the winning
// link CAS (a zero stamp means "insert still in flight", which readers
// exclude — both choices are linearizable while the insert's
// [link CAS, stamp] window is open, and an external happens-before edge
// into the reader forces the stamped value to be visible, so exclusion
// is always safe). Point operations cannot exclude that way: a find
// that reports a linked, unstamped cell present would contradict a range
// query drawn after it that still reads 0. So a point read, a failing
// insert or an erase that meets an equal live cell at born_ts == 0 first
// stamps it itself (stamp_born: CAS 0 -> now, first stamp wins; the
// inserter's own stamp is the same CAS). An erase linearizes at
// `dead_ts.CAS(inf -> D)`.
//
// The registry closes the one hole a plain stamped walk has: a cell that
// is marked dead *and physically unlinked* before the walk reaches its
// position. The unlinking thread hands the victim's closed interval
// [born, dead) to every in-flight query that could still need it, and
// the query merges those records with its walk. The ordering argument:
//
//   relevant query  =>  t < D
//   t < D           =>  the query's counter fetch_add returned t, and the
//                       deleter's load that produced D observed a counter
//                       value >= t+1, so in the counter's single total
//                       modification order   fetch_add(t)  <  load(D)
//   the deleter scans slots *after* publishing D (and before unlinking),
//   so the scan is later still. Hence the scan observes the slot either
//   `preparing` or `active(t)` (push the victim), or already retired —
//   in which case the query finished before the unlink and saw the cell
//   linked, stamps intact.
//
// Stale pushes (a slot retired and reclaimed between the state load and
// the push) are harmless: records are true closed history intervals, so
// any future query that drains one filters it by its own (necessarily
// later) timestamp and drops it.
#pragma once

#include <atomic>
#include <cstdint>

#include "lfll/primitives/cacheline.hpp"
#include "lfll/primitives/test_hooks.hpp"

namespace lfll::rq {

/// dead_ts value of a live cell; born/dead stamps never reach it.
inline constexpr std::uint64_t kInfTs = ~std::uint64_t{0};

/// Stamps born_ts 0 -> now unless it already carries a stamp; returns
/// the stamp it ends up with. Run by the inserter after its link CAS and
/// by any point operation that meets the linked cell still at 0, so the
/// stamp lands inside the insert's own window.
inline std::uint64_t stamp_born(std::atomic<std::uint64_t>& born, std::uint64_t now) noexcept {
    std::uint64_t seen = 0;
    if (born.compare_exchange_strong(seen, now, std::memory_order_seq_cst,
                                     std::memory_order_acquire)) {
        return now;
    }
    return seen;
}

/// One container's range-query state. `Victim` is the per-structure
/// hand-off record; it must expose `born` and `dead` members (the closed
/// interval) plus whatever identity/payload the merge step needs.
template <typename Victim>
class registry {
public:
    /// Concurrent-range-query slots. Queries beyond them spin-wait for a
    /// slot; a mutator's hand-off scans every slot.
    static constexpr int kMaxSlots = 64;
    /// Slot states: 0 = free, kPreparing = claimed but timestamp not yet
    /// drawn (mutators must push conservatively), else (t << 1) | 1.
    static constexpr std::uint64_t kPreparing = 1;

    registry() noexcept = default;
    registry(const registry&) = delete;
    registry& operator=(const registry&) = delete;
    ~registry() {
        for (int i = 0; i < kMaxSlots; ++i) {
            free_chain(slots_[i].victims.exchange(nullptr, std::memory_order_relaxed));
        }
    }

    /// Timestamps are drawn from 1; 0 is reserved for "unstamped".
    std::uint64_t now() const noexcept { return counter_.load(std::memory_order_seq_cst); }

    /// stamp_born against this container's clock.
    std::uint64_t stamp(std::atomic<std::uint64_t>& born) const noexcept {
        return stamp_born(born, now());
    }

    /// A point operation's verdict on the equal-key cell it holds a
    /// reference on: live unless tombstoned, and a live cell still at
    /// born == 0 is stamped first (see the header comment).
    template <typename Cell>
    bool live(Cell* n) const noexcept {
        if (n->dead_ts.load(std::memory_order_acquire) != kInfTs) return false;
        if (n->born_ts.load(std::memory_order_acquire) == 0) stamp(n->born_ts);
        return true;
    }

    struct ticket {
        int slot;
        std::uint64_t t;
    };

    /// Claim a slot and draw the query timestamp (the linearization
    /// point). Spins when more than `kMaxSlots` queries are in flight.
    ticket begin() noexcept {
        active_.fetch_add(1, std::memory_order_seq_cst);
        for (;;) {
            for (int i = 0; i < kMaxSlots; ++i) {
                std::uint64_t expected = 0;
                if (slots_[i].state.compare_exchange_strong(
                        expected, kPreparing, std::memory_order_seq_cst,
                        std::memory_order_relaxed)) {
                    testing_hooks::chaos_point(sched::step_kind::rq_validate);
                    const std::uint64_t t =
                        counter_.fetch_add(1, std::memory_order_seq_cst);
                    testing_hooks::chaos_point(sched::step_kind::rq_validate);
                    slots_[i].state.store((t << 1) | 1, std::memory_order_seq_cst);
                    return {i, t};
                }
            }
            cpu_relax();
        }
    }

    /// Retire the ticket and drain its victim chain through `consume`.
    /// The chain may contain records from earlier slot users (stale
    /// pushes) and duplicates of cells the walk already saw; `consume`
    /// must filter by `born <= t < dead` and dedup by key.
    template <typename Consume>
    void end(const ticket& tk, Consume&& consume) {
        slot& s = slots_[tk.slot];
        testing_hooks::chaos_point(sched::step_kind::rq_validate);
        // Retire the slot *before* draining: pushes that raced past the
        // drain belong to the next slot user, whose later timestamp
        // filters them out.
        s.state.store(0, std::memory_order_seq_cst);
        victim_node* chain = s.victims.exchange(nullptr, std::memory_order_acq_rel);
        active_.fetch_sub(1, std::memory_order_seq_cst);
        while (chain != nullptr) {
            victim_node* next = chain->next;
            consume(static_cast<const Victim&>(chain->v));
            delete chain;
            chain = next;
        }
    }

    /// True when any range query is in flight. Mutators use this to skip
    /// even *constructing* a victim record on the (overwhelmingly common)
    /// no-query path. Safe as a gate by the same ordering argument as
    /// hand_off's own check: a query whose timestamp makes the victim
    /// relevant incremented active_ (seq_cst) before our dead stamp was
    /// drawn, so this load cannot miss it.
    bool armed() const noexcept {
        return active_.load(std::memory_order_seq_cst) != 0;
    }

    /// Called by an unlinking mutator *after* the victim's dead stamp is
    /// published and *before* the physical unlink. Pushes the record to
    /// every slot that might still need it.
    void hand_off(const Victim& v) {
        if (active_.load(std::memory_order_seq_cst) == 0) return;
        testing_hooks::chaos_point(sched::step_kind::version_publish);
        for (int i = 0; i < kMaxSlots; ++i) {
            const std::uint64_t s = slots_[i].state.load(std::memory_order_seq_cst);
            if (s == 0) continue;
            if (s != kPreparing) {
                const std::uint64_t t = s >> 1;
                if (t < v.born || t >= v.dead) continue;
            }
            push(slots_[i], v);
        }
    }

private:
    struct victim_node {
        Victim v;
        victim_node* next;
    };

    struct alignas(cacheline_size) slot {
        std::atomic<std::uint64_t> state{0};
        std::atomic<victim_node*> victims{nullptr};
    };

    void push(slot& s, const Victim& v) {
        auto* n = new victim_node{v, s.victims.load(std::memory_order_relaxed)};
        while (!s.victims.compare_exchange_weak(n->next, n,
                                                std::memory_order_release,
                                                std::memory_order_relaxed)) {
        }
    }

    static void free_chain(victim_node* chain) noexcept {
        while (chain != nullptr) {
            victim_node* next = chain->next;
            delete chain;
            chain = next;
        }
    }

    alignas(cacheline_size) std::atomic<std::uint64_t> counter_{1};
    alignas(cacheline_size) std::atomic<int> active_{0};
    slot slots_[kMaxSlots];
};

}  // namespace lfll::rq
