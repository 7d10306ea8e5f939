// The Valois lock-free singly-linked list (§3).
//
// Structure invariants (checked by core/audit.hpp):
//   * The list runs First(dummy) -> aux -> ... -> aux -> Last(dummy).
//   * Every normal cell has an auxiliary node as predecessor and successor.
//   * Chains of adjacent auxiliary nodes may exist transiently, but only
//     while some TryDelete is in progress (§3's theorem); Update and
//     TryDelete compact them.
//
// All mutation is by single-word CAS on `next` fields, with the counted-
// link discipline described in memory/node_pool.hpp. Reclamation is
// pluggable (memory/policy.hpp): the Policy parameter decides what a
// traversal hop costs (SafeRead's two RMWs, a hazard publish, or a plain
// load under an epoch pin) and when dead nodes recycle; the default is
// the paper's §5 scheme, under which the operations map 1:1 onto the
// paper's figures:
//   first()      — Fig. 6        try_insert() — Fig. 9
//   next()       — Fig. 7        try_delete() — Fig. 10
//   update()     — Fig. 5
//
// --- Traversal fast path (counting policies) ----------------------------
//
// A literal Fig. 5-7 hop under §5 counting costs ~6 RMWs: SafeRead the
// aux (2), SafeRead the next cell (2), Release the old pre_cell and
// pre_aux (2). The fast path cuts that per hop, and per segment of up
// to kScanBatch cells, with these mechanisms (see DESIGN.md "Traversal
// fast path"). One walker, walk(), runs them for every traversal:
// scans, point lookups, mutator seeks and next().
//
//  1. Aux reference elision. The cursor's pre_aux is demoted to an
//     UNREFERENCED hint under every policy: hops read the aux through
//     the ref'd predecessor without counting it, validated by an
//     incarnation check (node.hpp) sandwiched around a seq_cst re-read
//     of the predecessor's next (hop_over_aux below). Slabs never
//     return to the OS, so a stale read is harmless; the validation
//     only decides fast-commit vs slow-path.
//  2. Borrowed starts. A walk from head_ or from a bucket dummy (which
//     the split map's directory slot pins, and which is never deleted)
//     takes no reference on it; a cursor may hold such a pre_cell
//     BORROWED (cursor::holds_pre_cell). Further along, each position
//     the walk keeps carries exactly one reference, handed over
//     hand-over-hand instead of by a copy+drop pair.
//  3. Software prefetch of the hop-after-next while the current hop's
//     validation retires.
//  4. Batched hops (trivially-copyable payloads only): a walk crosses
//     up to kScanBatch cells per protect by walking the chain with
//     plain loads, snapshotting each payload seqlock-style, and
//     validating the whole segment with one incarnation sweep before
//     any snapshot is surfaced (batch_hop below). Any mismatch discards
//     the batch and falls back to the per-cell hop. Each scan ramps its
//     segment cap 2, 4, 8, then kScanBatch, so a short scan does not
//     read far past the cell where its visitor stops. A steered walk
//     (lookup, seek, a scan's skip prefix) protects no full segment's
//     end: it rolls the validation window on, carrying the segment's
//     last cell and aux into the next segment's sweep (roll_window).
//     If a rolled window fails, the walk upgrades the carried cell
//     (try_ref plus incarnation re-check) or, failing that, goes on
//     from its last live position with one protect per segment.
//  5. Read-only seeks, referenced landings. A mutator seek (seek_while)
//     runs the predicate on each validated payload copy, so its segment
//     ends AT the landing cell, and it takes references only on the
//     triple the Figs. 9-10 CASes go through: target is the segment
//     end's protect, and an interior pre_cell is upgraded with try_ref
//     and a re-sweep of the WHOLE window, which proves the reference
//     attached to the node the snapshot read. next() is the same seek,
//     one cell long.
//  6. Read-only landing (lookup_from): a point lookup's superhop ends
//     at its landing cell like a seek's but takes no reference there;
//     with the rolling window, a lookup from a borrowed start does no
//     RMW at all, however many segments it crosses.
//
// Mutators never trust the hint: try_insert/try_delete re-pin the
// CURRENT aux via protect(pre_cell->next) — the swing's
// CAS-expected target still detects staleness, exactly as in Figs.
// 9-10.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "lfll/core/node.hpp"
#include "lfll/core/rq.hpp"
#include "lfll/memory/node_pool.hpp"
#include "lfll/memory/policy.hpp"
#include "lfll/telemetry/op_counters.hpp"

namespace lfll {

template <typename T, typename Policy = valois_refcount>
class valois_list {
public:
    using policy_type = Policy;
    using node = list_node<T, Policy>;
    using pool_type = node_pool<node, Policy>;
    using guard = typename pool_type::guard;

    class cursor;

    explicit valois_list(std::size_t initial_capacity = 1024)
        : owned_pool_(std::make_unique<pool_type>(initial_capacity + 3)),
          pool_(owned_pool_.get()) {
        init_dummies();
    }

    /// Builds a list on a pool owned elsewhere. Several lists may share
    /// one pool — required when payloads hold counted links across lists
    /// (the skip list's levels) — and the pool must outlive them all.
    explicit valois_list(pool_type& shared_pool) : pool_(&shared_pool) { init_dummies(); }

private:
    void init_dummies() {
        // Fig. 4: an empty list is First -> aux -> Last.
        head_ = pool_->alloc();
        head_->kind.store(node_kind::head, std::memory_order_relaxed);
        tail_ = pool_->alloc();
        tail_->kind.store(node_kind::tail, std::memory_order_relaxed);
        node* aux = pool_->alloc();
        aux->kind.store(node_kind::aux, std::memory_order_relaxed);
        // Wire head -> aux -> tail. Link accounting: head_'s and tail_'s
        // root pointers keep the private references alloc() handed us; the
        // head->aux link consumes aux's private reference; the aux->tail
        // link is a second reference on tail and must be acquired.
        aux->next.store(pool_->ref(tail_), std::memory_order_relaxed);
        head_->next.store(aux, std::memory_order_relaxed);
    }

public:
    /// Tears the chain down through the normal reclamation cascade so
    /// payload destructors run and, with a shared pool, the nodes return
    /// for other lists to reuse. Requires quiescence and no outstanding
    /// cursors (cursor references would — correctly — keep nodes alive,
    /// but the cursor would then outlive its list, which is UB by
    /// contract). Runs before member destruction, so the pool (owned or
    /// not) is still alive.
    ~valois_list() {
        if (head_ != nullptr) {
            node* first_aux = head_->next.exchange(nullptr, std::memory_order_acq_rel);
            pool_->unref(first_aux);  // cascades down the chain
            pool_->unref(head_);
            pool_->unref(tail_);
        }
    }

    valois_list(const valois_list&) = delete;
    valois_list& operator=(const valois_list&) = delete;

    /// A cursor is the paper's (pre_cell, pre_aux, target) triple. It
    /// holds one traversal reference on target and, unless it borrows it,
    /// on pre_cell, and keeps a policy guard engaged for its whole
    /// attached lifetime, so the nodes it points at — even deleted ones —
    /// cannot be recycled under it (counts under refcount/hazard, the
    /// pin's grace period under epochs). A BORROWED pre_cell is head_ or
    /// a node its owner pins for the list's lifetime (a bucket dummy):
    /// the cursor takes no reference on it and never drops one.
    /// pre_aux is an UNREFERENCED hint under every policy (the traversal
    /// fast path's aux elision): reads through it are racy but safe —
    /// slabs never return to the OS — and every consumer either
    /// validates it against pre_aux->next == target (update's early-out,
    /// valid()) or ignores it and re-pins the current aux from the
    /// pre_cell (mutators). Cursors are thread-local objects: copy them
    /// only on the owning thread.
    class cursor {
    public:
        cursor() = default;
        explicit cursor(valois_list& l) : list_(&l) { l.first(*this); }

        cursor(const cursor& o) : list_(o.list_), guard_(o.guard_), pre_held_(o.pre_held_) {
            pre_cell_ = pre_held_ ? copy(o.pre_cell_) : o.pre_cell_;
            pre_aux_ = o.pre_aux_;  // hint: no reference to duplicate
            target_ = copy(o.target_);
        }

        cursor& operator=(const cursor& o) {
            if (this == &o) return *this;
            cursor tmp(o);
            swap(tmp);
            return *this;
        }

        cursor(cursor&& o) noexcept { swap(o); }
        cursor& operator=(cursor&& o) noexcept {
            if (this != &o) {
                reset();
                swap(o);
            }
            return *this;
        }

        ~cursor() { reset(); }

        /// Releases all references (then the guard); cursor becomes
        /// detached.
        void reset() noexcept {
            if (list_ == nullptr) return;
            if (pre_held_) list_->pool_->drop(pre_cell_);
            list_->pool_->drop(target_);  // pre_aux_ is a hint: nothing to drop
            pre_cell_ = pre_aux_ = target_ = nullptr;
            pre_held_ = false;
            guard_.reset();
        }

        /// True when the cursor is at the end-of-list position.
        bool at_end() const noexcept { return target_ != nullptr && target_->is_tail(); }

        /// True when the cursor still reflects the list structure
        /// (pre_aux -> target). Invalidated by concurrent (or own)
        /// insertions/deletions nearby; revalidate with list.update().
        bool valid() const noexcept {
            return target_ != nullptr &&
                   pre_aux_ != nullptr &&
                   pre_aux_->next.load(std::memory_order_acquire) == target_;
        }

        /// The visited item. Only callable when !at_end() and the target is
        /// a normal cell (which it always is for a cursor produced by
        /// first()/next()/update()).
        T& operator*() const noexcept {
            assert(target_ != nullptr && target_->is_cell());
            return target_->value();
        }

        node* target() const noexcept { return target_; }
        node* pre_aux() const noexcept { return pre_aux_; }
        node* pre_cell() const noexcept { return pre_cell_; }
        /// Whether pre_cell carries a traversal reference of this cursor
        /// (false while it is borrowed). Audits declare only held ones.
        bool holds_pre_cell() const noexcept { return pre_held_; }
        valois_list* list() const noexcept { return list_; }

        void swap(cursor& o) noexcept {
            std::swap(list_, o.list_);
            guard_.swap(o.guard_);
            std::swap(pre_cell_, o.pre_cell_);
            std::swap(pre_held_, o.pre_held_);
            std::swap(pre_aux_, o.pre_aux_);
            std::swap(target_, o.target_);
        }

    private:
        friend class valois_list;

        node* copy(node* p) const noexcept {
            return list_ == nullptr ? nullptr : list_->pool_->copy(p);
        }

        /// Steps pre_cell onto `n`, whose traversal reference the cursor
        /// takes over; a held pre_cell's reference departs.
        void hold_pre(node* n) noexcept {
            if (pre_held_) list_->pool_->drop(pre_cell_);
            pre_cell_ = n;
            pre_held_ = true;
        }

        valois_list* list_ = nullptr;
        guard guard_;
        node* pre_cell_ = nullptr;
        bool pre_held_ = false;
        node* pre_aux_ = nullptr;
        node* target_ = nullptr;
    };

    // --- traversal (Figs. 5-7) -------------------------------------------

    /// Attaches c at `start` without positioning it: pre_cell borrows
    /// start, which must be head() or a node the caller pins for the
    /// list's lifetime (a bucket dummy), and target stays unset. The
    /// next seek_while() walks read-only from start; update() positions
    /// c right after it.
    void anchor(cursor& c, node* start) {
        assert(start != nullptr && start->is_normal());
        c.reset();
        c.list_ = this;
        c.guard_ = pool_->make_guard();
        c.pre_cell_ = start;
    }

    /// Fig. 6: positions c at the first item (or end-of-list if empty).
    /// pre_cell borrows head_ (the root pointer never changes).
    void first(cursor& c) {
        anchor(c, head_);
        reposition(c);
    }

    /// Fig. 7: advances c one position. Returns false at end-of-list. A
    /// one-cell seek: steady state under a counting policy is one
    /// protect (on the next cell), the aux elided, the old pre_cell's
    /// reference released — ~2 RMWs instead of the literal ~6.
    bool next(cursor& c) {
        assert(c.list_ == this && c.target_ != nullptr);
        if (c.target_->is_tail()) return false;
        c.hold_pre(c.target_);  // hand-over-hand: the target reference transfers
        c.target_ = nullptr;
        walk<walk_mode::seek>(c.pre_cell_, c, [](const T&) { return false; }, nullptr, 1);
        return true;
    }

    /// Ordered seek: advances c while `pred(value)` holds, stopping at
    /// the first cell whose payload fails the predicate or at
    /// end-of-list. This is the dictionaries' find loop, lifted into the
    /// list so it rides the read-only walker: from an anchor()ed cursor
    /// it walks from the borrowed start, from a positioned one from its
    /// target, and it takes references only at the landing, where the
    /// caller's try_insert/try_delete see the ordinary triple contract.
    /// `pred` must be pure (it may run on snapshot copies, ahead of the
    /// cursor, and more than once per cell).
    template <typename Pred>
    void seek_while(cursor& c, Pred&& pred) {
        assert(c.list_ == this && c.pre_cell_ != nullptr);
        if (c.target_ != nullptr) {  // positioned: resume from the target
            if (c.target_->is_tail()) return;
            instrument::tls().cells_traversed++;
            if (!pred(static_cast<const T&>(c.target_->value()))) return;
            c.hold_pre(c.target_);
            c.target_ = nullptr;
        }
        walk<walk_mode::seek>(c.pre_cell_, c, pred);
    }

    /// Fig. 5: makes c valid again, skipping (and best-effort compacting)
    /// auxiliary-node chains. target ends on the next normal cell or Last.
    void update(cursor& c) {
        assert(c.list_ == this && c.pre_cell_ != nullptr);
        testing_hooks::chaos_point(sched::step_kind::revalidate);
        // Early-out anchored at the referenced pre_cell. Its next always
        // names the current auxiliary node, and that aux is kept live by
        // the link's own reference — so reading a->next is not a read of
        // recycled memory. (Checking only the unreferenced pre_aux_ hint
        // here would be unsound: a recycled hint whose next happens to
        // equal target would make this early-out fire forever while the
        // mutators' CASes keep failing — a livelock.) A transient
        // unlink/recycle between the two loads can still produce one
        // spurious pass; the next failed CAS routes back here and re-reads.
        if (c.target_ != nullptr) {
            node* a = c.pre_cell_->next.load(std::memory_order_acquire);
            if (a != nullptr && a->is_aux() &&
                a->next.load(std::memory_order_acquire) == c.target_) {
                c.pre_aux_ = a;  // refresh the hint while we are here
                return;          // already valid
            }
        }
        reposition(c);
    }

    // --- mutation (Figs. 9-10) -------------------------------------------

    /// Allocates a cell node carrying `args...` and an auxiliary node, for
    /// use with try_insert. The caller owns one counted reference on each
    /// and must release them (release_node) when done — whether or not the
    /// pair was successfully inserted (the list takes its own references
    /// via links).
    template <typename... Args>
    node* make_cell(Args&&... args) {
        node* q = pool_->alloc();
        q->construct_cell(std::forward<Args>(args)...);
        return q;
    }

    node* make_aux() {
        node* a = pool_->alloc();
        a->kind.store(node_kind::aux, std::memory_order_release);
        return a;
    }

    void release_node(node* p) noexcept { pool_->unref(p); }

    /// Fig. 9: inserts cell q followed by auxiliary node a at the position
    /// before c's target. Requires c valid; returns false (leaving q and a
    /// unlinked, reusable for a retry) if the CAS loses a race — or if the
    /// cursor's target has already been retired under a deferred policy
    /// (the cursor is then stale by definition; update() recovers).
    bool try_insert(cursor& c, node* q, node* a) {
        assert(c.list_ == this && q->is_cell() && a->is_aux());
        store_link(q->next, a);
        if (!store_link_checked(a->next, c.target_)) {
            instrument::tls().insert_retries++;
            return false;
        }
        // Re-pin the CURRENT aux after pre_cell: the cursor's pre_aux_ is
        // an unreferenced hint and must not be CAS'd through. The swing's
        // expected == target still detects staleness — if pa is not the
        // aux before target, the CAS fails and the caller update()s.
        node* pa = pool_->protect(c.pre_cell_->next);
        if (pa == nullptr || !pa->is_aux()) {  // defensive: see reposition()
            pool_->drop(pa);
            instrument::tls().insert_retries++;
            return false;
        }
        const bool won = swing(pa->next, c.target_, q);
        if (won) c.pre_aux_ = pa;  // refresh the hint: pa->next == q now
        pool_->drop(pa);
        if (!won) instrument::tls().insert_retries++;
        return won;
    }

    /// Convenience: retries try_insert (re-validating with update) until
    /// the value is inserted at the cursor's (current) position. On
    /// return the cursor targets the inserted cell — valid by
    /// construction (the winning swing left pre_aux->next == q), so no
    /// trailing rescan is needed.
    void insert(cursor& c, T value) {
        node* q = make_cell(std::move(value));
        node* a = make_aux();
        while (!try_insert(c, q, a)) update(c);
        pool_->unref(a);
        land_on_inserted(c, q);
    }

    /// After a winning try_insert(c, q, a): repoint the cursor AT the
    /// freshly linked cell, consuming the caller's allocation reference
    /// on q. The winning swing left pre_aux->next == q, so the landed
    /// triple is valid by construction. Batched multi-ops resume the next
    /// key's seek from here — a later equal-key op in the same batch must
    /// observe the cell this one linked.
    void land_on_inserted(cursor& c, node* q) noexcept {
        assert(c.list_ == this && q->is_cell());
        if constexpr (pool_type::counts_traversal) {
            pool_->drop(c.target_);
            c.target_ = q;  // q's alloc reference becomes the cursor's
        } else {
            c.target_ = q;  // traversal references are free here
            pool_->unref(q);  // the list's link holds its own reference
        }
    }

    /// Fig. 10: deletes c's target from the list. Returns false if the
    /// cursor was invalid (structure changed); the cursor is left pointing
    /// at the deleted cell on success — call update() to move on.
    bool try_delete(cursor& c) {
        assert(c.list_ == this && c.target_ != nullptr);
        node* d = c.target_;
        if (!d->is_cell()) return false;  // cannot delete the dummies
        auto& ctr = instrument::tls();
        // Unlink d: swing the aux before d from d to the aux after d. The
        // aux is re-pinned from the ref'd pre_cell (the cursor's pre_aux_
        // is an unreferenced hint); the CAS expecting d detects staleness.
        node* n = pool_->protect(d->next);
        node* pa = pool_->protect(c.pre_cell_->next);
        if (pa == nullptr || !pa->is_aux() || !swing(pa->next, d, n)) {
            pool_->drop(pa);
            pool_->drop(n);
            ctr.delete_retries++;
            return false;
        }
        c.pre_aux_ = pa;  // refresh the hint (pa->next == n: cursor invalid, as documented)
        pool_->drop(pa);
        // Fig. 10 line 6: leave a trail for deleters of adjacent cells.
        // Best effort under deferred policies: if pre_cell was itself
        // retired meanwhile, the trail stays null and retreating deleters
        // simply stop one hop short (compaction remains best-effort).
        testing_hooks::chaos_point(sched::step_kind::back_link);
        publish_back_link(d->back_link, c.pre_cell_);

        // Retreat to the first cell that has not itself been deleted.
        node* p = pool_->copy(c.pre_cell_);
        for (;;) {
            node* bl = pool_->protect(p->back_link);
            if (bl == nullptr) break;
            pool_->drop(p);
            p = bl;
        }
        // s: current head of the auxiliary chain following p.
        node* s = pool_->protect(p->next);
        // Advance n to the last auxiliary node of the chain (lines 13-16).
        for (;;) {
            node* nn = pool_->protect(n->next);
            if (nn->is_normal()) {
                pool_->drop(nn);
                break;
            }
            pool_->drop(n);
            n = nn;
        }
        // Lines 17-21: swing p->next across the chain. Give up if p gets
        // deleted or the chain grows past n — the deleter that caused
        // either will finish the compaction (§3's progress argument).
        for (;;) {
            if (swing(p->next, s, n)) break;
            pool_->drop(s);
            s = pool_->protect(p->next);
            if (p->is_deleted()) break;
            node* after = n->next.load(std::memory_order_acquire);
            if (after == nullptr || !after->is_normal()) break;  // chain grew
        }
        pool_->drop(p);
        pool_->drop(s);
        pool_->drop(n);
        return true;
    }

    // --- introspection ----------------------------------------------------

    node* head() const noexcept { return head_; }
    node* tail() const noexcept { return tail_; }
    pool_type& pool() noexcept { return *pool_; }
    const pool_type& pool() const noexcept { return *pool_; }

    /// Positions c immediately AFTER `start`, which must be a cell the
    /// caller holds a counted reference on (it may be deleted — traversal
    /// resumes on the live suffix, per cell persistence). Used by the skip
    /// list to descend via `down` pointers without rescanning from First.
    void seek(cursor& c, node* start) {
        anchor(c, start);
        c.hold_pre(pool_->copy(start));  // a counted start: it may be deleted
        reposition(c);
    }

    /// Lightweight read-only traversal: visits each cell's payload in
    /// list order until `visit` returns false. Holds at most one traversal
    /// reference at a time instead of a full cursor triple — use it for
    /// read-only walks; use cursors when the position will be mutated.
    /// Under counting policies the steady state is the batched superhop
    /// (one protect per segment), with the cell-to-cell fast hop as its
    /// fallback; under epochs every step is already a plain load. Fully
    /// concurrent-safe.
    template <typename Visit>
    void scan(Visit&& visit) {
        scan_from(head_, std::forward<Visit>(visit));  // root pointer: never changes
    }

    /// Stamped scan for the snapshot/range-query layer: identical
    /// traversal engine (superhop, aux elision), but the visitor receives
    /// each cell's version stamps alongside the payload:
    ///   visit(const T&, uint64_t born_ts, uint64_t dead_ts) -> bool
    /// Batched segments surface the stamps captured inside the same
    /// incarnation-validated window as the payload copy, so a validated
    /// (payload, born, dead) triple is an atomic snapshot of the cell.
    /// scan()/scan_from() accept stamped visitors directly; these names
    /// exist so call sites read as what they are.
    template <typename Visit>
    void snapshot_scan(Visit&& visit) {
        scan(std::forward<Visit>(visit));
    }

    template <typename Visit>
    void snapshot_scan_from(node* start, Visit&& visit) {
        scan_from(start, std::forward<Visit>(visit));
    }

    /// As scan(), but starting immediately AFTER `start`, which the caller
    /// keeps provably live for the duration (a root pointer, or a counted
    /// link or reference it owns — e.g. a hash bucket's dummy-cell
    /// anchor). `start` is BORROWED: the walk takes no reference on it,
    /// and it is not visited. The split-ordered hash map uses this to
    /// begin walks at a bucket shortcut instead of First.
    template <typename Visit>
    void scan_from(node* start, Visit&& visit) {
        assert(start != nullptr && start->is_normal());
        guard g = pool_->make_guard();
        walk<walk_mode::scan>(start, std::forward<Visit>(visit));
    }

    /// As scan_from, but the cells from the front for which the pure
    /// `skip(value)` holds are crossed unvisited, read-only, as a lookup
    /// crosses them (it may run on snapshot copies, more than once per
    /// cell). The walk lands on the first cell that fails it with one
    /// counted reference, and `visit` sees that cell and the rest as in
    /// scan_from. The range-query layer steers to its lower bound so.
    template <typename Skip, typename Visit>
    void scan_from(node* start, Skip&& skip, Visit&& visit) {
        assert(start != nullptr && start->is_normal());
        guard g = pool_->make_guard();
        walk<walk_mode::scan>(start, std::forward<Visit>(visit), skip);
    }

    /// Read-only point lookup from `start` (borrowed, as in scan_from):
    /// walks while the pure `keep_going(value)` holds and calls
    ///   land(const T&, uint64_t born_ts, uint64_t dead_ts)
    /// once, on the first cell that fails it (never at Last). A landing
    /// inside a superhop segment takes NO counted reference: `land` sees
    /// the validated copy (batch_hop's read-only landing). A live landing
    /// cell still at born == 0 (an insert in flight) is stamped from
    /// clock() first, on a reference taken for just that (core/rq.hpp).
    template <typename Pred, typename Land, typename Clock>
    void lookup_from(node* start, Pred&& keep_going, Land&& land, Clock&& clock) {
        assert(start != nullptr && start->is_normal());
        guard g = pool_->make_guard();
        walk<walk_mode::lookup>(start, std::forward<Land>(land), keep_going, clock);
    }

private:
    /// True when the scan visitor wants version stamps alongside the
    /// payload (the snapshot/range-query layer's shape).
    template <typename Visit>
    static constexpr bool stamped_visitor =
        std::is_invocable_v<Visit&, const T&, std::uint64_t, std::uint64_t>;

    template <typename Visit>
    static bool visit_cell(Visit& visit, const T& v, std::uint64_t born, std::uint64_t dead) {
        if constexpr (stamped_visitor<Visit>) {
            return visit(v, born, dead);
        } else {
            return visit(v);
        }
    }

    /// What walk() does with the cells it reaches.
    enum class walk_mode {
        scan,    ///< visit every cell until the visitor returns false
        lookup,  ///< steer by the predicate, land read-only (lookup_from)
        seek,    ///< steer by the predicate, land the cursor (seek_while, next)
    };

    /// The one traversal engine. `start` is live for the whole call: a
    /// borrowed node, or (seek) the cursor's pre_cell. Later positions
    /// hold one traversal reference each; a read-only landing holds none.
    ///   * scan: `visit` sees each cell until it returns false. With a
    ///     pure `keep_going` (scan_from's `skip`), the cells it passes
    ///     are crossed unvisited first, as a lookup crosses them.
    ///   * lookup: the pure `keep_going` steers the superhop and `visit`
    ///     (lookup_from's `land`) sees only the landing.
    ///   * seek: `visit` is the cursor, unpositioned at start ==
    ///     pre_cell. Each cell that passes `keep_going` becomes its
    ///     pre_cell; the walk ends with target on the first that fails
    ///     it (or Last) and pre_aux the aux before. `cap` limits the
    ///     first superhop segment (next() passes 1).
    /// A steered walk rolls its validation window across full segments
    /// (batch_hop) instead of protecting each segment end, so p stays
    /// at the last live position while the window runs ahead of it. A
    /// window that fails after rolling moves p up to its carried cell
    /// (upgrade), or else stops rolling: the walk goes on from p as
    /// before, one protect per segment. Nothing is surfaced from a
    /// window before its landing, so neither is visible to the caller.
    /// The caller's guard spans the call.
    template <walk_mode M, typename Visit, typename Pred = std::nullptr_t,
              typename Clock = std::nullptr_t>
    void walk(node* start, Visit&& visit, Pred&& keep_going = nullptr,
              Clock&& clock = nullptr,
              int cap = std::is_null_pointer_v<std::remove_cvref_t<Pred>> ? 2 : kScanBatch) {
        constexpr bool scan = M == walk_mode::scan;
        constexpr bool seek = M == walk_mode::seek;
        constexpr bool steered = !std::is_null_pointer_v<std::remove_cvref_t<Pred>>;
        auto& ctr = instrument::tls();
        node* p = start;
        node* held = nullptr;  // p, once a hop has landed a reference on it (not seek)
        bool steering = steered;         // a scan's skip prefix ends at its landing
        bool roll = steered && cap > 1;  // next() lands on the first cell: no window
        for (;;) {
            node* n = nullptr;
            node* aux = nullptr;  // seek: the aux before n, the landing's hint
            // Batched hop: cross up to `cap` cells on at most ONE protect
            // by snapshotting payloads seqlock-style and validating the
            // whole segment with an incarnation sweep (a steered walk
            // rolls on past full segments with none). Crossed cells are
            // visited from the validated copies; a protected segment end
            // is handled below like any single-step arrival.
            if constexpr (pool_type::counts_traversal && batch_scannable) {
                batch_snapshot s;
                if constexpr (steered) {
                    constexpr bool read_only = M == walk_mode::lookup;
                    if (steering) n = batch_hop<read_only>(p, s, cap, keep_going, roll);
                }
                if (!steering) n = batch_hop(p, s, cap);
                cap = cap < kScanBatch ? 2 * cap : kScanBatch;  // a scan ramps 2, 4, 8, 16
                const auto rolled = static_cast<std::uint64_t>(s.rolled);
                ctr.traverse_hops += rolled;
                ctr.traverse_fast_hops += rolled;
                ctr.cells_traversed += rolled;
                bool done = false;
                if (n != nullptr) {
                    const auto crossed = static_cast<std::uint64_t>(s.cells) + 1;
                    ctr.traverse_hops += crossed;
                    ctr.traverse_fast_hops += crossed;
                    if constexpr (scan) {
                        if (steering) {  // skipped, unvisited; n arrives below
                            ctr.cells_traversed += static_cast<std::uint64_t>(s.cells);
                        } else {
                            for (int i = 0; i < s.cells && !done; ++i) {
                                ctr.cells_traversed++;
                                done = !visit_cell(visit, s.value(i), s.born[i], s.dead[i]);
                            }
                            if (done) pool_->drop(n);
                        }
                    } else if constexpr (seek) {
                        ctr.cells_traversed += static_cast<std::uint64_t>(s.cells) + n->is_cell();
                        // A full segment, or an end that changed since its
                        // copy, still passing the predicate: go on from n.
                        if (n->is_cell() && keep_going(static_cast<const T&>(n->value()))) {
                            visit.hold_pre(n);
                            p = n;
                            continue;
                        }
                        if (land_seek(visit, n, s)) return;
                        n = nullptr;  // the upgrade failed: per-cell hop from p
                    } else {
                        ctr.cells_traversed += static_cast<std::uint64_t>(s.cells);
                        if (s.landed) {
                            done = n == tail_;
                            if (!done && land_read_only(n, s, visit, clock)) {
                                ctr.cells_traversed++;
                                done = true;
                            }
                            if (!done) n = nullptr;  // recycled before it was stamped
                        }
                    }
                }
                if (done) {
                    pool_->drop(held);
                    return;
                }
                if (n == nullptr) ctr.batch_fallbacks++;
                if constexpr (steered) {
                    // The window had rolled past p: take the carried cell
                    // as the new live position, or stop rolling.
                    node* c = n == nullptr && s.rolled > 0 ? const_cast<node*>(s.src[0]) : nullptr;
                    if (upgrade(c, s.inc[0])) {
                        if constexpr (seek) {
                            visit.hold_pre(c);
                        } else {
                            pool_->drop(held);
                            held = c;
                        }
                        p = c;
                    } else if (c != nullptr) {
                        roll = false;
                    }
                }
            }
            if (n == nullptr) {
                ctr.traverse_hops++;
                if constexpr (pool_type::counts_traversal) {
                    if (p->is_normal()) {  // cell-to-cell: elide the aux between
                        n = hop_over_aux(p, aux);
                        if (n != nullptr) ctr.traverse_fast_hops++;
                    }
                }
                if (n == nullptr) {
                    if constexpr (seek) {  // the Fig. 5 walk from pre_cell == p
                        reposition(visit);
                        n = visit.target_;
                        aux = visit.pre_aux_;
                    } else {
                        n = pool_->protect(p->next);  // single step
                    }
                }
            }
            if constexpr (seek) {
                // n is normal and protected: the cursor's next target.
                visit.pre_aux_ = aux;
                visit.target_ = n;
                if (n->is_tail()) return;
                ctr.cells_traversed++;
                if (!keep_going(static_cast<const T&>(n->value()))) return;
                visit.hold_pre(n);
                visit.target_ = nullptr;
                p = n;
            } else {
                pool_->drop(held);
                held = p = n;
                if (n == nullptr || n->is_tail()) {
                    pool_->drop(n);
                    return;
                }
                if (!n->is_cell()) {
                    ctr.aux_hops++;
                    continue;
                }
                ctr.cells_traversed++;
                const T& v = n->value();
                if constexpr (!scan) {
                    if (keep_going(v)) continue;
                } else if constexpr (steered) {
                    if (steering) {
                        if (keep_going(v)) continue;
                        steering = false;
                        cap = 2;  // the visited scan ramps from here
                    }
                }
                // n is protected: its stamps are reads of live memory, no
                // seqlock dance needed.
                std::uint64_t born = n->born_ts.load(std::memory_order_acquire);
                const std::uint64_t dead = n->dead_ts.load(std::memory_order_acquire);
                if constexpr (!scan) {
                    if (born == 0 && dead == rq::kInfTs) {
                        born = rq::stamp_born(n->born_ts, clock());
                    }
                    visit(v, born, dead);
                    pool_->drop(n);
                    return;
                } else if (!visit_cell(visit, v, born, dead)) {
                    pool_->drop(n);
                    return;
                }
            }
        }
    }

public:
    /// Number of normal cells currently in the list. O(n); quiescent use.
    std::size_t size_slow() const {
        std::size_t count = 0;
        for (node* p = head_->next.load(std::memory_order_acquire); p != nullptr && !p->is_tail();
             p = p->next.load(std::memory_order_acquire)) {
            if (p->is_cell()) ++count;
        }
        return count;
    }

    bool empty_slow() const { return size_slow() == 0; }

private:
    /// Re-derives (pre_aux, target) from the cursor's pre_cell (held or
    /// borrowed): the Fig. 5 walk, rooted at pre_cell->next instead of
    /// the old counted pre_aux. Compacts aux chains behind pre_cell as it
    /// goes. On exit pre_aux is the (unreferenced) hint and target holds
    /// a traversal reference to the next normal cell or Last.
    void reposition(cursor& c) {
        telemetry::prof::phase_scope prof_phase(telemetry::prof::phase::safe_read);
        auto& ctr = instrument::tls();
        pool_->drop(c.target_);
        c.target_ = nullptr;
        // pre_cell is live and a cell's next always links an aux (every
        // cell is flanked by auxes; deleted cells keep their outgoing
        // next until reclaim), so p is a genuine aux here.
        node* p = pool_->protect(c.pre_cell_->next);
        node* n = pool_->protect(p->next);
        while (n->is_aux()) {
            ctr.aux_hops++;
            // Compact the chain behind pre_cell. Best effort: failure just
            // means someone else is restructuring here.
            if (swing(c.pre_cell_->next, p, n)) ctr.aux_compactions++;
            node* nn = pool_->protect(n->next);
            pool_->drop(p);
            p = n;
            n = nn;
        }
        c.pre_aux_ = p;
        // Demote to hint: the reference is not kept by the cursor.
        pool_->drop(p);
        c.target_ = n;
        if (node* nx = n->next.load(std::memory_order_relaxed))
            __builtin_prefetch(static_cast<const void*>(nx), 0, 1);
    }

    /// The elided-aux hop: from a node the caller keeps live (a reference,
    /// or a borrowed start), reach the normal cell two links away with ONE
    /// protect and no reference on the intervening aux. Validation sandwich:
    ///   1. snapshot aux = from->next and its incarnation;
    ///   2. protect n = aux->next (the only RMW);
    ///   3. re-read from->next seq_cst — the location is only written by
    ///      seq_cst CASes, so this read is current, and equality proves
    ///      aux was still linked (hence unreclaimed) when the protect
    ///      landed;
    ///   4. re-check the incarnation — catches the ABA where aux was
    ///      recycled and re-linked at the same spot (the re-link
    ///      happens-after the incarnation bump through the free-list
    ///      pop chain, so seeing the re-link at (3) forces (4) to see
    ///      the bump).
    /// On any failure the speculative reference is dropped (a net-zero
    /// blind pair on a pool node is always safe: counts are preserved
    /// across recycle — see ref_count.hpp) and nullptr is returned; the
    /// caller takes the fully counted slow path. Returns the protected
    /// next cell and writes the validated aux to `aux_hint`.
    node* hop_over_aux(node* from, node*& aux_hint) {
        node* aux = from->next.load(std::memory_order_acquire);
        if (aux == nullptr || !aux->is_aux()) return nullptr;
        testing_hooks::chaos_point(sched::step_kind::ref_transfer);
        const std::uint64_t inc = aux->incarnation.load(std::memory_order_acquire);
        node* n = pool_->protect(aux->next);
        if (from->next.load(std::memory_order_seq_cst) != aux ||
            aux->incarnation.load(std::memory_order_acquire) != inc ||
            n == nullptr || !n->is_normal()) {
            pool_->drop(n);
            return nullptr;
        }
        if (node* nx = n->next.load(std::memory_order_relaxed))
            __builtin_prefetch(static_cast<const void*>(nx), 0, 1);
        aux_hint = aux;
        return n;
    }

    /// Payloads eligible for the batched hop: those the node writes and
    /// copies seqlock-style (list_node::seqlock_payload).
    static constexpr bool batch_scannable = node::seqlock_payload;

    /// Most cells one batched hop crosses per protect (scans), or per
    /// sweep (steered walks, which roll on past a full segment with no
    /// protect at all). Chosen so the validation arrays stay comfortably
    /// on the stack while the one RMW amortizes to noise. Raised from 8
    /// when seeks joined the batch path (E7 seek row ~1.49x ->
    /// ~1.35-1.45x epoch); 32 measured no better.
    ///
    /// Where a segment ends matters more: each cell it crosses is a
    /// dependent read of the cell and the aux after it, a cache miss on
    /// a large store, wanted or not. A seek's predicate is pure, so
    /// batch_hop runs it on each validated copy and ends the segment AT
    /// the landing cell. A scan's visitor has side effects and may only
    /// see copies the sweep validated, so it cannot steer the hop;
    /// instead each scan ramps its cap 2, 4, 8, then kScanBatch, reading
    /// at most ~2k cells when it stops at its k-th.
    static constexpr int kScanBatch = 16;

    /// One batched-hop attempt: every unreferenced node read through
    /// (with its incarnation at first touch) plus raw payload snapshots
    /// of the cells crossed. Nothing here is surfaced until the whole
    /// set validates.
    struct batch_snapshot {
        /// Two records per crossed cell, the first aux and the landing
        /// cell, or, after a roll, the two carried records instead of the
        /// first aux.
        const node* src[2 * kScanBatch + 2];
        std::uint64_t inc[2 * kScanBatch + 2];
        int nsrc = 0;
        alignas(T) unsigned char vals[kScanBatch][sizeof(T)];
        /// Version stamps captured inside the same incarnation window as
        /// the payload copy (snapshot/range-query layer, lookups).
        std::uint64_t born[kScanBatch];
        std::uint64_t dead[kScanBatch];
        int cells = 0;
        /// Set by a read-only landing: the segment end holds no reference,
        /// and vals[cells] (with its stamps) is the landing cell's copy.
        bool landed = false;
        /// Cells crossed in the full segments the window rolled past.
        /// While it is nonzero, src[0] is the last cell of the last such
        /// segment and src[1] the aux after it, both at their first-touch
        /// incarnations (roll_window).
        int rolled = 0;

        void record(const node* n, std::uint64_t i) noexcept {
            src[nsrc] = n;
            inc[nsrc] = i;
            ++nsrc;
        }

        const T& value(int i) const noexcept {
            return *std::launder(reinterpret_cast<const T*>(vals[i]));
        }
    };

    /// First touch of `n`, just loaded from `link`: its incarnation, then
    /// the link re-read. Finding n still there ties the incarnation to the
    /// node the link named (hop_over_aux's sandwich, per link); otherwise
    /// a node unlinked and recycled between the two loads would pass the
    /// sweep at its NEW incarnation, and the walk go on from its reuse.
    static bool touch(const std::atomic<node*>& link, const node* n,
                      std::uint64_t& inc) noexcept {
        inc = n->incarnation.load(std::memory_order_acquire);
        return link.load(std::memory_order_acquire) == n;
    }

    /// Every recorded node still at its first-touch incarnation. Callers
    /// fence (acquire) first.
    static bool sweep(const batch_snapshot& s) noexcept {
        for (int i = 0; i < s.nsrc; ++i) {
            if (s.src[i]->incarnation.load(std::memory_order_relaxed) != s.inc[i]) return false;
        }
        return true;
    }

    /// Generalization of hop_over_aux to a whole segment: from a node the
    /// caller keeps live (a reference, or a borrowed start), cross up to
    /// `cap` cells with at most ONE protect (on the segment's last link)
    /// and zero references on the nodes between. The walk uses plain
    /// loads; soundness comes from the validation at the end:
    ///
    ///   * `from` is live, so the first link read is current.
    ///   * Every node read through is recorded with its incarnation at
    ///     first touch, tied to the link that named it (touch). An
    ///     unchanged incarnation at the sweep proves the node was not
    ///     reclaimed across the window, hence (a) every read of its
    ///     fields was a read of unreclaimed memory, and (b) its outgoing
    ///     link held the link's counted reference at the instant of the
    ///     re-read, so the successor was alive then. Induction down the
    ///     chain carries liveness from `from` to the final link, and the
    ///     protect's own post-RMW revalidation then lands the counted
    ///     reference exactly as in hop_over_aux.
    ///   * Payload bytes are copied inside each cell's incarnation window
    ///     (seqlock reader: incarnation load, copy, acquire fence, sweep
    ///     re-check), so a validated snapshot equals some live value the
    ///     cell held during the walk.
    ///
    /// A seek passes its predicate as `keep_going`: the segment then
    /// ends at the first cell whose copy fails it (see kScanBatch). With
    /// `ReadOnly` (lookups) that landing, or Last, takes no protect:
    /// batch_close seals it, and the landing copy is the result.
    ///
    /// With `roll` (steered walks), a full segment's end is not protected
    /// either: roll_window sweeps the segment and carries its last cell
    /// and last aux into the next segment's set, and the walk reads on
    /// from that aux. The next sweep re-checks both, so the induction
    /// above runs unbroken from `from` to the landing across every
    /// segment: each node stays proven unreclaimed from its first touch
    /// until after the touch of its successor. A lookup then does no
    /// RMW from `from` to its landing.
    ///
    /// On any mismatch the speculative reference is dropped (blind
    /// net-zero pair: always safe on pool nodes) and nullptr is returned;
    /// the caller falls back to the per-cell hop (after a roll, from the
    /// carried cell: see walk). Otherwise returns the segment-end node (a
    /// cell or Last; protected unless s.landed) and fills `s` with the
    /// validated snapshots of the cells crossed since the last roll.
    template <bool ReadOnly = false, typename Pred = std::nullptr_t>
    node* batch_hop(node* from, batch_snapshot& s, int cap, Pred&& keep_going = nullptr,
                    bool roll = false) {
        constexpr bool seek = !std::is_null_pointer_v<std::remove_cvref_t<Pred>>;
        static_assert(seek || !ReadOnly, "a read-only landing is picked by a predicate");
        assert(!roll || (seek && cap > 1));
        node* a;  // the aux whose next is read through next
        if (from->is_aux()) {
            a = from;  // live: no incarnation record needed
        } else {
            a = from->next.load(std::memory_order_acquire);
            std::uint64_t ia;
            if (a == nullptr || !a->is_aux() || !touch(from->next, a, ia)) return nullptr;
            s.record(a, ia);
        }
        for (;;) {
            node* c = a->next.load(std::memory_order_acquire);
            if (c == nullptr || !c->is_normal()) return nullptr;  // aux chain: fall back
            if (!c->is_cell()) {  // Last
                if constexpr (ReadOnly) return c == tail_ ? batch_close(c, s) : nullptr;
                return batch_commit(a, s);
            }
            if (s.cells == cap - 1) return batch_commit(a, s);  // segment full
            // link load -> incarnation load: touch's re-read window
            if constexpr (seek) testing_hooks::chaos_point(sched::step_kind::batch_seek);
            std::uint64_t ic;
            if (!touch(a->next, c, ic)) return nullptr;
            c->load_payload(s.vals[s.cells]);  // seqlock read: validated below
            if constexpr (seek) {
                // The predicate picks the segment end, so it must see a
                // value c really held: the per-cell seqlock check (fence,
                // reload) runs now, not only in the sweep. A failing copy
                // makes c the landing cell.
                testing_hooks::chaos_point(sched::step_kind::batch_seek);
                std::atomic_thread_fence(std::memory_order_acquire);
                if (c->incarnation.load(std::memory_order_relaxed) != ic) return nullptr;
                if (!keep_going(s.value(s.cells))) {
                    if constexpr (ReadOnly) {  // stamps ride c's window
                        s.born[s.cells] = c->born_ts.load(std::memory_order_acquire);
                        s.dead[s.cells] = c->dead_ts.load(std::memory_order_acquire);
                        s.record(c, ic);
                        return batch_close(c, s);
                    }
                    return batch_commit(a, s);  // c arrives protected
                }
            } else {
                // Stamps ride the same validation window as the payload
                // bytes (construct_cell resets them, never on_reclaim, so
                // they too mutate only strictly between incarnation
                // bumps). The loads are acquire on purpose: reading a
                // cell's release-stored born stamp synchronizes-with the
                // inserter, which makes any stamp the inserter itself
                // observed (e.g. the dead mark of the same-key predecessor
                // it positioned behind) visible to this walk's LATER stamp
                // reads — the alive-first cluster order then guarantees a
                // snapshot never shows two live incarnations of one key.
                s.born[s.cells] = c->born_ts.load(std::memory_order_acquire);
                s.dead[s.cells] = c->dead_ts.load(std::memory_order_acquire);
            }
            s.record(c, ic);
            node* a2 = c->next.load(std::memory_order_acquire);
            if (a2 == nullptr || !a2->is_aux()) {
                // Disorder past c: retract c's record (its snapshot slot
                // was never committed — s.cells is only bumped below) and
                // end the segment at c, which arrives protected instead.
                --s.nsrc;
                return batch_commit(a, s);
            }
            std::uint64_t ia;
            if (!touch(c->next, a2, ia)) return nullptr;
            ++s.cells;
            s.record(a2, ia);
            a = a2;
            if (roll && s.cells == cap - 1 && !roll_window(s)) return nullptr;  // segment full
        }
    }

    /// Rolls the window past a full segment instead of protecting its
    /// end: the fence and sweep validate the segment (the predicate has
    /// passed each copy), then its last cell and the aux after it carry
    /// into the next segment's set at their first-touch incarnations.
    /// The aux is read through next, so only the next sweep can prove it
    /// was not recycled in between; the cell is what walk upgrades if
    /// that sweep fails. False, with the previous carry kept, if the
    /// segment fails its sweep.
    bool roll_window(batch_snapshot& s) {
        testing_hooks::chaos_point(sched::step_kind::batch_seek);  // segment -> sweep
        std::atomic_thread_fence(std::memory_order_acquire);
        if (!sweep(s)) return false;
        s.rolled += s.cells;
        s.src[0] = s.src[s.nsrc - 2];
        s.inc[0] = s.inc[s.nsrc - 2];
        s.src[1] = s.src[s.nsrc - 1];
        s.inc[1] = s.inc[s.nsrc - 1];
        s.nsrc = 2;
        s.cells = 0;
        // Sweep -> the carried aux's next load: only the carried records
        // catch a recycle here.
        testing_hooks::chaos_point(sched::step_kind::batch_seek);
        return true;
    }

    /// Takes a counted reference on `n`, read unreferenced at incarnation
    /// `inc`, if it is still that node: try_ref, then the incarnation
    /// re-check that ties the reference to the node the walk read (the
    /// count blocks any later reclaim). A full unref undoes a mismatch;
    /// a null `n` (no window to upgrade) is refused.
    bool upgrade(node* n, std::uint64_t inc) {
        if (n == nullptr) return false;
        testing_hooks::chaos_point(sched::step_kind::batch_seek);
        if (!pool_->try_ref(n)) return false;
        if (n->incarnation.load(std::memory_order_acquire) != inc) {
            pool_->unref(n);  // full unref: the node may be dying
            return false;
        }
        return true;
    }

    /// Protect the segment-end link and run the incarnation sweep.
    node* batch_commit(node* a, batch_snapshot& s) {
        // The widest elided window in the engine: everything in `s` was
        // read without references. A preemption here lets deleters and
        // the reclaim cascade churn the snapshotted nodes so the sweep's
        // failure path gets real coverage under the scheduler.
        testing_hooks::chaos_point(sched::step_kind::ref_transfer);
        node* res = pool_->protect(a->next);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (res == nullptr || !res->is_normal() || !sweep(s)) {
            pool_->drop(res);
            s.cells = 0;
            return nullptr;
        }
        return res;
    }

    /// A read-only landing: the fence and sweep alone seal the segment
    /// (the landing cell is recorded too, so its copy and stamps are a
    /// snapshot of a cell the walk reached). Returns `land`, unreferenced.
    node* batch_close(node* land, batch_snapshot& s) {
        testing_hooks::chaos_point(sched::step_kind::batch_seek);  // copy -> sweep
        std::atomic_thread_fence(std::memory_order_acquire);
        if (!sweep(s)) {
            s.cells = 0;
            return nullptr;
        }
        s.landed = true;
        return land;
    }

    /// Hands `land` the read-only landing's copy and stamps. A live copy
    /// at born == 0 first gets n stamped, on a reference proven (try_ref
    /// plus incarnation re-check, as in land_seek) to sit on the copied
    /// incarnation; false, with nothing called, if n was recycled.
    template <typename Land, typename Clock>
    bool land_read_only(node* n, const batch_snapshot& s, Land& land, Clock& clock) {
        std::uint64_t born = s.born[s.cells];
        const std::uint64_t dead = s.dead[s.cells];
        if (born == 0 && dead == rq::kInfTs) {
            if (!upgrade(n, s.inc[s.nsrc - 1])) return false;
            born = rq::stamp_born(n->born_ts, clock());
            pool_->unref(n);
        }
        land(s.value(s.cells), born, dead);
        return true;
    }

    /// A seek's landing on `n`, the protected end of segment `s` walked
    /// from c's pre_cell: lands c on (pre, aux, n), pre being the last
    /// cell crossed, or pre_cell itself when the walk crossed none.
    /// An interior pre is upgraded to a counted reference with try_ref
    /// on the SNAPSHOTTED pointer, so the WHOLE snapshot is re-swept
    /// after it: unchanged incarnations prove no snapshotted node was
    /// reclaimed since first touch, hence the reference sits on the node
    /// the snapshot read (not a same-address recycle) and the triple is
    /// exactly what a hand-over-hand walk would have produced. With p =
    /// pre_cell a cell, the snapshot is laid out
    ///   src[0]    = the aux after p (after a roll: the carried cell,
    ///               then the carried aux, shifting the rest by one),
    ///   src[2i+1] = crossed cell i,  src[2i+2] = the aux after it,
    /// so pre and aux are always its last two records.
    /// On failure undoes its references (n's too) and returns false.
    bool land_seek(cursor& c, node* n, const batch_snapshot& s) {
        if (s.nsrc >= 2) {
            node* pre = const_cast<node*>(s.src[s.nsrc - 2]);
            testing_hooks::chaos_point(sched::step_kind::batch_seek);
            if (!pool_->try_ref(pre)) {
                pool_->drop(n);
                return false;
            }
            testing_hooks::chaos_point(sched::step_kind::batch_seek);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (!sweep(s)) {
                pool_->unref(pre);  // full unref: the node may be dying
                pool_->drop(n);
                return false;
            }
            c.hold_pre(pre);
        }
        c.pre_aux_ = const_cast<node*>(s.src[s.nsrc - 1]);
        c.target_ = n;
        return true;
    }

    /// The counted-link CAS: swing `loc` from `expected` to `desired`,
    /// transferring reference counts as described in node_pool.hpp. Fails
    /// without attempting the CAS if `desired` has already been retired
    /// (deferred policies): a claimed node must never be re-linked.
    bool swing(std::atomic<node*>& loc, node* expected, node* desired) {
        auto& ctr = instrument::tls();
        ctr.cas_attempts++;
        if (!pool_->try_ref(desired)) {  // the link's reference, speculative
            ctr.cas_failures++;
            return false;
        }
        testing_hooks::chaos_point(sched::step_kind::cas);  // between speculation and CAS
        node* e = expected;
        if (loc.compare_exchange_strong(e, desired, std::memory_order_seq_cst,
                                        std::memory_order_acquire)) {
            pool_->unref(expected);  // the dying link's reference
            return true;
        }
        ctr.cas_failures++;
        pool_->unref(desired);  // undo speculation
        return false;
    }

    /// Counted store to a location the caller exclusively owns (a private
    /// node's field, or a once-only field like back_link after winning
    /// the unlink CAS). The target must be provably live (an owned fresh
    /// node, or a link-counted one).
    void store_link(std::atomic<node*>& loc, node* target) {
        pool_->ref(target);
        node* old = loc.exchange(target, std::memory_order_acq_rel);
        pool_->unref(old);
    }

    /// As store_link, but the target may already be retired (a cursor's
    /// traversal reference under a deferred policy): refuses — leaving
    /// `loc` untouched — instead of resurrecting a claimed node.
    bool store_link_checked(std::atomic<node*>& loc, node* target) {
        if (!pool_->try_ref(target)) return false;
        node* old = loc.exchange(target, std::memory_order_acq_rel);
        pool_->unref(old);
        return true;
    }

    /// The back_link publication (Fig. 10 line 6): null -> pre_cell, by
    /// the winning deleter, exactly once. An unconditional exchange here
    /// would let a second writer replace an already-published trail —
    /// dropping the counted reference a concurrent retreat may be about
    /// to follow — so the "set once" contract (node.hpp) is enforced
    /// structurally with a CAS from null. Refuses (trail stays null)
    /// when `target` has already been retired, like store_link_checked.
    bool publish_back_link(std::atomic<node*>& loc, node* target) {
        if (!pool_->try_ref(target)) return false;
        node* expected = nullptr;
        if (loc.compare_exchange_strong(expected, target, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
            return true;
        }
        pool_->unref(target);  // lost: a trail is already published
        return false;
    }

    std::unique_ptr<pool_type> owned_pool_;  // null when the pool is shared
    pool_type* pool_ = nullptr;
    node* head_ = nullptr;
    node* tail_ = nullptr;
};

}  // namespace lfll
