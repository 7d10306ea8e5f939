// Quiescent-state structure and reference-count audits.
//
// These checks encode the paper's invariants as executable assertions:
//   * Fig. 4 shape: First -> aux -> ... -> Last, with every normal cell
//     flanked by auxiliary nodes.
//   * §3's theorem: once all TryDelete calls have completed, the list
//     contains no chains of adjacent auxiliary nodes.
//   * §5's accounting: every node's refct equals exactly the number of
//     counted links plus root/cursor references; every pool slot is either
//     reachable from a list, on the free list, or pinned by a reference.
//
// Two entry points:
//   audit_list(list, external_refs)  — one list owning its pool.
//   audit_shared(pool, lists, ...)   — several lists sharing one pool
//                                      (the skip list's levels), including
//                                      payload-held counted links (down
//                                      pointers) in the in-degree tally.
//
// All functions here require quiescence (no concurrent mutators); the
// stress tests call them after joining their worker threads. The audit
// self-cleans at entry: it drains the policy's retired bank (a banked
// node still carries its claim bit and sits on no free list, which would
// read as a leak). Explicit drain_retired() calls before auditing remain
// harmless.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lfll/core/list.hpp"

namespace lfll {

struct audit_report {
    bool ok = true;
    std::string error;
    std::size_t cells = 0;        ///< normal cells across all audited lists
    std::size_t aux_nodes = 0;    ///< auxiliary nodes across all audited lists
    std::size_t aux_chains = 0;   ///< adjacent-aux runs (must be 0 when quiescent)
    std::size_t reachable = 0;    ///< nodes reachable from any First (incl. dummies)
    std::size_t free_nodes = 0;   ///< nodes on the free list
    std::size_t leaked = 0;       ///< pool slots in neither category

    explicit operator bool() const { return ok; }
};

namespace detail {

inline void audit_fail(audit_report& r, const std::string& msg) {
    if (r.ok) {
        r.ok = false;
        r.error = msg;
    }
}

/// Tallies the payload's counted links (if the payload type exposes any)
/// into the in-degree map, enqueuing unseen targets for the pinned
/// closure.
template <typename T, typename Policy, typename Tally>
void tally_payload_links(const list_node<T, Policy>* n, Tally&& tally) {
    if constexpr (requires(const T& t) { t.counted_links(tally); }) {
        if (n->kind.load(std::memory_order_acquire) == node_kind::cell) {
            n->value().counted_links(tally);
        }
    }
}

}  // namespace detail

/// Audits `lists` (all built on `pool`). `external_refs` maps node ->
/// reference count for references held outside the structures (live
/// cursors, unreleased make_cell/make_aux results).
///
/// Takes the pool by mutable reference: the audit first drains the
/// policy's retired bank, so the exact-count check below sees every
/// retired node back on the free list.
template <typename T, typename Policy>
audit_report audit_shared(
    node_pool<list_node<T, Policy>, Policy>& pool,
    const std::vector<valois_list<T, Policy>*>& lists,
    const std::map<const list_node<T, Policy>*, std::size_t>& external_refs = {}) {
    using node = list_node<T, Policy>;
    audit_report r;
    pool.drain_retired();

    std::map<const node*, std::size_t> indegree;
    std::set<const node*> reachable;
    std::vector<const node*> pin_work;  // seeds for the pinned closure

    auto tally = [&](const node* target) {
        if (target == nullptr) return;
        indegree[target] += 1;
        if (reachable.count(target) == 0) pin_work.push_back(target);
    };

    // --- walk every list, checking shape --------------------------------
    for (valois_list<T, Policy>* list : lists) {
        const node* head = list->head();
        const node* tail = list->tail();
        indegree[head] += 1;  // the head_ root pointer
        indegree[tail] += 1;  // the tail_ root pointer
        if (!reachable.insert(head).second) {
            detail::audit_fail(r, "head dummy shared between lists");
            return r;
        }
        if (head->kind.load() != node_kind::head)
            detail::audit_fail(r, "First dummy has wrong kind");
        if (tail->kind.load() != node_kind::tail)
            detail::audit_fail(r, "Last dummy has wrong kind");
        if (head->next.load() == nullptr) {
            detail::audit_fail(r, "head has null next");
            return r;
        }

        const node* cur = head->next.load(std::memory_order_acquire);
        bool prev_was_aux = false;
        std::size_t steps = 0;
        const std::size_t step_limit = pool.capacity() + 16;
        while (cur != nullptr) {
            if (++steps > step_limit) {
                detail::audit_fail(r, "list walk exceeded pool capacity: cycle suspected");
                return r;
            }
            indegree[cur] += 1;
            if (!reachable.insert(cur).second) {
                detail::audit_fail(r, "node reachable twice: cycle or cross-link");
                return r;
            }
            switch (cur->kind.load(std::memory_order_acquire)) {
                case node_kind::aux:
                    r.aux_nodes++;
                    if (prev_was_aux) r.aux_chains++;
                    prev_was_aux = true;
                    break;
                case node_kind::cell:
                    r.cells++;
                    if (!prev_was_aux)
                        detail::audit_fail(r, "normal cell not preceded by an auxiliary node");
                    if (cur->is_deleted())
                        detail::audit_fail(r,
                                           "reachable cell has back_link set (deleted but listed)");
                    detail::tally_payload_links(cur, tally);
                    prev_was_aux = false;
                    break;
                case node_kind::head:
                    detail::audit_fail(r, "second head dummy reachable");
                    break;
                case node_kind::tail:
                    if (cur != tail) detail::audit_fail(r, "foreign tail dummy reachable");
                    if (!prev_was_aux)
                        detail::audit_fail(r, "Last dummy not preceded by an auxiliary node");
                    break;
            }
            if (cur == tail) break;
            cur = cur->next.load(std::memory_order_acquire);
        }
        if (cur != tail) {
            detail::audit_fail(r, "walk ended before reaching Last");
            return r;
        }
    }
    if (r.aux_chains != 0) {
        std::ostringstream os;
        os << r.aux_chains << " adjacent auxiliary-node pair(s) in a quiescent list";
        detail::audit_fail(r, os.str());
    }
    r.reachable = reachable.size();

    // --- free-list membership ------------------------------------------
    std::set<const node*> free_set;
    pool.for_each_free([&](const node* p) { free_set.insert(p); });
    r.free_nodes = free_set.size();

    // --- pinned closure --------------------------------------------------
    // Nodes kept alive only by external references, payload links, or the
    // next/back_link fields of other pinned nodes (e.g. deleted cells a
    // cursor still sits on). Their outgoing links also count.
    for (const auto& [n, cnt] : external_refs) {
        (void)cnt;
        if (reachable.count(n) == 0) pin_work.push_back(n);
    }
    std::set<const node*> pinned;
    while (!pin_work.empty()) {
        const node* n = pin_work.back();
        pin_work.pop_back();
        if (reachable.count(n) != 0 || free_set.count(n) != 0) continue;
        if (!pinned.insert(n).second) continue;
        for (const node* t : {n->next.load(std::memory_order_acquire),
                              n->back_link.load(std::memory_order_acquire)}) {
            tally(t);
        }
        detail::tally_payload_links(n, tally);
    }

    // --- every pool slot accounted for ----------------------------------
    pool.for_each_node([&](const node* p) {
        if (reachable.count(p) != 0 || free_set.count(p) != 0 || pinned.count(p) != 0) return;
        r.leaked++;
    });
    if (r.leaked != 0) {
        std::ostringstream os;
        os << r.leaked << " pool node(s) neither reachable, free, nor pinned (leak)";
        detail::audit_fail(r, os.str());
    }

    // --- reference counts match -----------------------------------------
    std::map<const node*, std::size_t> expected = indegree;
    for (const auto& [n, cnt] : external_refs) expected[n] += cnt;
    for (const node* n : free_set) expected[n] += 1;  // the free list's reference

    auto check_count = [&](const node* n, const char* what) {
        const refct_t rc = n->refct.load(std::memory_order_acquire);
        if (refct_claimed(rc)) {
            std::ostringstream os;
            os << what << " node has claim bit set at quiescence";
            detail::audit_fail(r, os.str());
        }
        const std::size_t want = expected.count(n) ? expected.at(n) : 0;
        if (refct_count(rc) != want) {
            std::ostringstream os;
            os << what << " node refcount " << refct_count(rc) << " != expected " << want;
            detail::audit_fail(r, os.str());
        }
    };
    for (const node* n : reachable) check_count(n, "reachable");
    for (const node* n : pinned) check_count(n, "pinned");
    for (const node* n : free_set) check_count(n, "free");

    return r;
}

/// Full structural + memory audit of a single quiescent list that owns
/// its pool.
template <typename T, typename Policy>
audit_report audit_list(
    valois_list<T, Policy>& list,
    const std::map<const list_node<T, Policy>*, std::size_t>& external_refs = {}) {
    return audit_shared(list.pool(), std::vector<valois_list<T, Policy>*>{&list},
                        external_refs);
}

}  // namespace lfll
