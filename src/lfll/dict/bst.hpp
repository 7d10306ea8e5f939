// Binary search tree with auxiliary nodes (§4.2).
//
// "Each cell in the tree has a left and right auxiliary node between
//  itself and its subtrees (these auxiliary nodes are present even if the
//  subtree is empty)."
//
// Find and Insert are implemented exactly as the paper describes: search
// is the sequential BST walk over counted references; insert is a single
// CAS swinging an empty auxiliary node's pointer from null to the new
// cell (which is pre-wired with its own two auxiliary children).
//
// Deletion comes in two flavours:
//  * erase() — tombstone (logical) deletion: fully non-blocking and safe
//    under arbitrary concurrency. The cell is marked dead; a subsequent
//    insert of the same key revives it with a single CAS. This is the
//    default because the paper's physical deletion (below) relies on a
//    transient aux->aux shunt that can force concurrent *structural*
//    operations to wait on the deleter — the paper itself leaves its
//    behaviour "unknown" (§4.2). Ablation A3 measures the difference.
//  * erase_splice() — the paper's physical deletion, including the
//    Fig. 14 two-children subtree move. Safe against concurrent
//    *searches* (they follow the shunt chains); callers must serialize it
//    against other structural mutations in the affected subtree.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "lfll/core/node.hpp"
#include "lfll/core/rq.hpp"
#include "lfll/memory/node_pool.hpp"
#include "lfll/memory/policy.hpp"
#include "lfll/telemetry/op_counters.hpp"

namespace lfll {

template <typename Key, typename Compare = std::less<Key>,
          typename Policy = valois_refcount>
class bst_set {
public:
    struct tree_node : Policy::header {
        /// aux: the single child pointer. cell: the LEFT auxiliary node.
        /// (Doubles as the pool free-list link, like every pooled node.)
        std::atomic<tree_node*> next{nullptr};
        /// cell: the RIGHT auxiliary node. aux: unused.
        std::atomic<tree_node*> right{nullptr};
        std::atomic<node_kind> kind{node_kind::aux};
        /// Version interval (cells only; see core/rq.hpp). born_ts == 0
        /// means the insert's stamp is still in flight; dead_ts != inf is
        /// the tombstone. Replaces the old boolean `dead` flag so range
        /// queries can filter by their timestamp.
        std::atomic<std::uint64_t> born_ts{0};
        std::atomic<std::uint64_t> dead_ts{rq::kInfTs};
        alignas(Key) unsigned char storage[sizeof(Key)];

        bool is_aux() const noexcept {
            return kind.load(std::memory_order_acquire) == node_kind::aux;
        }
        bool is_cell() const noexcept {
            return kind.load(std::memory_order_acquire) == node_kind::cell;
        }
        Key& key() noexcept { return *std::launder(reinterpret_cast<Key*>(storage)); }
        const Key& key() const noexcept {
            return *std::launder(reinterpret_cast<const Key*>(storage));
        }

        template <typename Sink>
        void drop_links(Sink&& drop) noexcept {
            drop(next.exchange(nullptr, std::memory_order_acq_rel));
            drop(right.exchange(nullptr, std::memory_order_acq_rel));
        }

        void on_reclaim() noexcept {
            if (kind.load(std::memory_order_acquire) == node_kind::cell) key().~Key();
            kind.store(node_kind::aux, std::memory_order_release);
            // Safe to reset here (unlike list_node): the BST has no
            // seqlock batch path, so stamps are only read under a
            // counted reference / pin, never from a reclaimed node.
            born_ts.store(0, std::memory_order_release);
            dead_ts.store(rq::kInfTs, std::memory_order_release);
        }
    };

    using policy_type = Policy;
    using pool_type = node_pool<tree_node, Policy>;
    using guard = typename pool_type::guard;

    explicit bst_set(std::size_t initial_capacity = 1024, Compare cmp = Compare{})
        : pool_(initial_capacity + 1), cmp_(cmp) {
        root_aux_ = pool_.alloc();  // its alloc reference is the root reference
    }

    ~bst_set() = default;  // pool slabs own the memory

    bst_set(const bst_set&) = delete;
    bst_set& operator=(const bst_set&) = delete;

    /// Adds `key`; false if (a live instance of) the key already exists.
    bool insert(const Key& key) {
        guard g = pool_.make_guard();
        for (;;) {
            tree_node* leaf = nullptr;
            tree_node* parent_aux = nullptr;
            tree_node* found = search(key, &leaf, &parent_aux);
            if (found != nullptr) {
                if (rq_.live(found)) {
                    pool_.drop(found);
                    pool_.drop(parent_aux);
                    return false;  // live instance present
                }
                // Tombstone revive — replace-cell protocol. The old CAS
                // flip of a `dead` bit would mutate the victim's version
                // interval in place, tearing any in-flight range query;
                // instead a FRESH cell adopts the tombstone's auxiliary
                // children and replaces it with one swing, which doubles
                // as the tombstone's physical unlink (so hand the closed
                // interval to in-flight queries first).
                tree_node* la = pool_.protect(found->next);
                tree_node* ra = pool_.protect(found->right);
                tree_node* q = pool_.alloc();
                ::new (static_cast<void*>(q->storage)) Key(key);
                q->kind.store(node_kind::cell, std::memory_order_release);
                q->next.store(pool_.ref(la), std::memory_order_relaxed);
                q->right.store(pool_.ref(ra), std::memory_order_relaxed);
                pool_.drop(la);
                pool_.drop(ra);
                if (rq_.armed()) {
                    rq_.hand_off(rq_victim{
                        found->key(),
                        found->born_ts.load(std::memory_order_acquire),
                        found->dead_ts.load(std::memory_order_acquire)});
                }
                testing_hooks::chaos_point(sched::step_kind::version_publish);
                if (swing(parent_aux->next, found, q)) {
                    rq_.stamp(q->born_ts);
                    testing_hooks::chaos_point(sched::step_kind::version_publish);
                    pool_.drop(found);
                    pool_.drop(parent_aux);
                    pool_.unref(q);
                    return true;
                }
                instrument::tls().insert_retries++;
                pool_.drop(found);
                pool_.drop(parent_aux);
                pool_.unref(q);  // cascade releases the adopted aux refs
                continue;
            }
            // Build the cell with both auxiliary children pre-attached
            // (their alloc references become the cell's counted links).
            tree_node* q = pool_.alloc();
            ::new (static_cast<void*>(q->storage)) Key(key);
            q->kind.store(node_kind::cell, std::memory_order_release);
            q->next.store(pool_.alloc(), std::memory_order_relaxed);
            q->right.store(pool_.alloc(), std::memory_order_relaxed);
            if (swing(leaf->next, nullptr, q)) {
                // Version-stamp AFTER the winning swing (see core/rq.hpp:
                // range queries exclude born == 0 while the window is open).
                rq_.stamp(q->born_ts);
                testing_hooks::chaos_point(sched::step_kind::version_publish);
                pool_.drop(leaf);
                pool_.unref(q);
                return true;
            }
            instrument::tls().insert_retries++;
            pool_.drop(leaf);
            pool_.unref(q);  // cascade frees its two aux children
        }
    }

    /// Tombstone deletion: marks the cell dead. False if absent/already
    /// dead. The winning stamp CAS is the linearization point; no victim
    /// hand-off is needed because the cell stays linked, stamps intact,
    /// for any in-flight range query to read.
    bool erase(const Key& key) {
        guard g = pool_.make_guard();
        tree_node* found = search(key, nullptr);
        if (found == nullptr) return false;
        (void)rq_.live(found);  // stamps an in-flight insert before marking it
        const std::uint64_t d = rq_.now();
        testing_hooks::chaos_point(sched::step_kind::version_publish);
        std::uint64_t expected = rq::kInfTs;
        const bool killed = found->dead_ts.compare_exchange_strong(
            expected, d, std::memory_order_seq_cst, std::memory_order_acquire);
        pool_.drop(found);
        if (!killed) instrument::tls().delete_retries++;
        return killed;
    }

    bool contains(const Key& key) {
        guard g = pool_.make_guard();
        tree_node* found = search(key, nullptr);
        if (found == nullptr) return false;
        const bool live = rq_.live(found);
        pool_.drop(found);
        return live;
    }

    /// Linearizable snapshot of every live key with lo <= key < hi, as of
    /// the instant the query's timestamp was drawn (see core/rq.hpp). The
    /// walk is a counted-reference in-order descent with subtree pruning.
    std::vector<Key> range_query(const Key& lo, const Key& hi) {
        return collect(&lo, &hi);
    }

    /// Full point-in-time snapshot, in key order.
    std::vector<Key> snapshot() { return collect(nullptr, nullptr); }

    /// The paper's physical deletion (§4.2, Fig. 14). Concurrent searches
    /// are safe; concurrent structural mutations in the affected subtree
    /// are not — see the header comment. Returns false if absent.
    bool erase_splice(const Key& key) {
        guard g = pool_.make_guard();
        // Locate the victim, keeping the auxiliary node that points at it.
        tree_node* parent_aux = pool_.copy(root_aux_);
        tree_node* v = nullptr;
        for (;;) {
            tree_node* n = pool_.protect(parent_aux->next);
            if (n == nullptr) {
                pool_.drop(parent_aux);
                return false;
            }
            if (n->is_aux()) {  // shunt chain from an earlier splice
                pool_.drop(parent_aux);
                parent_aux = n;
                continue;
            }
            if (equal(n->key(), key)) {
                v = n;
                break;
            }
            tree_node* child =
                cmp_(key, n->key()) ? pool_.protect(n->next) : pool_.protect(n->right);
            pool_.drop(parent_aux);
            pool_.drop(n);
            parent_aux = child;
        }

        // Physical removal: make sure the victim's interval is closed (it
        // may already be a tombstone) and hand it to in-flight queries
        // before any structural swing can hide it from their walk.
        const std::uint64_t d = rq_.now();
        std::uint64_t expected = rq::kInfTs;
        const bool marked_here = v->dead_ts.compare_exchange_strong(
            expected, d, std::memory_order_seq_cst, std::memory_order_acquire);
        if (rq_.armed()) {
            rq_.hand_off(rq_victim{v->key(),
                                   v->born_ts.load(std::memory_order_acquire),
                                   marked_here ? d : expected});
        }
        testing_hooks::chaos_point(sched::step_kind::version_publish);

        tree_node* left_aux = pool_.protect(v->next);
        tree_node* right_aux = pool_.protect(v->right);
        const bool left_empty = left_aux->next.load(std::memory_order_acquire) == nullptr;
        const bool right_empty = right_aux->next.load(std::memory_order_acquire) == nullptr;

        if (!left_empty && !right_empty) {
            // Fig. 14 step 1: hang v's left subtree below v's in-order
            // successor (the leftmost cell of the right subtree), whose
            // left child is empty.
            tree_node* s_aux = find_leftmost_empty_aux(right_aux);
            if (!swing(s_aux->next, nullptr, left_aux)) {
                // Someone attached a cell there first; retry from scratch.
                pool_.drop(s_aux);
                pool_.drop(left_aux);
                pool_.drop(right_aux);
                pool_.drop(parent_aux);
                pool_.drop(v);
                return erase_splice(key);
            }
            pool_.drop(s_aux);
            // v's left branch is now duplicated below the successor; v
            // itself is removed via the right-subtree splice below.
        } else if (right_empty && !left_empty) {
            // Shunt searches entering the empty right branch back to the
            // auxiliary node preceding v, then splice v out to the LEFT.
            swing(right_aux->next, nullptr, parent_aux);
            finish_splice(parent_aux, v, left_aux);
            cleanup(parent_aux, v, left_aux, right_aux);
            return true;
        }
        // Left branch empty (or both, or two-children after the move):
        // shunt the empty left branch and splice v out to the RIGHT.
        if (left_empty) swing(left_aux->next, nullptr, parent_aux);
        finish_splice(parent_aux, v, right_aux);
        cleanup(parent_aux, v, left_aux, right_aux);
        return true;
    }

    std::size_t size_slow() const {
        std::size_t n = 0;
        const_cast<bst_set*>(this)->for_each([&](const Key&) { ++n; });
        return n;
    }

    /// In-order traversal over live (non-tombstoned) keys. Quiescent use
    /// (concurrent traversal is safe but the visit set is unspecified
    /// during splice deletions).
    template <typename F>
    void for_each(F&& f) {
        walk(root_aux_->next.load(std::memory_order_acquire), f);
    }

    /// Quiescent structural check: in-order keys strictly sorted, every
    /// cell's children are auxiliary nodes. Returns an empty string or a
    /// description of the violation.
    std::string validate_slow() {
        std::string err;
        const Key* prev = nullptr;
        validate(root_aux_->next.load(std::memory_order_acquire), prev, err, 0);
        return err;
    }

    pool_type& pool() noexcept { return pool_; }

private:
    bool equal(const Key& a, const Key& b) const { return !cmp_(a, b) && !cmp_(b, a); }

    /// Counted-link CAS, as in valois_list: fails without attempting the
    /// CAS if `desired` has already been retired (deferred policies).
    bool swing(std::atomic<tree_node*>& loc, tree_node* expected, tree_node* desired) {
        auto& ctr = instrument::tls();
        ctr.cas_attempts++;
        if (!pool_.try_ref(desired)) {
            ctr.cas_failures++;
            return false;
        }
        testing_hooks::chaos_point(sched::step_kind::cas);  // speculation -> CAS
        tree_node* e = expected;
        if (loc.compare_exchange_strong(e, desired, std::memory_order_seq_cst,
                                        std::memory_order_acquire)) {
            pool_.unref(expected);
            return true;
        }
        ctr.cas_failures++;
        pool_.unref(desired);
        return false;
    }

    /// Returns the cell with `key` (counted ref; may be tombstoned), or
    /// null. When null and `out_leaf` is non-null, *out_leaf receives a
    /// counted ref on the empty auxiliary node where the key belongs.
    /// When found and `out_parent` is non-null, *out_parent receives a
    /// counted ref on the auxiliary node that pointed at the cell (the
    /// replace-cell swing target). The caller must hold a guard; the
    /// returned references are traversal references valid under it
    /// (drop() them).
    tree_node* search(const Key& key, tree_node** out_leaf,
                      tree_node** out_parent = nullptr) {
        auto& ctr = instrument::tls();
        tree_node* a = pool_.copy(root_aux_);
        for (;;) {
            tree_node* n = pool_.protect(a->next);
            if (n == nullptr) {
                if (out_leaf != nullptr) {
                    *out_leaf = a;
                } else {
                    pool_.drop(a);
                }
                return nullptr;
            }
            if (n->is_aux()) {  // splice shunt chain: follow it
                ctr.aux_hops++;
                pool_.drop(a);
                a = n;
                continue;
            }
            ctr.cells_traversed++;
            if (equal(n->key(), key)) {
                if (out_parent != nullptr) {
                    *out_parent = a;
                } else {
                    pool_.drop(a);
                }
                return n;
            }
            tree_node* child =
                cmp_(key, n->key()) ? pool_.protect(n->next) : pool_.protect(n->right);
            // Prefetch the grandchild link while the comparison on the
            // child retires: tree descent is a dependent-load chain.
            if (child != nullptr) {
                if (tree_node* gc = child->next.load(std::memory_order_relaxed))
                    __builtin_prefetch(static_cast<const void*>(gc), 0, 1);
            }
            pool_.drop(a);
            pool_.drop(n);
            a = child;
        }
    }

    /// Leftmost empty auxiliary node under `from` (an aux). Returns a
    /// counted reference; releases nothing else it was given.
    tree_node* find_leftmost_empty_aux(tree_node* from) {
        tree_node* a = pool_.copy(from);
        for (;;) {
            tree_node* n = pool_.protect(a->next);
            if (n == nullptr) return a;
            pool_.drop(a);
            if (n->is_aux()) {
                a = n;
            } else {
                a = pool_.protect(n->next);  // descend left
                pool_.drop(n);
            }
        }
    }

    /// Splice v out: parent_aux -> (v's surviving aux), then best-effort
    /// compaction of the resulting aux -> aux chain.
    void finish_splice(tree_node* parent_aux, tree_node* v, tree_node* surviving_aux) {
        swing(parent_aux->next, v, surviving_aux);
        // Best-effort compaction of the parent_aux -> surviving_aux chain:
        // skip straight to the cell beyond it, or to empty if the whole
        // branch is gone (otherwise empty aux chains would accumulate).
        tree_node* beyond = surviving_aux->next.load(std::memory_order_acquire);
        if (beyond == nullptr || beyond->is_cell()) {
            if (swing(parent_aux->next, surviving_aux, beyond)) {
                instrument::tls().aux_compactions++;
            }
        }
    }

    void cleanup(tree_node* parent_aux, tree_node* v, tree_node* left_aux,
                 tree_node* right_aux) {
        pool_.drop(parent_aux);
        pool_.drop(v);
        pool_.drop(left_aux);
        pool_.drop(right_aux);
    }

    template <typename F>
    void walk(tree_node* n, F& f) {
        while (n != nullptr && n->is_aux()) n = n->next.load(std::memory_order_acquire);
        if (n == nullptr) return;
        walk(n->next.load(std::memory_order_acquire), f);
        if (n->dead_ts.load(std::memory_order_acquire) == rq::kInfTs) f(n->key());
        walk(n->right.load(std::memory_order_acquire), f);
    }

    /// Record handed to in-flight range queries when a revive or splice
    /// physically unlinks a tombstone (see core/rq.hpp).
    struct rq_victim {
        Key key;
        std::uint64_t born;
        std::uint64_t dead;
    };

    std::vector<Key> collect(const Key* lo, const Key* hi) {
        guard g = pool_.make_guard();
        const auto tk = rq_.begin();
        std::vector<Key> out;
        visit_node(pool_.copy(root_aux_), lo, hi, tk.t, out);
        bool merged = false;
        rq_.end(tk, [&](const rq_victim& v) {
            if (v.born == 0 || v.born > tk.t || tk.t >= v.dead) return;
            if (lo != nullptr && cmp_(v.key, *lo)) return;
            if (hi != nullptr && !cmp_(v.key, *hi)) return;
            out.push_back(v.key);
            merged = true;
        });
        if (merged) {
            std::sort(out.begin(), out.end(), cmp_);
            out.erase(std::unique(out.begin(), out.end(),
                                  [&](const Key& a, const Key& b) {
                                      return equal(a, b);
                                  }),
                      out.end());
        }
        return out;
    }

    /// In-order snapshot descent. `p` is a counted/protected reference
    /// consumed by this call; each frame holds its cell while recursing so
    /// the adopted-children invariant of replace-cell keeps the walk on
    /// valid memory even when the cell is concurrently replaced.
    void visit_node(tree_node* p, const Key* lo, const Key* hi, std::uint64_t t,
                    std::vector<Key>& out) {
        while (p != nullptr && p->is_aux()) {  // shunt chains too
            tree_node* n = pool_.protect(p->next);
            pool_.drop(p);
            p = n;
        }
        if (p == nullptr) return;
        const Key& k = p->key();
        if (lo == nullptr || cmp_(*lo, k)) {  // left subtree may hold >= lo
            visit_node(pool_.protect(p->next), lo, hi, t, out);
        }
        if ((lo == nullptr || !cmp_(k, *lo)) && (hi == nullptr || cmp_(k, *hi))) {
            const std::uint64_t born = p->born_ts.load(std::memory_order_acquire);
            const std::uint64_t dead = p->dead_ts.load(std::memory_order_acquire);
            if (born != 0 && born <= t && t < dead) out.push_back(k);
        }
        if (hi == nullptr || cmp_(k, *hi)) {  // right subtree may hold < hi
            visit_node(pool_.protect(p->right), lo, hi, t, out);
        }
        pool_.drop(p);
    }

    void validate(tree_node* n, const Key*& prev, std::string& err, int depth) {
        if (!err.empty() || depth > 10000) return;
        while (n != nullptr && n->is_aux()) n = n->next.load(std::memory_order_acquire);
        if (n == nullptr) return;
        if (!n->is_cell()) {
            err = "non-cell reached as subtree root";
            return;
        }
        tree_node* l = n->next.load(std::memory_order_acquire);
        tree_node* r = n->right.load(std::memory_order_acquire);
        if (l == nullptr || r == nullptr) {
            err = "cell missing an auxiliary child";
            return;
        }
        validate(l, prev, err, depth + 1);
        if (!err.empty()) return;
        if (prev != nullptr && !cmp_(*prev, n->key())) {
            err = "in-order keys not strictly increasing";
            return;
        }
        prev = &n->key();
        validate(r, prev, err, depth + 1);
    }

    pool_type pool_;
    tree_node* root_aux_ = nullptr;
    Compare cmp_;
    rq::registry<rq_victim> rq_;
};

}  // namespace lfll
