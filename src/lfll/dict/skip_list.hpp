// Lock-free skip list (§4.1): "a collection of k sorted singly-linked
// lists, such that higher level lists contain a subset of the cells in
// lower level lists. As in [23], insertions and deletions are performed
// one level at a time, insertions starting with the bottom level and
// working up, and deletions starting at the top and working down."
//
// Design notes (beyond the paper's sketch):
//  * All levels share ONE node pool; a level-i cell's payload carries a
//    counted `down` link to its level-(i-1) node, so descending never
//    dereferences reclaimed memory (the link pins the node, and cell
//    persistence keeps traversal from a deleted node correct).
//  * Membership truth lives at level 0 only. Levels >= 1 are search
//    accelerators: a stale upper-level entry (deleted below, or not yet
//    promoted) affects performance, never correctness — exactly the
//    failure-isolation the bottom-up/top-down ordering gives the paper.
//  * Descending from a deleted predecessor is safe because a deleted
//    cell's next chain always re-joins the live list at its old position,
//    so no key >= the predecessor's key can be missed (see DESIGN.md).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "lfll/core/list.hpp"
#include "lfll/core/rq.hpp"
#include "lfll/primitives/rng.hpp"
#include "lfll/primitives/test_hooks.hpp"

namespace lfll {

template <typename Key, typename Value, typename Compare = std::less<Key>,
          typename Policy = valois_refcount>
class skip_list_map {
public:
    struct entry;
    using policy_type = Policy;
    using list_type = valois_list<entry, Policy>;
    using node = list_node<entry, Policy>;
    using cursor = typename list_type::cursor;

    struct entry {
        Key key;
        std::optional<Value> value;  ///< engaged only at level 0
        node* down = nullptr;        ///< counted link to the level below

        /// node_pool reclamation hook: the down pointer is a counted link.
        /// (Also consumed read-only by the audit's in-degree walk.)
        template <typename Sink>
        void counted_links(Sink&& drop) const noexcept {
            drop(down);
        }
    };

    explicit skip_list_map(std::size_t initial_capacity = 1024, int max_level = 16,
                           Compare cmp = Compare{})
        : pool_(initial_capacity + 4 * static_cast<std::size_t>(max_level)),
          max_level_(max_level),
          cmp_(cmp) {
        levels_.reserve(max_level_);
        for (int i = 0; i < max_level_; ++i) {
            levels_.push_back(std::make_unique<list_type>(pool_));
        }
    }

    bool insert(const Key& key, Value value) {
        std::vector<node*> preds;
        cursor c0;
        descend(key, c0, &preds);

        // Level-0 insert decides membership (Fig. 12 logic).
        node* q = nullptr;
        node* a = nullptr;
        bool won = false;
        for (;;) {
            if (find_in_level(0, key, c0)) break;  // already present
            if (q == nullptr) {
                q = levels_[0]->make_cell(entry{key, std::move(value), nullptr});
                a = levels_[0]->make_aux();
            }
            if (levels_[0]->try_insert(c0, q, a)) {
                // Version-stamp AFTER the winning swing (see
                // sorted_list_map). Only level 0 carries stamps:
                // accelerator entries are not membership.
                rq_.stamp(q->born_ts);
                testing_hooks::chaos_point(sched::step_kind::version_publish);
                won = true;
                break;
            }
            levels_[0]->update(c0);
        }
        c0.reset();
        if (!won) {
            if (q != nullptr) {
                levels_[0]->release_node(q);
                levels_[0]->release_node(a);
            }
            release_preds(preds);
            return false;
        }
        levels_[0]->release_node(a);

        // Promote bottom-up to a random height. `below` carries a private
        // reference on the node one level down.
        const int height = random_level();
        node* below = q;  // q's private reference transfers to `below`
        for (int i = 1; i < height; ++i) {
            if (!promote(i, key, preds[i], below)) break;
        }
        pool_.release(below);
        release_preds(preds);
        return true;
    }

    bool erase(const Key& key) {
        std::vector<node*> preds;
        cursor c0;
        descend(key, c0, &preds);

        // Membership truth is level 0: linearize there via the tombstone
        // mark, hand the victim to in-flight range queries, then strip
        // accelerators top-down and physically unlink the marked cell.
        if (!find_in_level(0, key, c0)) {
            c0.reset();
            release_preds(preds);
            return false;
        }
        node* victim = c0.target();
        const std::uint64_t d = rq_.now();
        testing_hooks::chaos_point(sched::step_kind::version_publish);
        std::uint64_t expected = rq::kInfTs;
        if (!victim->dead_ts.compare_exchange_strong(expected, d,
                                                     std::memory_order_seq_cst,
                                                     std::memory_order_acquire)) {
            // Lost the mark race: a concurrent erase owns this cell.
            instrument::tls().delete_retries++;
            c0.reset();
            release_preds(preds);
            return false;
        }
        if (rq_.armed()) {
            const entry& e = victim->value();
            rq_.hand_off(rq_victim{e.key, *e.value,
                                   victim->born_ts.load(std::memory_order_acquire), d});
        }
        // Top-down (paper's order): strip the accelerator entries first so
        // the subset property is restored by the time level 0 commits.
        for (int i = max_level_ - 1; i >= 1; --i) {
            erase_in_level(i, key, preds[i]);
        }
        unlink_level0(key, victim, c0);
        release_preds(preds);
        return true;
    }

    std::optional<Value> find(const Key& key) {
        cursor c0;
        descend(key, c0, nullptr);
        if (!find_in_level(0, key, c0)) return std::nullopt;
        return (*c0).value;  // cursor pins the cell; optional copy is safe
    }

    bool contains(const Key& key) { return find(key).has_value(); }

    /// Bottom level holds exactly the members. Quiescent use.
    std::size_t size_slow() const { return levels_[0]->size_slow(); }

    /// Visits members in key order (level-0 walk, batched scan engine).
    /// Concurrent-safe; tombstoned cells are skipped.
    template <typename F>
    void for_each(F&& f) {
        levels_[0]->scan([&](const entry& e, std::uint64_t /*born*/,
                             std::uint64_t dead) {
            if (dead == rq::kInfTs) f(e.key, *e.value);
            return true;
        });
    }

    /// Ordered range scan: visits every member with lo <= key < hi, in
    /// key order, positioning via the O(log n) descent rather than a
    /// front-to-back walk. Concurrent-safe like any cursor traversal.
    template <typename F>
    void for_each_range(const Key& lo, const Key& hi, F&& f) {
        cursor c;
        descend(lo, c, nullptr);
        for (; !c.at_end(); levels_[0]->next(c)) {
            const Key& k = (*c).key;
            if (!cmp_(k, hi)) break;  // k >= hi
            if (c.target()->dead_ts.load(std::memory_order_acquire) ==
                rq::kInfTs) {
                f(k, *(*c).value);
            }
        }
        c.reset();
    }

    /// Linearizable snapshot of every member with lo <= key < hi, as of
    /// the instant the query's timestamp was drawn. The O(log n) descent
    /// positions the walk; the stamped level-0 scan plus the victim
    /// registry do the rest (see core/rq.hpp).
    std::vector<std::pair<Key, Value>> range_query(const Key& lo, const Key& hi) {
        return collect(&lo, &hi);
    }

    /// Full point-in-time snapshot, in key order.
    std::vector<std::pair<Key, Value>> snapshot() { return collect(nullptr, nullptr); }

    int max_level() const noexcept { return max_level_; }
    list_type& level(int i) noexcept { return *levels_[i]; }
    node_pool<node, Policy>& pool() noexcept { return pool_; }

private:
    /// Walks level `lvl` from cursor c's current position until the target
    /// key is >= `key`. True iff the key was found (at level 0: found and
    /// live — a tombstoned first match means absent, and the cursor stays
    /// on it, which is the correct insert-before position since live cells
    /// precede dead ones inside an equal-key cluster).
    bool find_in_level(int lvl, const Key& key, cursor& c) {
        auto& ctr = instrument::tls();
        while (!c.at_end()) {
            const Key& k = (*c).key;
            ctr.cells_traversed++;
            if (!cmp_(k, key) && !cmp_(key, k)) {
                if (lvl > 0) return true;  // accelerators carry no stamps
                return rq_.live(c.target());  // stamps a live match still at born == 0
            }
            if (cmp_(key, k)) return false;
            levels_[lvl]->next(c);
        }
        return false;
    }

    /// Physically unlinks a cell this thread marked dead. By identity:
    /// retries target the exact victim, and walking past the equal-key
    /// cluster without meeting it proves someone else unlinked it (a
    /// deleted cell's frozen next chain cannot skip a still-linked cell).
    void unlink_level0(const Key& key, node* victim, cursor& c) {
        for (;;) {
            if (!c.at_end() && !cmp_(key, (*c).key) && !cmp_((*c).key, key) &&
                c.target() == victim) {
                if (levels_[0]->try_delete(c)) break;
                levels_[0]->update(c);
                continue;
            }
            find_in_level(0, key, c);  // repositions into the cluster
            while (!c.at_end() && !cmp_(key, (*c).key) && c.target() != victim) {
                if (!levels_[0]->next(c)) break;
            }
            if (c.at_end() || cmp_(key, (*c).key)) break;  // already unlinked
        }
        c.reset();
    }

    /// Top-to-bottom search. On return, c0 sits at the first level-0 cell
    /// with key >= `key`. If `preds` is non-null it receives, per level, a
    /// counted reference on the predecessor cell (the last cell visited
    /// with key < `key`; the level's First dummy if none).
    void descend(const Key& key, cursor& c0, std::vector<node*>* preds) {
        if (preds != nullptr) preds->assign(max_level_, nullptr);
        node* start = nullptr;  // counted ref into the current level
        for (int i = max_level_ - 1; i >= 0; --i) {
            cursor c;
            if (start != nullptr) {
                levels_[i]->seek(c, start);
            } else {
                levels_[i]->first(c);
            }
            while (!c.at_end() && cmp_((*c).key, key)) levels_[i]->next(c);
            node* pred = c.pre_cell();
            // The cursor's traversal reference on pred may be a raw
            // pointer under a pin (epoch policy); keeping pred beyond
            // this level's cursor needs a count, and the count must not
            // resurrect a node already retired — hence try_ref, with a
            // null hint (searchers fall back to the level head) when it
            // refuses.
            if (preds != nullptr) (*preds)[i] = pool_.try_ref(pred) ? pred : nullptr;
            node* next_start = nullptr;
            if (i > 0 && pred->is_cell()) {
                // pred's counted down link keeps the node below at count
                // >= 1 until pred is reclaimed, which the cursor's
                // reference (or pin) forbids — but pred itself may just
                // have been retired, so check the claim all the same.
                node* down = pred->value().down;
                next_start = pool_.try_ref(down) ? down : nullptr;
            }
            pool_.release(start);
            start = next_start;
            if (i == 0) c0 = std::move(c);
        }
    }

    /// Inserts an accelerator entry for `key` at level `lvl` (down link to
    /// `below`), starting the search at `from`. Returns false if an entry
    /// with the key already exists there (promotion stops: the existing
    /// tower — possibly a dying one — already covers this level).
    bool promote(int lvl, const Key& key, node* from, node*& below) {
        cursor c;
        if (from != nullptr && from->is_cell()) {
            levels_[lvl]->seek(c, from);
        } else {
            levels_[lvl]->first(c);
        }
        node* q = nullptr;
        node* a = nullptr;
        for (;;) {
            if (find_in_level(lvl, key, c)) {
                if (q != nullptr) {
                    levels_[lvl]->release_node(q);
                    levels_[lvl]->release_node(a);
                }
                return false;
            }
            if (q == nullptr) {
                q = levels_[lvl]->make_cell(entry{key, std::nullopt, pool_.ref(below)});
                a = levels_[lvl]->make_aux();
            }
            if (levels_[lvl]->try_insert(c, q, a)) break;
            levels_[lvl]->update(c);
        }
        levels_[lvl]->release_node(a);
        pool_.release(below);
        below = q;  // q's private reference moves into `below`
        return true;
    }

    /// Deletes `key` from level `lvl` if present, searching from `from`.
    bool erase_in_level(int lvl, const Key& key, node* from) {
        cursor c;
        if (from != nullptr && from->is_cell()) {
            levels_[lvl]->seek(c, from);
        } else {
            levels_[lvl]->first(c);
        }
        for (;;) {
            if (!find_in_level(lvl, key, c)) return false;
            if (levels_[lvl]->try_delete(c)) return true;
            levels_[lvl]->update(c);
        }
    }

    void release_preds(std::vector<node*>& preds) {
        for (node* p : preds) pool_.release(p);
        preds.clear();
    }

    /// Record handed to in-flight range queries when an erase unlinks a
    /// cell (see core/rq.hpp for the full protocol).
    struct rq_victim {
        Key key;
        Value value;
        std::uint64_t born;
        std::uint64_t dead;
    };

    /// Shared walk for range_query / snapshot. Draws the query timestamp,
    /// walks level 0 with the stamped batch scan (anchored via the skip
    /// descent when `lo` bounds the range), then merges unlink hand-offs.
    std::vector<std::pair<Key, Value>> collect(const Key* lo, const Key* hi) {
        const auto tk = rq_.begin();
        std::vector<std::pair<Key, Value>> out;
        auto visit = [&](const entry& e, std::uint64_t born, std::uint64_t dead) {
            if (lo != nullptr && cmp_(e.key, *lo)) return true;
            if (hi != nullptr && !cmp_(e.key, *hi)) return false;  // sorted: done
            if (born != 0 && born <= tk.t && tk.t < dead) {
                out.emplace_back(e.key, *e.value);
            }
            return true;
        };
        if (lo != nullptr) {
            // Anchor at the level-0 predecessor of the first key >= lo.
            // The cursor's reference keeps the anchor provably live for
            // scan_from; every live cell in [lo, hi) sits at or after it
            // (cells linked after the timestamp carry born > t anyway).
            cursor c;
            descend(*lo, c, nullptr);
            node* start = c.pre_cell();
            levels_[0]->snapshot_scan_from(start, visit);
            c.reset();
        } else {
            levels_[0]->snapshot_scan(visit);
        }
        bool merged = false;
        rq_.end(tk, [&](const rq_victim& v) {
            if (v.born == 0 || v.born > tk.t || tk.t >= v.dead) return;
            if (lo != nullptr && cmp_(v.key, *lo)) return;
            if (hi != nullptr && !cmp_(v.key, *hi)) return;
            out.emplace_back(v.key, v.value);
            merged = true;
        });
        if (merged) {
            std::sort(out.begin(), out.end(), [&](const auto& a, const auto& b) {
                return cmp_(a.first, b.first);
            });
            out.erase(std::unique(out.begin(), out.end(),
                                  [&](const auto& a, const auto& b) {
                                      return !cmp_(a.first, b.first) &&
                                             !cmp_(b.first, a.first);
                                  }),
                      out.end());
        }
        return out;
    }

    int random_level() {
        // Seeded from a process-wide ordinal, not the TLS object's
        // address: with ASLR an address seed makes tower heights — and
        // therefore every schedule that depends on them — unreproducible
        // across runs, defeating deterministic replay.
        static std::atomic<std::uint64_t> ordinal{0};
        thread_local xorshift64 rng(
            0x51c9a11dULL ^
            (0x9e3779b97f4a7c15ULL *
             (1 + ordinal.fetch_add(1, std::memory_order_relaxed))));
        int h = 1;
        while (h < max_level_ && (rng.next() & 1) != 0) ++h;
        return h;
    }

    node_pool<node, Policy> pool_;  // declared before levels_: destroyed after them
    std::vector<std::unique_ptr<list_type>> levels_;
    int max_level_;
    Compare cmp_;
    rq::registry<rq_victim> rq_;
};

}  // namespace lfll
