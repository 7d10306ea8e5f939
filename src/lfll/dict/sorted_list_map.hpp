// Sorted-list dictionary (§4.1, Figs. 11-13).
//
// Keys are kept unique by maintaining sort order: Insert first runs
// FindFrom to check for the key, and the cursor FindFrom leaves behind is
// exactly the insertion position. A failed TryInsert/TryDelete means a
// concurrent operation restructured the neighbourhood; Update re-validates
// the cursor and the search continues from where it stood (never from the
// front), which is what bounds the paper's amortized extra work.
//
// --- Snapshot / range-query layer (vCAS-lite) ---------------------------
//
// On top of the paper's protocol the map maintains version stamps
// (node.hpp born_ts/dead_ts) against a per-map timestamp source
// (core/rq.hpp), giving linearizable range_query(lo, hi) and whole-map
// snapshot():
//
//   * insert stamps born_ts = now() *after* the winning Fig. 9 swing;
//     range queries treat a zero stamp as "insert in flight" and exclude
//     it (always linearizable: the insert's [CAS, stamp] window is open).
//     Point operations that meet an equal live cell still at zero stamp
//     it themselves first (rq::stamp_born), so a find never reports a key
//     a later range query would miss.
//   * erase LINEARIZES at dead_ts.CAS(inf -> D) — the tombstone mark —
//     then hands the victim's closed interval to in-flight range queries
//     (rq::registry) and only then physically unlinks via Fig. 10. A
//     marked-but-linked cell is already absent to every reader.
//   * cluster order: an insert always lands BEFORE the first equal-key
//     cell, so a live incarnation precedes any tombstones of the same
//     key and point reads can stop at the first key match.
//
// A range query draws one timestamp (its linearization point), rides the
// ordinary batched snapshot_scan — stamps are captured inside the same
// incarnation-validated window as the payload — and merges the victim
// hand-offs at the end.
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
#include "lfll/dict/batch.hpp"
#include "lfll/primitives/backoff.hpp"
#include "lfll/primitives/test_hooks.hpp"
#include "lfll/telemetry/op_counters.hpp"
#include "lfll/telemetry/profiler.hpp"
#include "lfll/telemetry/trace.hpp"

namespace lfll {

template <typename Key, typename Value, typename Compare = std::less<Key>,
          typename Policy = valois_refcount>
class sorted_list_map {
public:
    using policy_type = Policy;
    using key_type = Key;
    using mapped_type = Value;
    using value_type = std::pair<const Key, Value>;
    using list_type = valois_list<value_type, Policy>;
    using cursor = typename list_type::cursor;
    using node = typename list_type::node;

    explicit sorted_list_map(std::size_t initial_capacity = 1024, Compare cmp = Compare{})
        : list_(initial_capacity), cmp_(cmp) {}

    /// Shared/configured-pool constructor (mirrors valois_list's): the
    /// caller owns the pool and may tune it via pool_config — tests pin
    /// the SafeRead-cache knobs this way. The pool must outlive the map.
    explicit sorted_list_map(typename list_type::pool_type& shared_pool,
                             Compare cmp = Compare{})
        : list_(shared_pool), cmp_(cmp) {}

    /// Retry backoff policy (§2.1: exponential backoff handles starvation
    /// at high contention more efficiently than wait-freedom would).
    /// Applied after every failed TryInsert/TryDelete; bench_e8 ablates it.
    void set_backoff(backoff::config cfg) noexcept { backoff_cfg_ = cfg; }

    /// Fig. 11 (FindFrom): scan forward from c for `key`. Returns true and
    /// leaves c on the live match, or returns false with c on the first
    /// cell whose key is >= key (or at end-of-list) — the insertion
    /// position. A tombstoned (marked-dead) first match reports absent:
    /// by the cluster order a live incarnation would precede it. A live
    /// match still unstamped is stamped first (see the header comment).
    bool find_from(const Key& key, cursor& c) {
        // Keep going while the cell's key sorts before ours. seek_while
        // rides the read-only superhop (predicate evaluated on validated
        // snapshot copies, references taken only at the landing) and
        // stops on the first cell with k >= key, or Last.
        list_.seek_while(
            c, [this, &key](const value_type& kv) { return cmp_(kv.first, key); });
        if (c.at_end()) return false;
        if (cmp_(key, (*c).first)) return false;  // strictly greater: absent
        return rq_.live(c.target());
    }

    /// Fig. 12 (Insert): adds key -> value; returns false if the key is
    /// already present.
    bool insert(const Key& key, Value value) {
        telemetry::prof::op_scope prof_op(telemetry::trace_op::insert,
                                          telemetry::key_hash(key));
        cursor c;
        list_.anchor(c, list_.head());
        return insert_at(c, key, std::move(value));
    }

    /// Fig. 13 (Delete): removes the cell with `key`; false if absent.
    /// Linearizes at the tombstone mark (dead_ts CAS), hands the victim
    /// interval to in-flight range queries, then physically unlinks.
    bool erase(const Key& key) {
        telemetry::prof::op_scope prof_op(telemetry::trace_op::erase,
                                          telemetry::key_hash(key));
        cursor c;
        list_.anchor(c, list_.head());
        return erase_at(c, key);
    }

    /// Executes `n` independent ops as ONE sorted cursor pass: the ops
    /// are stable-sorted by key and key i+1's seek resumes from key i's
    /// referenced landing cell (find_from never restarts at First).
    /// Results are written at each op's ORIGINAL index. Each sub-op keeps
    /// its individual linearization point (see batch.hpp); same-key ops
    /// take effect in submission order because the sort is stable and
    /// the cursor lands ON inserted cells / tombstoned victims.
    void apply_batch(const batch_op<Key, Value>* ops, std::size_t n,
                     batch_result<Value>* out) {
        if (n == 0) return;
        cursor c;
        list_.anchor(c, list_.head());
        sorted_pass(
            ops, n, out, c, [ops](std::uint32_t i) -> const Key& { return ops[i].key; },
            [this](cursor& cur, std::uint32_t, bool same_key_erased) {
                if (same_key_erased) list_.anchor(cur, list_.head());
            },
            [](batch_op_kind, bool) {});
    }

    /// Batched conveniences over apply_batch; results in input order.
    std::vector<std::optional<Value>> multi_get(const std::vector<Key>& keys) {
        return batch_detail::multi_get(*this, keys);
    }
    std::vector<bool> multi_insert(const std::vector<std::pair<Key, Value>>& kvs) {
        return batch_detail::multi_insert(*this, kvs);
    }
    std::vector<bool> multi_erase(const std::vector<Key>& keys) {
        return batch_detail::multi_erase(*this, keys);
    }

    /// Dictionary Find: copies out the mapped value if present. Rides the
    /// list's read-only lookup from First: the first cell with k >= key
    /// decides (cluster order: a live incarnation comes first), read from
    /// a validated copy — no reference taken — or, off the fast path,
    /// from a referenced cell that cell persistence (§2.2) keeps intact
    /// against a concurrent delete.
    std::optional<Value> find(const Key& key) {
        telemetry::prof::op_scope prof_op(telemetry::trace_op::find,
                                          telemetry::key_hash(key));
        return lookup(list_.head(), key);
    }

    bool contains(const Key& key) { return find(key).has_value(); }

    /// Visits every live (key, value) in sort order. Concurrent-safe.
    /// Rides the batched scan engine (one protect per kScanBatch cells
    /// under counting policies) instead of the per-cell cursor walk the
    /// map used to do — the visitor sees validated snapshot copies.
    template <typename F>
    void for_each(F&& f) {
        list_.scan([&](const value_type& v, std::uint64_t /*born*/, std::uint64_t dead) {
            if (dead == rq::kInfTs) f(v.first, v.second);
            return true;
        });
    }

    /// Read-only visit for const holders (telemetry sampling). Logically
    /// const: the traversal never changes the mapping, but under counting
    /// policies it does bump reclamation metadata (reference counts) on
    /// the nodes it crosses, hence the cast rather than a const cursor.
    template <typename F>
    void for_each(F&& f) const {
        const_cast<sorted_list_map*>(this)->for_each(std::forward<F>(f));
    }

    /// Ordered range scan: every live (key, value) with lo <= key < hi,
    /// via the light read-only walk. Concurrent-safe but only
    /// per-segment-validated; use range_query() for a linearizable
    /// multi-key read.
    template <typename F>
    void for_each_range(const Key& lo, const Key& hi, F&& f) {
        list_.scan([&](const value_type& v, std::uint64_t /*born*/, std::uint64_t dead) {
            if (cmp_(v.first, lo)) return true;   // before the window
            if (!cmp_(v.first, hi)) return false;  // past it: stop
            if (dead == rq::kInfTs) f(v.first, v.second);
            return true;
        });
    }

    /// Linearizable range query: every (key, value) with lo <= key < hi
    /// as of one single point in time (the timestamp draw). Sorted by
    /// key, each key at most once.
    std::vector<std::pair<Key, Value>> range_query(const Key& lo, const Key& hi) {
        return collect([&](const Key& k) { return cmp_(k, lo); },
                       [&](const Key& k) { return !cmp_(k, hi); });
    }

    /// Linearizable whole-map snapshot (range_query over everything).
    std::vector<std::pair<Key, Value>> snapshot() {
        const auto none = [](const Key&) { return false; };
        return collect(none, none);
    }

    /// Removes every element via the erase protocol. Linearizes per
    /// deletion, not as one atomic sweep; concurrent inserts may survive.
    /// Returns the number of cells this call deleted.
    std::size_t clear() {
        std::size_t deleted = 0;
        for (;;) {
            cursor c(list_);
            if (c.at_end()) return deleted;
            const Key k = (*c).first;
            // A false return means the front cell is mid-erase by some
            // other thread (it unlinks before that erase returns) or was
            // already removed; just re-read the front.
            if (erase(k)) ++deleted;
        }
    }

    std::size_t size_slow() const { return list_.size_slow(); }
    bool empty_slow() const { return list_.empty_slow(); }

    list_type& list() noexcept { return list_; }

private:
    // The split-ordered map is a bucket directory over this map (keyed by
    // (split-order key, key)): it drives the protocol steps below from
    // its bucket dummies instead of First.
    template <typename, typename, typename, typename, typename>
    friend class split_ordered_map;

    /// The read-only lookup behind find(), walking from `start` (borrowed,
    /// as in valois_list::lookup_from): First for find(), a bucket dummy
    /// for split_ordered_map::find().
    std::optional<Value> lookup(node* start, const Key& key) {
        std::optional<Value> out;
        list_.lookup_from(
            start, [this, &key](const value_type& kv) { return cmp_(kv.first, key); },
            [&](const value_type& v, std::uint64_t /*born*/, std::uint64_t dead) {
                if (!cmp_(key, v.first) && dead == rq::kInfTs) out.emplace(v.second);
            },
            [this] { return rq_.now(); });
        return out;
    }

    /// The sorted batch pass behind apply_batch, on cursor `c`: stable-
    /// sorts the ops by key_of(i), then serves them in that order. Before
    /// each sub-op, anchor(c, i, same_key_erased) may reposition the
    /// cursor; same_key_erased says the previous sub-op erased this very
    /// key, which can leave the cursor past a live re-incarnation of it
    /// (unlink_marked walks the cluster by identity), so the caller must
    /// re-anchor. After each insert/erase, done(kind, ok) runs inside
    /// the sub-op's profiler scope.
    template <typename OpKey, typename KeyOf, typename Anchor, typename Done>
    void sorted_pass(const batch_op<OpKey, Value>* ops, std::size_t n,
                     batch_result<Value>* out, cursor& c, KeyOf key_of, Anchor anchor,
                     Done done) {
        std::vector<std::uint32_t> order(n);
        for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
        std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
            return cmp_(key_of(a), key_of(b));
        });
        const Key* erased = nullptr;  // key of the previous sub-op, if it erased
        for (std::uint32_t idx : order) {
            const batch_op<OpKey, Value>& op = ops[idx];
            const Key& key = key_of(idx);
            // The cursor-resume handoff between sub-ops: a preemption here
            // lets concurrent mutators restructure the neighbourhood the
            // resumed seek starts from.
            testing_hooks::chaos_point(sched::step_kind::batch_drain);
            anchor(c, idx, erased != nullptr && !cmp_(*erased, key) && !cmp_(key, *erased));
            erased = nullptr;
            switch (op.kind) {
                case batch_op_kind::get: {
                    telemetry::prof::op_scope prof_op(telemetry::trace_op::find,
                                                      telemetry::key_hash(op.key));
                    if (find_from(key, c)) {
                        out[idx].ok = true;
                        out[idx].value.emplace((*c).second);
                    } else {
                        out[idx].ok = false;
                    }
                    break;
                }
                case batch_op_kind::insert: {
                    telemetry::prof::op_scope prof_op(telemetry::trace_op::insert,
                                                      telemetry::key_hash(op.key));
                    out[idx].ok = insert_at(c, key, op.value);
                    done(op.kind, out[idx].ok);
                    break;
                }
                case batch_op_kind::erase: {
                    telemetry::prof::op_scope prof_op(telemetry::trace_op::erase,
                                                      telemetry::key_hash(op.key));
                    out[idx].ok = erase_at(c, key);
                    done(op.kind, out[idx].ok);
                    if (out[idx].ok) erased = &key;
                    break;
                }
            }
        }
    }

    /// Insert protocol body, resuming the seek from wherever `c` stands
    /// (anchored at a borrowed start, or the previous batch sub-op's
    /// landing cell). On
    /// success the cursor lands ON the inserted cell so a later equal-key
    /// op in the same batch observes it; on "already present" it rests on
    /// the existing live match.
    bool insert_at(cursor& c, const Key& key, Value value) {
        node* q = nullptr;
        node* a = nullptr;
        backoff bo(backoff_cfg_);
        for (;;) {
            if (find_from(key, c)) {
                if (q != nullptr) {
                    list_.release_node(q);
                    list_.release_node(a);
                }
                return false;
            }
            if (q == nullptr) {
                q = list_.make_cell(key, std::move(value));
                a = list_.make_aux();
            }
            if (list_.try_insert(c, q, a)) {
                // Version-stamp AFTER the winning swing: the timestamp is
                // drawn later than the link CAS in seq_cst order, which
                // is what lets readers treat born <= t as "linked before
                // my linearization point". Until the stamp lands the
                // cell reads as "insert in flight" to range queries.
                rq_.stamp(q->born_ts);
                testing_hooks::chaos_point(sched::step_kind::version_publish);
                list_.release_node(a);
                list_.land_on_inserted(c, q);
                return true;
            }
            {
                telemetry::prof::phase_scope prof_retry(telemetry::prof::phase::cas_retry);
                bo();
                list_.update(c);
            }
        }
    }

    /// Erase protocol body, resuming from `c`. Afterwards the cursor
    /// rests on the tombstoned victim (or past the key's cluster on the
    /// unlink-drift path) — both positions frozen-next-link back into the
    /// live suffix, so the next sorted sub-op's seek resumes safely
    /// unless it has the same key (apply_batch re-anchors that one).
    bool erase_at(cursor& c, const Key& key) {
        if (!find_from(key, c)) return false;
        node* victim = c.target();
        const std::uint64_t d = rq_.now();
        testing_hooks::chaos_point(sched::step_kind::version_publish);
        std::uint64_t expected = rq::kInfTs;
        if (!victim->dead_ts.compare_exchange_strong(expected, d,
                                                     std::memory_order_seq_cst,
                                                     std::memory_order_acquire)) {
            // Lost the mark race: a concurrent erase owns this cell, so
            // the key is absent at our linearization point.
            instrument::tls().delete_retries++;
            return false;
        }
        // We own the erase. Publish the closed interval to any range
        // query that could still need it, then unlink (Fig. 10).
        if (rq_.armed()) {
            rq_.hand_off(rq_victim{victim->value().first, victim->value().second,
                                   victim->born_ts.load(std::memory_order_acquire), d});
        }
        unlink_marked(key, victim, c);
        // Re-derive the cursor at the erase site. Beyond recovering the
        // documented post-try_delete invalidity, reposition() compacts
        // the aux chain the unlink left at pre_cell->next — try_delete's
        // own compaction is best-effort under deferred policies (a
        // retired pre_cell nulls the back-link trail), and §3's "the
        // next traversal finishes it" argument needs an actual next
        // traversal, which a single-pass batch would otherwise never
        // make through this neighbourhood.
        list_.update(c);
        return true;
    }

    /// Victim record handed to in-flight range queries when a marked cell
    /// is about to be physically unlinked.
    struct rq_victim {
        Key key;
        Value value;
        std::uint64_t born;
        std::uint64_t dead;
    };

    /// Physically unlink a cell this thread tombstoned. The mark winner
    /// owns the unlink, but clear()/helping may race it away — the walk
    /// detects "no longer linked" and stops. Re-seeks go by IDENTITY:
    /// the key may meanwhile have live re-incarnations that must not be
    /// deleted in the victim's stead.
    void unlink_marked(const Key& key, node* victim, cursor& c) {
        backoff bo(backoff_cfg_);
        for (;;) {
            if (!c.at_end() && c.target() == victim) {
                if (list_.try_delete(c)) return;
                {
                    telemetry::prof::phase_scope prof_retry(
                        telemetry::prof::phase::cas_retry);
                    bo();
                    list_.update(c);
                }
                continue;
            }
            // Cursor drifted off the victim: re-seek the equal-key
            // cluster and walk it looking for the exact node. Frozen
            // next-pointers of deleted cells always lead back into the
            // live suffix at or before the victim, so a still-linked
            // victim cannot be skipped — walking past the cluster proves
            // it is already unlinked.
            find_from(key, c);
            while (!c.at_end() && !cmp_(key, (*c).first) && c.target() != victim) {
                if (!list_.next(c)) break;
            }
            if (c.at_end() || cmp_(key, (*c).first)) return;  // already unlinked
        }
    }

    /// Shared body of range_query()/snapshot() and the split-ordered
    /// map's range_query: one stamped walk plus the victim hand-offs,
    /// keeping the keys that neither skip(k) nor stop(k) — stop(k) also
    /// ends the walk, so only a filter in key order may return true from
    /// it. Sorted by key, each key at most once.
    template <typename Skip, typename Stop>
    std::vector<std::pair<Key, Value>> collect(Skip skip, Stop stop) {
        const auto tk = rq_.begin();
        std::vector<std::pair<Key, Value>> out;
        list_.snapshot_scan([&](const value_type& v, std::uint64_t born,
                                std::uint64_t dead) {
            if (skip(v.first)) return true;
            if (stop(v.first)) return false;  // sorted: stop
            if (born != 0 && born <= tk.t && tk.t < dead) {
                out.emplace_back(v.first, v.second);
            }
            return true;
        });
        bool merged = false;
        rq_.end(tk, [&](const rq_victim& v) {
            if (skip(v.key) || stop(v.key)) return;
            if (v.born > tk.t || tk.t >= v.dead) return;  // not alive at t
            out.emplace_back(v.key, v.value);
            merged = true;
        });
        if (merged) {
            // Victims arrive unordered and may duplicate cells the walk
            // already saw (push raced the unlink); same-key intervals
            // are disjoint, so duplicates carry identical values.
            std::sort(out.begin(), out.end(),
                      [this](const auto& a, const auto& b) { return cmp_(a.first, b.first); });
            out.erase(std::unique(out.begin(), out.end(),
                                  [this](const auto& a, const auto& b) {
                                      return !cmp_(a.first, b.first) &&
                                             !cmp_(b.first, a.first);
                                  }),
                      out.end());
        }
        return out;
    }

    list_type list_;
    Compare cmp_;
    backoff::config backoff_cfg_{};
    rq::registry<rq_victim> rq_;
};

}  // namespace lfll
