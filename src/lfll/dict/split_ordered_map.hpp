// Split-ordered resizable hash map (Shalev & Shavit, "Split-Ordered
// Lists: Lock-Free Extensible Hash Tables"), built on the paper's own
// lock-free list.
//
// The §4.1 fixed table (hash_map.hpp) caps capacity at construction: a
// table sized for the peak wastes memory, one sized for the average
// degenerates to long-chain traversal under growth. Split ordering makes
// the table resizable with ZERO migration: all entries live in ONE
// logical sorted list, ordered by the bit-reversal of their hash (the
// "split-order key"), and the bucket array is merely an array of
// shortcuts — counted references to sentinel "dummy" cells inserted into
// that list. Because reversing the hash makes a bucket's entries
// contiguous and splitting bucket b (table size n -> 2n) means inserting
// one new dummy *between* b's entries (those with hash bit log2(n) clear
// vs set), a resize never moves a single entry:
//
//   * grow     = publish a bigger bucket count (one CAS on an integer);
//   * split    = first access to a fresh bucket lazily inserts its dummy
//                via a plain lock-free list insert, recursing to the
//                parent bucket (index with the top set bit cleared);
//   * lookup   = start the list walk at the bucket's dummy instead of
//                First (valois_list::seek / lookup_from), so chains stay
//                O(load factor) while correctness never depends on the
//                shortcut: every anchor's split-order key precedes its
//                bucket's entries in the SAME sorted list a from-head
//                walk would traverse.
//
// Linearization: insert/erase/find linearize at exactly the underlying
// list's CAS points (Figs. 9-10 / the find's traversal read), precisely
// as in sorted_list_map — dummies are payload cells the map-level
// operations skip, and the bucket directory only decides where a search
// STARTS, never what it observes. The bucket-count CAS orders no
// operation: an op that read the old count starts one dummy earlier and
// walks the identical sorted suffix. Hence "no stop-the-world": there is
// no window in which any operation waits on a resize.
//
// Reclamation is pluggable like everywhere else (valois_refcount /
// hazard / epoch); dummies are never deleted, so bucket shortcuts stay
// valid under every policy (each slot holds a counted reference).
//
// Constraints vs hash_map: Key and Value must be default-constructible
// (dummy cells carry a default payload). hash_map remains the
// compile-time fixed-size fallback with the identical public API
// (insert/erase/find/contains/for_each/size_slow/bucket_count).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lfll/core/list.hpp"
#include "lfll/core/rq.hpp"
#include "lfll/dict/batch.hpp"
#include "lfll/primitives/backoff.hpp"
#include "lfll/primitives/cacheline.hpp"
#include "lfll/primitives/instrument.hpp"
#include "lfll/primitives/test_hooks.hpp"
#include "lfll/telemetry/metrics.hpp"
#include "lfll/telemetry/profiler.hpp"
#include "lfll/telemetry/trace.hpp"

namespace lfll {

namespace so_detail {

/// 64-bit bit reversal (the split-order transform).
constexpr std::uint64_t bit_reverse(std::uint64_t v) noexcept {
    v = ((v >> 1) & 0x5555555555555555ULL) | ((v & 0x5555555555555555ULL) << 1);
    v = ((v >> 2) & 0x3333333333333333ULL) | ((v & 0x3333333333333333ULL) << 2);
    v = ((v >> 4) & 0x0f0f0f0f0f0f0f0fULL) | ((v & 0x0f0f0f0f0f0f0f0fULL) << 4);
    v = ((v >> 8) & 0x00ff00ff00ff00ffULL) | ((v & 0x00ff00ff00ff00ffULL) << 8);
    v = ((v >> 16) & 0x0000ffff0000ffffULL) | ((v & 0x0000ffff0000ffffULL) << 16);
    return (v >> 32) | (v << 32);
}

/// splitmix64 finalizer: std::hash is identity for integers, and split
/// ordering buckets by the LOW hash bits, so the raw hash must be mixed.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/// Split-order key of a regular entry: reversed hash with the low bit
/// set, so it sorts strictly after its bucket's dummy (reversed bucket
/// index, low bit clear — bucket indices never use bit 63).
constexpr std::uint64_t so_regular(std::uint64_t h) noexcept { return bit_reverse(h) | 1; }
constexpr std::uint64_t so_dummy(std::uint64_t bucket) noexcept { return bit_reverse(bucket); }
constexpr bool is_dummy_key(std::uint64_t so) noexcept { return (so & 1) == 0; }

/// Parent in the recursive-split order: the index with its top set bit
/// cleared (bucket b first appears when the table doubles past that bit).
constexpr std::uint64_t parent_bucket(std::uint64_t b) noexcept {
    return b & ~(std::uint64_t{1} << (std::bit_width(b) - 1));
}

}  // namespace so_detail

/// Construction-time knobs.
struct split_ordered_config {
    /// Starting bucket count (rounded up to a power of two).
    std::size_t initial_buckets = 16;
    /// Initial node-pool slots (entries + dummies; the pool grows anyway).
    std::size_t capacity_hint = 64;
    /// Grow (double) when size exceeds max_load * buckets.
    double max_load = 4.0;
    /// Shrink (halve, never below initial) when size drops under
    /// min_load * buckets. 0 disables shrinking (the default: stale
    /// dummies stay in the list either way, so shrink only trims the
    /// directory walk, it reclaims no memory).
    double min_load = 0.0;
    /// Hard directory cap.
    std::size_t max_buckets = std::size_t{1} << 24;
    /// A thread re-checks the load factor every this-many of its own
    /// updates (power of two). 1 = every update (deterministic tests).
    std::uint32_t resize_check_period = 16;
};

template <typename Key, typename Value, typename Hash = std::hash<Key>,
          typename Compare = std::less<Key>, typename Policy = valois_refcount>
class split_ordered_map {
public:
    using policy_type = Policy;
    using key_type = Key;
    using mapped_type = Value;

    /// One list payload: the split-order key plus the user pair. Dummies
    /// carry so with the low bit clear and a default-constructed pair.
    struct entry {
        std::uint64_t so;
        Key key;
        Value value;
    };

    using list_type = valois_list<entry, Policy>;
    using node = typename list_type::node;
    using cursor = typename list_type::cursor;
    using config = split_ordered_config;

    explicit split_ordered_map(std::size_t initial_buckets = 16,
                               std::size_t capacity_hint = 64, Hash hash = Hash{})
        : split_ordered_map(config{initial_buckets, capacity_hint}, hash) {}

    explicit split_ordered_map(const config& cfg, Hash hash = Hash{},
                               Compare cmp = Compare{})
        : hash_(hash),
          cmp_(cmp),
          max_load_(cfg.max_load),
          min_load_(cfg.min_load),
          max_buckets_(cfg.max_buckets),
          check_mask_(cfg.resize_check_period <= 1 ? 0 : cfg.resize_check_period - 1),
          list_(cfg.capacity_hint) {
        std::size_t n = 1;
        while (n < cfg.initial_buckets) n <<= 1;
        initial_buckets_ = n;
        log2_initial_ = static_cast<unsigned>(std::bit_width(n) - 1);
        bucket_count_.store(n, std::memory_order_relaxed);

        // Resize/shard telemetry, labelled by policy and shared by every
        // map under that policy (last-sampled instance wins, like the
        // pool-health gauges; see docs/telemetry.md).
        auto& reg = telemetry::registry::global();
        const std::string label = std::string("policy=\"") + Policy::name + "\"";
        g_grows_ = &reg.get_counter("lfll_hash_resize_total",
                                    std::string("dir=\"grow\",") + label);
        g_shrinks_ = &reg.get_counter("lfll_hash_resize_total",
                                      std::string("dir=\"shrink\",") + label);
        g_buckets_ = &reg.get_gauge("lfll_hash_buckets", label);
        g_size_ = &reg.get_gauge("lfll_hash_size", label);
        g_dummies_ = &reg.get_counter("lfll_hash_dummy_inits_total", label);
        g_buckets_->set(static_cast<std::int64_t>(n));

        // Segment 0 (indices [0, initial_buckets)) exists eagerly, as does
        // bucket 0's dummy — the recursion base for every lazy split.
        segments_[0].store(new_segment(n), std::memory_order_release);
        init_bucket_zero();
    }

    ~split_ordered_map() {
        // Drop the directory's counted references before the list tears
        // the chain down, then free the segment arrays.
        for (std::size_t s = 0; s < kMaxSegments; ++s) {
            slot_type* seg = segments_[s].load(std::memory_order_acquire);
            if (seg == nullptr) continue;
            const std::size_t len = segment_len(s);
            for (std::size_t i = 0; i < len; ++i) {
                list_.pool().unref(seg[i].load(std::memory_order_relaxed));
            }
            delete[] seg;
        }
    }

    split_ordered_map(const split_ordered_map&) = delete;
    split_ordered_map& operator=(const split_ordered_map&) = delete;

    /// Retry backoff (§2.1), as in sorted_list_map; bench_e8 ablates it.
    void set_backoff(backoff::config cfg) noexcept { backoff_cfg_ = cfg; }

    bool insert(const Key& key, Value value) {
        LFLL_TRACE_SPAN(telemetry::trace_op::insert, telemetry::key_hash(key));
        telemetry::prof::op_scope prof_op(telemetry::trace_op::insert,
                                          telemetry::key_hash(key));
        const std::uint64_t h = hash_of(key);
        cursor c;
        anchor(h, c);
        return insert_at_so(c, so_detail::so_regular(h), key, std::move(value));
    }

    bool erase(const Key& key) {
        LFLL_TRACE_SPAN(telemetry::trace_op::erase, telemetry::key_hash(key));
        telemetry::prof::op_scope prof_op(telemetry::trace_op::erase,
                                          telemetry::key_hash(key));
        const std::uint64_t h = hash_of(key);
        cursor c;
        anchor(h, c);
        return erase_at_so(c, so_detail::so_regular(h), key);
    }

    /// Executes `n` independent ops as a split-order-sorted cursor pass,
    /// binned into bucket runs: ops are stable-sorted by (split-order
    /// key, key), the cursor re-anchors at a bucket's dummy when the run
    /// changes and RESUMES within a run. The bucket binning samples the
    /// mask once — purely a perf heuristic: all entries live in the one
    /// so-sorted list, so a concurrent resize only costs an extra
    /// re-anchor, never correctness. Results land at each op's original
    /// index; every sub-op keeps its individual linearization point and
    /// its own load-factor tick (see batch.hpp / sorted_list_map).
    void apply_batch(const batch_op<Key, Value>* ops, std::size_t n,
                     batch_result<Value>* out) {
        if (n == 0) return;
        std::vector<std::uint64_t> hs(n);
        std::vector<std::uint64_t> sos(n);
        for (std::size_t i = 0; i < n; ++i) {
            hs[i] = hash_of(ops[i].key);
            sos[i] = so_detail::so_regular(hs[i]);
        }
        std::vector<std::uint32_t> order(n);
        for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
        // (so, key) mirrors the list's sort order (find_from_so's
        // predicate); stable keeps same-key ops in submission order.
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                             if (sos[a] != sos[b]) return sos[a] < sos[b];
                             return cmp_(ops[a].key, ops[b].key);
                         });
        const std::size_t m = mask();
        cursor c;
        std::size_t run_bucket = ~std::size_t{0};
        const Key* erased = nullptr;  // key of the previous sub-op, if it erased
        for (std::uint32_t idx : order) {
            const batch_op<Key, Value>& op = ops[idx];
            testing_hooks::chaos_point(sched::step_kind::batch_drain);
            const std::size_t b = hs[idx] & m;
            // As in sorted_list_map::apply_batch: an erase can leave the
            // cursor past a live re-incarnation of its key, so a same-key
            // sub-op re-anchors at the bucket dummy.
            if (erased != nullptr && !cmp_(*erased, op.key) && !cmp_(op.key, *erased)) {
                run_bucket = ~std::size_t{0};
            }
            erased = nullptr;
            if (b != run_bucket) {
                anchor(hs[idx], c);  // new bucket run: jump to its dummy
                run_bucket = b;
            }
            switch (op.kind) {
                case batch_op_kind::get: {
                    telemetry::prof::op_scope prof_op(telemetry::trace_op::find,
                                                      telemetry::key_hash(op.key));
                    if (find_from_so(sos[idx], op.key, c)) {
                        out[idx].ok = true;
                        out[idx].value.emplace((*c).value);
                    } else {
                        out[idx].ok = false;
                    }
                    break;
                }
                case batch_op_kind::insert: {
                    telemetry::prof::op_scope prof_op(telemetry::trace_op::insert,
                                                      telemetry::key_hash(op.key));
                    out[idx].ok = insert_at_so(c, sos[idx], op.key, op.value);
                    break;
                }
                case batch_op_kind::erase: {
                    telemetry::prof::op_scope prof_op(telemetry::trace_op::erase,
                                                      telemetry::key_hash(op.key));
                    out[idx].ok = erase_at_so(c, sos[idx], op.key);
                    if (out[idx].ok) erased = &op.key;
                    break;
                }
            }
        }
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

    /// Copies out the mapped value if present, via the list's read-only
    /// lookup from the bucket dummy — borrowed, since the directory slot
    /// pins it — so a lookup that lands inside its first superhop segment
    /// takes no counted reference at all (trivially-copyable entries).
    std::optional<Value> find(const Key& key) {
        LFLL_TRACE_SPAN(telemetry::trace_op::find, telemetry::key_hash(key));
        telemetry::prof::op_scope prof_op(telemetry::trace_op::find,
                                          telemetry::key_hash(key));
        const std::uint64_t h = hash_of(key);
        const std::uint64_t so = so_detail::so_regular(h);
        std::optional<Value> out;
        list_.lookup_from(
            bucket_node(h & mask()),
            [this, so, &key](const entry& e) {  // colliding hashes tie-break by key
                return e.so != so ? e.so < so : cmp_(e.key, key);
            },
            [&](const entry& e, std::uint64_t /*born*/, std::uint64_t dead) {
                // Cluster order: a live incarnation comes first.
                if (e.so == so && !cmp_(key, e.key) && dead == rq::kInfTs) out.emplace(e.value);
            },
            [this] { return rq_.now(); });
        return out;
    }

    bool contains(const Key& key) { return find(key).has_value(); }

    /// Visits every live user (key, value) — dummies skipped — in
    /// split-key order (NOT key order). Concurrent-safe, like any scan.
    template <typename F>
    void for_each(F&& f) {
        list_.scan([&](const entry& e, std::uint64_t /*born*/, std::uint64_t dead) {
            if (!so_detail::is_dummy_key(e.so) && dead == rq::kInfTs) f(e.key, e.value);
            return true;
        });
    }

    template <typename F>
    void for_each(F&& f) const {
        const_cast<split_ordered_map*>(this)->for_each(std::forward<F>(f));
    }

    /// Linearizable range query: every (key, value) with lo <= key < hi
    /// as of one single point in time. Cross-bucket by construction: the
    /// walk covers the ONE split-ordered list every bucket shares, so a
    /// concurrent resize CAS (which only redirects where searches start)
    /// cannot split the snapshot. Costs a full-list walk regardless of
    /// range width (split order is not key order). Sorted by key.
    std::vector<std::pair<Key, Value>> range_query(const Key& lo, const Key& hi) {
        return collect(&lo, &hi);
    }

    /// Linearizable whole-map snapshot.
    std::vector<std::pair<Key, Value>> snapshot() { return collect(nullptr, nullptr); }

    /// Quiescent-only exact element count (dummies excluded).
    std::size_t size_slow() const {
        std::size_t n = 0;
        for (const node* p = list_.head()->next.load(std::memory_order_acquire);
             p != nullptr && !p->is_tail();
             p = p->next.load(std::memory_order_acquire)) {
            if (p->is_cell() && !so_detail::is_dummy_key(p->value().so)) ++n;
        }
        return n;
    }

    // --- introspection ----------------------------------------------------

    std::size_t bucket_count() const noexcept {
        return bucket_count_.load(std::memory_order_acquire);
    }
    std::size_t initial_bucket_count() const noexcept { return initial_buckets_; }

    /// Approximate live size (striped counter; exact when quiescent).
    std::int64_t size_approx() const noexcept {
        std::int64_t n = 0;
        for (const auto& s : size_) n += s.v.load(std::memory_order_relaxed);
        return n;
    }

    std::uint64_t grow_count() const noexcept {
        return grows_.load(std::memory_order_relaxed);
    }
    std::uint64_t shrink_count() const noexcept {
        return shrinks_.load(std::memory_order_relaxed);
    }
    /// Dummy cells this map has inserted (== initialized buckets).
    std::uint64_t dummy_count() const noexcept {
        return dummies_.load(std::memory_order_relaxed);
    }

    list_type& list() noexcept { return list_; }
    typename list_type::pool_type& pool() noexcept { return list_.pool(); }
    const typename list_type::pool_type& pool() const noexcept { return list_.pool(); }

    /// Visits every published bucket shortcut as (index, dummy node).
    /// Quiescent-only; the §5 audits use it to account for the one
    /// counted reference each slot holds on its dummy.
    template <typename F>
    void for_each_bucket_slot(F&& f) const {
        for (std::size_t s = 0; s < kMaxSegments; ++s) {
            slot_type* seg = segments_[s].load(std::memory_order_acquire);
            if (seg == nullptr) continue;
            const std::size_t len = segment_len(s);
            const std::size_t base = s == 0 ? 0 : (initial_buckets_ << (s - 1));
            for (std::size_t i = 0; i < len; ++i) {
                node* d = seg[i].load(std::memory_order_acquire);
                if (d != nullptr) f(base + i, d);
            }
        }
    }

private:
    using slot_type = std::atomic<node*>;

    /// Directory segments double: segment 0 holds [0, initial), segment
    /// s >= 1 holds [initial * 2^(s-1), initial * 2^s). Published once by
    /// CAS and never freed while the map lives, so racy readers are safe.
    static constexpr std::size_t kMaxSegments = 48;
    static constexpr std::size_t kSizeStripes = 8;

    std::uint64_t hash_of(const Key& key) const {
        return so_detail::mix64(static_cast<std::uint64_t>(hash_(key)));
    }

    std::size_t mask() const noexcept {
        return bucket_count_.load(std::memory_order_acquire) - 1;
    }

    std::size_t segment_len(std::size_t s) const noexcept {
        return s == 0 ? initial_buckets_ : (initial_buckets_ << (s - 1));
    }

    /// (segment, offset) of a bucket index.
    std::pair<std::size_t, std::size_t> locate(std::size_t idx) const noexcept {
        if (idx < initial_buckets_) return {0, idx};
        const auto k = static_cast<unsigned>(std::bit_width(idx) - 1);
        return {k - log2_initial_ + 1, idx - (std::size_t{1} << k)};
    }

    static slot_type* new_segment(std::size_t len) {
        return new slot_type[len]();  // value-init: all null
    }

    /// The slot for bucket `idx`, materializing its segment on demand
    /// (allocate + CAS-publish; the loser frees its copy — operations
    /// never block on a resize).
    slot_type& slot_for(std::size_t idx) {
        const auto [s, off] = locate(idx);
        slot_type* seg = segments_[s].load(std::memory_order_acquire);
        if (seg == nullptr) {
            slot_type* fresh = new_segment(segment_len(s));
            if (segments_[s].compare_exchange_strong(seg, fresh,
                                                     std::memory_order_acq_rel,
                                                     std::memory_order_acquire)) {
                seg = fresh;
            } else {
                delete[] fresh;  // another thread published first
            }
        }
        return seg[off];
    }

    void init_bucket_zero() {
        cursor c(list_);
        node* q = list_.make_cell(entry{so_detail::so_dummy(0), Key{}, Value{}});
        node* a = list_.make_aux();
        const bool ok = list_.try_insert(c, q, a);  // empty list: cannot fail
        assert(ok);
        (void)ok;
        rq_.stamp(q->born_ts);  // see init_bucket
        list_.release_node(a);
        // q's alloc reference becomes slot 0's long-held reference.
        slot_for(0).store(q, std::memory_order_release);
        dummies_.fetch_add(1, std::memory_order_relaxed);
        g_dummies_->add(1);
    }

    /// Bucket b's dummy node, lazily splitting parents as needed. The
    /// returned pointer is kept live by the slot's counted reference for
    /// the map's whole lifetime (dummies are never deleted).
    node* bucket_node(std::size_t b) {
        slot_type& slot = slot_for(b);
        node* d = slot.load(std::memory_order_acquire);
        if (d != nullptr) return d;
        return init_bucket(b, slot);
    }

    /// First touch of bucket b: find-or-insert its dummy, starting from
    /// the parent bucket's dummy (recursion depth <= log2(buckets)), then
    /// publish the shortcut. Fully lock-free: every step is a plain list
    /// operation or a single CAS, and losers adopt the winner's work.
    node* init_bucket(std::size_t b, slot_type& slot) {
        telemetry::prof::phase_scope prof_phase(telemetry::prof::phase::bucket_split);
        testing_hooks::chaos_point(sched::step_kind::resize);  // split begins
        cursor c;
        if (b == 0) {
            c = cursor(list_);  // recursion base (pre-initialized eagerly)
        } else {
            list_.seek(c, bucket_node(so_detail::parent_bucket(b)));
        }
        const std::uint64_t dso = so_detail::so_dummy(b);
        node* q = nullptr;
        node* a = nullptr;
        node* d = nullptr;
        backoff bo(backoff_cfg_);
        for (;;) {
            if (find_from_so(dso, Key{}, c)) {
                // A concurrent splitter inserted it; adopt. The cursor's
                // traversal protection covers taking the slot's count.
                d = list_.pool().ref(c.target());
                if (q != nullptr) {
                    list_.release_node(q);
                    list_.release_node(a);
                }
                break;
            }
            if (q == nullptr) {
                q = list_.make_cell(entry{dso, Key{}, Value{}});
                a = list_.make_aux();
            }
            testing_hooks::chaos_point(sched::step_kind::resize);  // dummy insert
            if (list_.try_insert(c, q, a)) {
                // Stamped like any insert: a lookup landing on a linked
                // cell still at born == 0 stops to stamp it, and dummies
                // are where bucket walks end.
                rq_.stamp(q->born_ts);
                list_.release_node(a);
                d = q;  // alloc reference becomes the slot's
                dummies_.fetch_add(1, std::memory_order_relaxed);
                g_dummies_->add(1);
                break;
            }
            bo();
            list_.update(c);
        }
        c.reset();
        testing_hooks::chaos_point(sched::step_kind::resize);  // shortcut publish
        node* expected = nullptr;
        if (!slot.compare_exchange_strong(expected, d, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
            list_.pool().unref(d);  // lost the publish; the winner's stands
            d = expected;
        }
        return d;
    }

    /// Positions c on the first entry of `h`'s bucket (or later).
    void anchor(std::uint64_t h, cursor& c) { list_.seek(c, bucket_node(h & mask())); }

    /// find_from in split order: seek forward for (so, key). Returns true
    /// with c on the live match, else false with c on the first entry
    /// sorting after it (the insertion position). Dummy targets (so even)
    /// match on so alone — dummies are never tombstoned; regular targets
    /// (so odd) tie-break hash collisions by key, and a tombstoned first
    /// match reports absent (inserts land BEFORE the first exact match,
    /// so a live incarnation would precede it).
    bool find_from_so(std::uint64_t so, const Key& key, cursor& c) {
        // Keep-going predicate for the batched seek: an entry sorts
        // before (so, key) while its so is smaller, or — equal so,
        // regular entry — while its key sorts before ours. seek_while
        // stops on the first entry at or past the target (or Last); the
        // match tests below mirror the per-cell loop this replaces.
        list_.seek_while(c, [this, so, &key](const entry& e) {
            if (e.so != so) return e.so < so;
            if (so_detail::is_dummy_key(so)) return false;  // dummy: so is identity
            return cmp_(e.key, key);
        });
        if (c.at_end()) return false;
        const entry& e = *c;
        if (e.so != so) return false;
        if (so_detail::is_dummy_key(so)) return true;
        if (cmp_(key, e.key) || cmp_(e.key, key)) return false;  // different key
        return rq_.live(c.target());  // stamps a live match still at born == 0
    }

    /// Insert protocol body, resuming the seek from wherever `c` stands
    /// (a fresh anchor or the previous batch sub-op's landing cell). On
    /// success the cursor lands ON the inserted cell (a later equal-key
    /// op in the same batch must observe it) and this op takes its own
    /// size/load-factor tick.
    bool insert_at_so(cursor& c, std::uint64_t so, const Key& key, Value value) {
        node* q = nullptr;
        node* a = nullptr;
        backoff bo(backoff_cfg_);
        for (;;) {
            if (find_from_so(so, key, c)) {
                if (q != nullptr) {
                    list_.release_node(q);
                    list_.release_node(a);
                }
                return false;
            }
            if (q == nullptr) {
                q = list_.make_cell(entry{so, key, std::move(value)});
                a = list_.make_aux();
            }
            if (list_.try_insert(c, q, a)) {
                // Version-stamp AFTER the winning swing (see
                // sorted_list_map: zero reads as "insert in flight").
                rq_.stamp(q->born_ts);
                testing_hooks::chaos_point(sched::step_kind::version_publish);
                list_.release_node(a);
                list_.land_on_inserted(c, q);
                break;
            }
            {
                telemetry::prof::phase_scope prof_retry(telemetry::prof::phase::cas_retry);
                bo();
                list_.update(c);
            }
        }
        size_add(1);
        maybe_resize();
        return true;
    }

    /// Erase protocol body, resuming from `c`; every path ticks the
    /// load-factor check (decay workloads are dominated by erase misses).
    bool erase_at_so(cursor& c, std::uint64_t so, const Key& key) {
        // so has its low bit set, so a match can never be a dummy:
        // bucket sentinels are structurally undeletable here.
        if (!find_from_so(so, key, c)) {
            // Still tick the load-factor check: decay workloads are
            // dominated by erase misses once keys drain, and shrink used
            // to stall entirely because only *successful* updates ever
            // re-checked the load (D1 residual).
            maybe_resize();
            return false;
        }
        node* victim = c.target();
        const std::uint64_t d = rq_.now();
        testing_hooks::chaos_point(sched::step_kind::version_publish);
        std::uint64_t expected = rq::kInfTs;
        if (!victim->dead_ts.compare_exchange_strong(expected, d,
                                                     std::memory_order_seq_cst,
                                                     std::memory_order_acquire)) {
            // Lost the mark race: a concurrent erase owns this cell.
            instrument::tls().delete_retries++;
            maybe_resize();
            return false;
        }
        if (rq_.armed()) {
            const entry& e = victim->value();
            rq_.hand_off(rq_victim{e.key, e.value,
                                   victim->born_ts.load(std::memory_order_acquire), d});
        }
        unlink_marked(so, key, victim, c);
        // Compact the aux chain the unlink left behind (see the
        // sorted_list_map::erase_at note): a single-pass batch makes no
        // later traversal through this neighbourhood, and try_delete's
        // own compaction is best-effort under deferred policies.
        list_.update(c);
        size_add(-1);
        maybe_resize();
        return true;
    }

    bool same_entry_key(const entry& e, std::uint64_t so, const Key& key) const {
        return e.so == so && !cmp_(e.key, key) && !cmp_(key, e.key);
    }

    /// Physically unlink a cell this thread tombstoned (see
    /// sorted_list_map::unlink_marked — identical identity-walk argument,
    /// with (so, key) as the cluster coordinate).
    void unlink_marked(std::uint64_t so, const Key& key, node* victim, cursor& c) {
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
            find_from_so(so, key, c);
            while (!c.at_end() && same_entry_key(*c, so, key) && c.target() != victim) {
                if (!list_.next(c)) break;
            }
            if (c.at_end() || !same_entry_key(*c, so, key)) return;  // already unlinked
        }
    }

    /// Shared body of range_query()/snapshot(). Null bounds are open.
    /// One stamped walk over the shared list (dummies and in-flight
    /// inserts excluded by born == 0), merged with the victim hand-offs,
    /// then key-sorted and deduped.
    std::vector<std::pair<Key, Value>> collect(const Key* lo, const Key* hi) {
        const auto tk = rq_.begin();
        std::vector<std::pair<Key, Value>> out;
        list_.snapshot_scan([&](const entry& e, std::uint64_t born, std::uint64_t dead) {
            if (so_detail::is_dummy_key(e.so)) return true;
            if (lo != nullptr && cmp_(e.key, *lo)) return true;
            if (hi != nullptr && !cmp_(e.key, *hi)) return true;  // NOT sorted by key
            if (born != 0 && born <= tk.t && tk.t < dead) {
                out.emplace_back(e.key, e.value);
            }
            return true;
        });
        rq_.end(tk, [&](const rq_victim& v) {
            if (lo != nullptr && cmp_(v.key, *lo)) return;
            if (hi != nullptr && !cmp_(v.key, *hi)) return;
            if (v.born > tk.t || tk.t >= v.dead) return;  // not alive at t
            out.emplace_back(v.key, v.value);
        });
        std::sort(out.begin(), out.end(),
                  [this](const auto& a, const auto& b) { return cmp_(a.first, b.first); });
        out.erase(std::unique(out.begin(), out.end(),
                              [this](const auto& a, const auto& b) {
                                  return !cmp_(a.first, b.first) && !cmp_(b.first, a.first);
                              }),
                  out.end());
        return out;
    }

    // --- resize policy ----------------------------------------------------

    void size_add(std::int64_t d) noexcept {
        size_[telemetry::detail::shard_index(kSizeStripes)].v.fetch_add(
            d, std::memory_order_relaxed);
    }

    /// Load-factor check, amortized to every `resize_check_period`-th
    /// update per thread. Publishing the doubled (or halved) bucket count
    /// is ONE CAS on an integer; new buckets split lazily on first touch.
    void maybe_resize() {
        if (check_mask_ != 0) {
            thread_local std::uint32_t tick = 0;
            if ((++tick & check_mask_) != 0) return;
        }
        const auto n = static_cast<double>(size_approx());
        std::size_t buckets = bucket_count_.load(std::memory_order_acquire);
        g_size_->set(static_cast<std::int64_t>(n));
        if (n > max_load_ * static_cast<double>(buckets) && buckets < max_buckets_) {
            if (slot_needs_segment(buckets * 2)) (void)slot_for(buckets * 2 - 1);
            testing_hooks::chaos_point(sched::step_kind::resize);  // grow publish
            if (bucket_count_.compare_exchange_strong(buckets, buckets * 2,
                                                      std::memory_order_acq_rel,
                                                      std::memory_order_acquire)) {
                grows_.fetch_add(1, std::memory_order_relaxed);
                g_grows_->add(1);
                g_buckets_->set(static_cast<std::int64_t>(buckets * 2));
            }
        } else if (min_load_ > 0.0 && buckets > initial_buckets_ &&
                   n < min_load_ * static_cast<double>(buckets) &&
                   // Oscillation clamp: refuse a halving the current size
                   // would immediately grow back out of (possible when
                   // min_load is configured close to max_load / 2) — the
                   // decay bench showed grow/shrink ping-pong burns a CAS
                   // storm on the bucket count without ever settling.
                   n <= max_load_ * static_cast<double>(buckets / 2)) {
            testing_hooks::chaos_point(sched::step_kind::resize);  // shrink publish
            if (bucket_count_.compare_exchange_strong(buckets, buckets / 2,
                                                      std::memory_order_acq_rel,
                                                      std::memory_order_acquire)) {
                shrinks_.fetch_add(1, std::memory_order_relaxed);
                g_shrinks_->add(1);
                g_buckets_->set(static_cast<std::int64_t>(buckets / 2));
            }
        }
    }

    /// Whether doubling to `target` enters a not-yet-published segment
    /// (pre-materialize it so the publish CAS exposes only ready slots).
    bool slot_needs_segment(std::size_t target) {
        const auto [s, off] = locate(target - 1);
        (void)off;
        return segments_[s].load(std::memory_order_acquire) == nullptr;
    }

    struct alignas(cacheline_size) size_stripe {
        std::atomic<std::int64_t> v{0};
    };

    /// Victim record handed to in-flight range queries at unlink time.
    struct rq_victim {
        Key key;
        Value value;
        std::uint64_t born;
        std::uint64_t dead;
    };

    Hash hash_;
    Compare cmp_;
    backoff::config backoff_cfg_{};
    double max_load_;
    double min_load_;
    std::size_t max_buckets_;
    std::uint32_t check_mask_;
    std::size_t initial_buckets_ = 0;
    unsigned log2_initial_ = 0;
    telemetry::counter* g_grows_ = nullptr;
    telemetry::counter* g_shrinks_ = nullptr;
    telemetry::gauge* g_buckets_ = nullptr;
    telemetry::gauge* g_size_ = nullptr;
    telemetry::counter* g_dummies_ = nullptr;
    alignas(cacheline_size) std::atomic<std::size_t> bucket_count_{0};
    std::atomic<std::uint64_t> grows_{0};
    std::atomic<std::uint64_t> shrinks_{0};
    std::atomic<std::uint64_t> dummies_{0};
    std::atomic<slot_type*> segments_[kMaxSegments] = {};
    size_stripe size_[kSizeStripes];
    list_type list_;
    rq::registry<rq_victim> rq_;
};

}  // namespace lfll
