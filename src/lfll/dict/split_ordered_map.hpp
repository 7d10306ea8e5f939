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
//                First (valois_list::anchor / lookup_from), so chains stay
//                O(load factor) while correctness never depends on the
//                shortcut: every anchor's split-order key precedes its
//                bucket's entries in the SAME sorted list a from-head
//                walk would traverse.
//
// The protocol itself is not repeated here: the list IS a
// sorted_list_map keyed by (split-order key, key), ordered by the
// split-order key first and then by the user Compare, so hash collisions
// tie-break by key. Dummies carry (reversed bucket index, Key{}); their
// split-order key is even and every entry's odd, so the composite order
// never mixes the two. This header keeps only what is split-order
// specific: hashing, the bucket directory with its lazy splits, the
// resize policy, and filtering dummies out of whole-map reads.
//
// Linearization: insert/erase/find linearize at exactly the underlying
// list's CAS points (Figs. 9-10 / the find's traversal read), precisely
// as in sorted_list_map — they ARE its protocol steps, started from a
// bucket dummy. The bucket directory only decides where a search
// STARTS, never what it observes. The bucket-count CAS orders no
// operation: an op that read the old count starts one dummy earlier and
// walks the identical sorted suffix. Hence "no stop-the-world": there is
// no window in which any operation waits on a resize.
//
// Reclamation is pluggable like everywhere else (valois_refcount /
// hazard / epoch); dummies are never deleted, so bucket shortcuts stay
// valid under every policy (each slot holds a counted reference).
//
// Constraints vs the fixed §4.1 hash_map: Key and Value must be
// default-constructible (dummy cells carry a default payload).
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

#include "lfll/dict/batch.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/primitives/backoff.hpp"
#include "lfll/primitives/cacheline.hpp"
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

    /// The list's key: the split-order key plus the user key. Dummies
    /// carry so with the low bit clear and a default-constructed key.
    struct so_key {
        std::uint64_t so;
        Key key;
    };

    /// Split-order key first; equal ones (hash collisions) tie-break by
    /// the user order.
    struct so_less {
        Compare cmp;
        bool operator()(const so_key& a, const so_key& b) const {
            return a.so != b.so ? a.so < b.so : cmp(a.key, b.key);
        }
    };

    using map_type = sorted_list_map<so_key, Value, so_less, Policy>;
    using list_type = typename map_type::list_type;
    using node = typename map_type::node;
    using cursor = typename map_type::cursor;
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
          map_(cfg.capacity_hint, so_less{cmp}) {
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
                pool().unref(seg[i].load(std::memory_order_relaxed));
            }
            delete[] seg;
        }
    }

    split_ordered_map(const split_ordered_map&) = delete;
    split_ordered_map& operator=(const split_ordered_map&) = delete;

    /// Retry backoff (§2.1), as in sorted_list_map; bench_e8 ablates it.
    void set_backoff(backoff::config cfg) noexcept { map_.set_backoff(cfg); }

    bool insert(const Key& key, Value value) {
        telemetry::prof::op_scope prof_op(telemetry::trace_op::insert,
                                          telemetry::key_hash(key));
        const std::uint64_t h = hash_of(key);
        cursor c;
        anchor(h, c);
        const bool ok = map_.insert_at(c, so_key{so_detail::so_regular(h), key}, std::move(value));
        tick(batch_op_kind::insert, ok);
        return ok;
    }

    bool erase(const Key& key) {
        telemetry::prof::op_scope prof_op(telemetry::trace_op::erase,
                                          telemetry::key_hash(key));
        const std::uint64_t h = hash_of(key);
        cursor c;
        anchor(h, c);
        // so has its low bit set, so a match can never be a dummy:
        // bucket sentinels are structurally undeletable here.
        const bool ok = map_.erase_at(c, so_key{so_detail::so_regular(h), key});
        tick(batch_op_kind::erase, ok);
        return ok;
    }

    /// Executes `n` independent ops as sorted_list_map's sorted cursor
    /// pass over (split-order key, key), binned into bucket runs: the
    /// cursor re-anchors at a bucket's dummy when the run changes (or
    /// after a same-key erase) and RESUMES within a run. The bucket
    /// binning samples the mask once — purely a perf heuristic: all
    /// entries live in the one so-sorted list, so a concurrent resize
    /// only costs an extra re-anchor, never correctness. Results land at
    /// each op's original index; every sub-op keeps its individual
    /// linearization point and its own load-factor tick (see batch.hpp).
    void apply_batch(const batch_op<Key, Value>* ops, std::size_t n,
                     batch_result<Value>* out) {
        if (n == 0) return;
        std::vector<so_key> keys;
        keys.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            keys.push_back(so_key{so_detail::so_regular(hash_of(ops[i].key)), ops[i].key});
        }
        const std::size_t m = mask();
        std::size_t run_bucket = ~std::size_t{0};
        cursor c;
        map_.sorted_pass(
            ops, n, out, c, [&keys](std::uint32_t i) -> const so_key& { return keys[i]; },
            [&](cursor& cur, std::uint32_t i, bool same_key_erased) {
                // Reversing so gives back the hash's low (bucket) bits.
                const std::uint64_t h = so_detail::bit_reverse(keys[i].so);
                if ((h & m) == run_bucket && !same_key_erased) return;
                anchor(h, cur);  // new bucket run: jump to its dummy
                run_bucket = h & m;
            },
            [this](batch_op_kind kind, bool ok) { tick(kind, ok); });
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
        telemetry::prof::op_scope prof_op(telemetry::trace_op::find,
                                          telemetry::key_hash(key));
        const std::uint64_t h = hash_of(key);
        return map_.lookup(bucket_node(h & mask()), so_key{so_detail::so_regular(h), key});
    }

    bool contains(const Key& key) { return find(key).has_value(); }

    /// Visits every live user (key, value) — dummies skipped — in
    /// split-key order (NOT key order). Concurrent-safe, like any scan.
    template <typename F>
    void for_each(F&& f) {
        map_.for_each([&](const so_key& k, const Value& v) {
            if (!so_detail::is_dummy_key(k.so)) f(k.key, v);
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
        return query([&](const Key& k) { return cmp_(k, lo) || !cmp_(k, hi); });
    }

    /// Linearizable whole-map snapshot.
    std::vector<std::pair<Key, Value>> snapshot() {
        return query([](const Key&) { return false; });
    }

    /// Quiescent-only exact element count (dummies excluded).
    std::size_t size_slow() const {
        std::size_t n = 0;
        for_each([&n](const Key&, const Value&) { ++n; });
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

    list_type& list() noexcept { return map_.list_; }
    typename list_type::pool_type& pool() noexcept { return map_.list_.pool(); }
    const typename list_type::pool_type& pool() const noexcept { return map_.list_.pool(); }

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
        list_type& l = list();
        cursor c(l);
        node* q = l.make_cell(so_key{so_detail::so_dummy(0), Key{}}, Value{});
        node* a = l.make_aux();
        const bool ok = l.try_insert(c, q, a);  // empty list: cannot fail
        assert(ok);
        (void)ok;
        map_.rq_.stamp(q->born_ts);  // see init_bucket
        l.release_node(a);
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
    /// Not sorted_list_map::insert_at: the dummy needs no version-publish
    /// window, and the cursor is released before the shortcut publish.
    node* init_bucket(std::size_t b, slot_type& slot) {
        telemetry::prof::phase_scope prof_phase(telemetry::prof::phase::bucket_split);
        testing_hooks::chaos_point(sched::step_kind::resize);  // split begins
        list_type& l = list();
        cursor c;  // borrows its start: First, or the parent's pinned dummy
        l.anchor(c, b == 0 ? l.head() : bucket_node(so_detail::parent_bucket(b)));
        const so_key dkey{so_detail::so_dummy(b), Key{}};
        node* q = nullptr;
        node* a = nullptr;
        node* d = nullptr;
        backoff bo(map_.backoff_cfg_);
        for (;;) {
            if (map_.find_from(dkey, c)) {
                // A concurrent splitter inserted it; adopt. The cursor's
                // traversal protection covers taking the slot's count.
                d = l.pool().ref(c.target());
                if (q != nullptr) {
                    l.release_node(q);
                    l.release_node(a);
                }
                break;
            }
            if (q == nullptr) {
                q = l.make_cell(dkey, Value{});
                a = l.make_aux();
            }
            testing_hooks::chaos_point(sched::step_kind::resize);  // dummy insert
            if (l.try_insert(c, q, a)) {
                // Stamped like any insert: a lookup landing on a linked
                // cell still at born == 0 stops to stamp it, and dummies
                // are where bucket walks end.
                map_.rq_.stamp(q->born_ts);
                l.release_node(a);
                d = q;  // alloc reference becomes the slot's
                dummies_.fetch_add(1, std::memory_order_relaxed);
                g_dummies_->add(1);
                break;
            }
            bo();
            l.update(c);
        }
        c.reset();
        testing_hooks::chaos_point(sched::step_kind::resize);  // shortcut publish
        node* expected = nullptr;
        if (!slot.compare_exchange_strong(expected, d, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
            l.pool().unref(d);  // lost the publish; the winner's stands
            d = expected;
        }
        return d;
    }

    /// Anchors c at `h`'s bucket dummy, borrowed: the directory slot pins
    /// it and dummies are never deleted. The op's seek walks from there.
    void anchor(std::uint64_t h, cursor& c) { list().anchor(c, bucket_node(h & mask())); }

    /// The resize tick after an insert or erase: a success moves the size
    /// count. Every erase re-checks the load factor, misses included
    /// (decay workloads are dominated by erase misses once keys drain);
    /// an insert only when it linked a cell.
    void tick(batch_op_kind kind, bool ok) {
        if (ok) {
            size_add(kind == batch_op_kind::insert ? 1 : -1);
        } else if (kind == batch_op_kind::insert) {
            return;
        }
        maybe_resize();
    }

    /// Shared body of range_query()/snapshot(): sorted_list_map's stamped
    /// walk, filtered on the user key inside the walk (split order is not
    /// key order, so nothing stops it early), then re-sorted by key.
    template <typename Skip>
    std::vector<std::pair<Key, Value>> query(Skip skip) {
        auto hits = map_.collect(
            [&](const so_key& k) { return so_detail::is_dummy_key(k.so) || skip(k.key); },
            [](const so_key&) { return false; });
        std::vector<std::pair<Key, Value>> out;
        out.reserve(hits.size());
        for (auto& [k, v] : hits) out.emplace_back(std::move(k.key), std::move(v));
        std::sort(out.begin(), out.end(),
                  [this](const auto& x, const auto& y) { return cmp_(x.first, y.first); });
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

    Hash hash_;
    Compare cmp_;
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
    map_type map_;
};

}  // namespace lfll
