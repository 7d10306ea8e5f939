// Hash-table dictionary (§4.1): a fixed array of sorted-list buckets.
//
// "A straightforward extension of this implementation uses a hash table.
//  In this case, if we assume that the hash function evenly distributes
//  the operations across the lists, then we would expect the extra work
//  done to be O(1)." — bench_e4_hash measures exactly that.
//
// The bucket count is fixed at construction, as in the paper. Since the
// split-ordered sibling (split_ordered_map.hpp) landed, that is a CHOICE,
// not a limitation: this slab remains the fixed-size choice for
// workloads whose cardinality is known up front — it needs no dummy
// cells, no default-constructible Key/Value, and each bucket is an
// independent Valois list with its own node pool, so buckets never
// contend on allocation either. When the table must grow under load, use
// split_ordered_map; its resize is plain lock-free list operations, not a
// research problem.
//
// Buckets live in one contiguous slab of cache-line-aligned slots: bucket
// i's hot head state never shares a line with bucket i+1's (no false
// sharing between adjacent buckets under an even hash), and reaching a
// bucket is one indirection (slab base + offset) instead of the two of a
// vector-of-unique_ptr.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <optional>

#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/primitives/cacheline.hpp"

namespace lfll {

template <typename Key, typename Value, typename Hash = std::hash<Key>,
          typename Compare = std::less<Key>, typename Policy = valois_refcount>
class hash_map {
public:
    using policy_type = Policy;
    using key_type = Key;
    using mapped_type = Value;
    using bucket_type = sorted_list_map<Key, Value, Compare, Policy>;

    /// `buckets` is rounded up to a power of two. `capacity_hint` sizes
    /// the per-bucket node pools (expected elements / buckets).
    explicit hash_map(std::size_t buckets = 256, std::size_t capacity_hint = 16,
                      Hash hash = Hash{})
        : hash_(hash) {
        std::size_t n = 1;
        while (n < buckets) n <<= 1;
        mask_ = n - 1;
        slab_ = static_cast<slot*>(
            ::operator new(n * sizeof(slot), std::align_val_t{alignof(slot)}));
        // Construct in order; unwind on a throwing bucket constructor.
        std::size_t built = 0;
        try {
            for (; built < n; ++built) new (&slab_[built]) slot(capacity_hint);
        } catch (...) {
            destroy_slab(built);
            throw;
        }
        bucket_count_ = n;
    }

    ~hash_map() { destroy_slab(bucket_count_); }

    hash_map(const hash_map&) = delete;
    hash_map& operator=(const hash_map&) = delete;

    bool insert(const Key& key, Value value) {
        return bucket(key).insert(key, std::move(value));
    }

    bool erase(const Key& key) { return bucket(key).erase(key); }

    std::optional<Value> find(const Key& key) { return bucket(key).find(key); }

    bool contains(const Key& key) { return bucket(key).contains(key); }

    /// Visits every (key, value); per-bucket sort order, arbitrary bucket
    /// order. Concurrent-safe, like any cursor walk. The const overload
    /// serves read-only samplers holding a `const hash_map&` (see
    /// sorted_list_map::for_each const for why traversal is logically
    /// const).
    template <typename F>
    void for_each(F&& f) {
        for (std::size_t i = 0; i < bucket_count_; ++i) slab_[i].b.for_each(f);
    }

    template <typename F>
    void for_each(F&& f) const {
        for (std::size_t i = 0; i < bucket_count_; ++i) {
            static_cast<const bucket_type&>(slab_[i].b).for_each(f);
        }
    }

    std::size_t size_slow() const {
        std::size_t total = 0;
        for (std::size_t i = 0; i < bucket_count_; ++i) total += slab_[i].b.size_slow();
        return total;
    }

    std::size_t bucket_count() const noexcept { return bucket_count_; }
    bucket_type& bucket_at(std::size_t i) noexcept { return slab_[i].b; }
    const bucket_type& bucket_at(std::size_t i) const noexcept { return slab_[i].b; }

private:
    /// One bucket per slot, padded out to cache-line multiples so
    /// neighbouring buckets' list heads never false-share.
    struct alignas(cacheline_size) slot {
        explicit slot(std::size_t capacity_hint) : b(capacity_hint) {}
        bucket_type b;
    };

    void destroy_slab(std::size_t constructed) noexcept {
        if (slab_ == nullptr) return;
        for (std::size_t i = constructed; i > 0; --i) slab_[i - 1].~slot();
        ::operator delete(slab_, std::align_val_t{alignof(slot)});
        slab_ = nullptr;
    }

    bucket_type& bucket(const Key& key) { return slab_[hash_(key) & mask_].b; }

    Hash hash_;
    std::size_t mask_ = 0;
    std::size_t bucket_count_ = 0;
    slot* slab_ = nullptr;
};

}  // namespace lfll
