// Sharded KV store: N independent dictionaries, routed by the TOP bits
// of the mixed hash.
//
// Sharding buys two things the single split-ordered list cannot:
//  * Pool isolation. Every shard owns its own node_pool arena (each
//    valois_list constructs one), so allocation, magazine exchange, and
//    reclamation never cross shard boundaries — and since the magazine
//    REGISTRY is now striped by pool id (node_pool.hpp), even the
//    registry protocol (thread first-use, flushes) stays per-shard. No
//    cross-shard mutex sits on any alloc/flush path.
//  * Contention splitting. The split-ordered map's directory CAS and hot
//    dummy cells are per-shard, so a Zipf hot spot saturates one shard's
//    cache lines instead of one global structure's.
//
// Routing uses the TOP shard_bits of mix64(hash(key)) on purpose: the
// split-ordered map consumes the LOW bits for bucket selection, so shard
// and bucket indices are decorrelated even for adversarial key sets.
//
// The Map parameter is any dictionary with the shared public API
// (insert/erase/find/contains/for_each/size_slow) — split_ordered_map or
// the fixed hash_map; per-map constructor knobs are
// injected through a factory callable, keeping this header agnostic of
// either config struct.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "lfll/dict/batch.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/telemetry/profiler.hpp"

namespace lfll {

template <typename Map, typename Hash = std::hash<typename Map::key_type>>
class sharded_kv {
public:
    using map_type = Map;
    using key_type = typename Map::key_type;
    using mapped_type = typename Map::mapped_type;

    /// `make(shard_index)` builds each shard's map (and thereby its own
    /// pool). Shard count is rounded up to a power of two.
    template <typename Factory>
    explicit sharded_kv(std::size_t shards, Factory&& make, Hash hash = Hash{})
        : hash_(hash) {
        std::size_t n = 1;
        while (n < shards) n <<= 1;
        unsigned bits = 0;
        while ((std::size_t{1} << bits) < n) ++bits;
        shift_ = 64 - bits;  // 64 when n == 1: shard_of() then yields 0
        shards_.reserve(n);
        for (std::size_t i = 0; i < n; ++i) shards_.push_back(make(i));
    }

    bool insert(const key_type& key, mapped_type value) {
        const std::size_t s = shard_of(key);
        telemetry::prof::note_shard(static_cast<std::int64_t>(s));
        return shards_[s]->insert(key, std::move(value));
    }
    bool erase(const key_type& key) {
        const std::size_t s = shard_of(key);
        telemetry::prof::note_shard(static_cast<std::int64_t>(s));
        return shards_[s]->erase(key);
    }
    std::optional<mapped_type> find(const key_type& key) {
        const std::size_t s = shard_of(key);
        telemetry::prof::note_shard(static_cast<std::int64_t>(s));
        return shards_[s]->find(key);
    }
    bool contains(const key_type& key) {
        const std::size_t s = shard_of(key);
        telemetry::prof::note_shard(static_cast<std::int64_t>(s));
        return shards_[s]->contains(key);
    }

    /// Executes `n` independent ops batched PER SHARD: ops are
    /// stable-sorted by shard, each shard run is gathered into a
    /// contiguous sub-batch and served by that shard's sorted cursor
    /// pass (Map::apply_batch), and results are scattered back to the
    /// callers' original indices. Shard routing is computed once per op
    /// here — the per-shard pass pays it never again.
    void apply_batch(const batch_op<key_type, mapped_type>* ops, std::size_t n,
                     batch_result<mapped_type>* out) {
        if (n == 0) return;
        if (shards_.size() == 1) {
            telemetry::prof::note_shard(0);
            shards_[0]->apply_batch(ops, n, out);
            return;
        }
        std::vector<std::uint32_t> order(n);
        for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
        std::vector<std::uint32_t> shard_ids(n);
        for (std::size_t i = 0; i < n; ++i) {
            shard_ids[i] = static_cast<std::uint32_t>(shard_of(ops[i].key));
        }
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                             return shard_ids[a] < shard_ids[b];
                         });
        std::vector<batch_op<key_type, mapped_type>> run_ops;
        std::vector<batch_result<mapped_type>> run_out;
        std::size_t lo = 0;
        while (lo < n) {
            const std::uint32_t s = shard_ids[order[lo]];
            std::size_t hi = lo + 1;
            while (hi < n && shard_ids[order[hi]] == s) ++hi;
            telemetry::prof::note_shard(static_cast<std::int64_t>(s));
            run_ops.clear();
            run_ops.reserve(hi - lo);
            for (std::size_t i = lo; i < hi; ++i) run_ops.push_back(ops[order[i]]);
            run_out.assign(hi - lo, {});
            shards_[s]->apply_batch(run_ops.data(), run_ops.size(), run_out.data());
            for (std::size_t i = lo; i < hi; ++i) out[order[i]] = std::move(run_out[i - lo]);
            lo = hi;
        }
    }

    /// Batched conveniences over apply_batch; results in input order.
    std::vector<std::optional<mapped_type>> multi_get(
        const std::vector<key_type>& keys) {
        return batch_detail::multi_get(*this, keys);
    }
    std::vector<bool> multi_insert(
        const std::vector<std::pair<key_type, mapped_type>>& kvs) {
        return batch_detail::multi_insert(*this, kvs);
    }
    std::vector<bool> multi_erase(const std::vector<key_type>& keys) {
        return batch_detail::multi_erase(*this, keys);
    }

    template <typename F>
    void for_each(F&& f) {
        for (auto& s : shards_) s->for_each(f);
    }

    std::size_t size_slow() const {
        std::size_t total = 0;
        for (const auto& s : shards_) total += s->size_slow();
        return total;
    }

    std::size_t shard_count() const noexcept { return shards_.size(); }
    Map& shard_at(std::size_t i) noexcept { return *shards_[i]; }
    const Map& shard_at(std::size_t i) const noexcept { return *shards_[i]; }

    std::size_t shard_of(const key_type& key) const {
        if (shift_ >= 64) return 0;
        return static_cast<std::size_t>(
            so_detail::mix64(static_cast<std::uint64_t>(hash_(key))) >> shift_);
    }

private:
    Map& shard_for(const key_type& key) { return *shards_[shard_of(key)]; }

    Hash hash_;
    unsigned shift_ = 64;
    std::vector<std::unique_ptr<Map>> shards_;
};

/// The common case: a store of split-ordered shards, every shard built
/// from the same config.
template <typename Key, typename Value, typename Hash = std::hash<Key>,
          typename Compare = std::less<Key>, typename Policy = valois_refcount>
sharded_kv<split_ordered_map<Key, Value, Hash, Compare, Policy>, Hash>
make_sharded_kv(std::size_t shards, const split_ordered_config& cfg = {},
                Hash hash = Hash{}) {
    using map_t = split_ordered_map<Key, Value, Hash, Compare, Policy>;
    return sharded_kv<map_t, Hash>(
        shards, [&](std::size_t) { return std::make_unique<map_t>(cfg, hash); }, hash);
}

}  // namespace lfll
