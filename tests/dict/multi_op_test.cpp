// Batched multi-op coverage (dict/batch.hpp + the maps' apply_batch)
// across all three reclamation policies:
//
//   * semantics on one thread, on the sorted map and the split-ordered
//     map (also with every hash colliding): results come back in INPUT
//     order, same-key sub-ops resolve in submission order (stable sort),
//     duplicate inserts inside one batch fail exactly like per-call
//     duplicates, a batched erase-then-erase of the same key fails the
//     second op, and a mixed batch matches a serial std::map replay;
//   * multi_get equivalence under churn: concurrent mutators recycle the
//     odd keys while readers issue batched gets — every STABLE key must
//     come back present with its canonical value, every churned key must
//     be either absent or carry a value the mutators actually wrote
//     (exactly the guarantee serial find() gives per key);
//   * §5 count audits after batched storms: apply_batch mixes racing
//     each other on overlapping key ranges must leave the list with
//     clean reference counts — including on the split-ordered map while
//     its directory resizes under the batch passes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "lfll/core/audit.hpp"
#include "lfll/dict/sharded_kv.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/primitives/rng.hpp"
#include "lfll/reclaim/epoch_policy.hpp"
#include "lfll/reclaim/hazard_policy.hpp"

namespace {

using namespace lfll;

template <typename Policy>
class MultiOpTest : public ::testing::Test {};

using Policies = ::testing::Types<valois_refcount, hazard_policy, epoch_policy>;
TYPED_TEST_SUITE(MultiOpTest, Policies);

/// Quiescent §5 audit; a split-ordered map's bucket slots each hold one
/// counted reference on their dummy, fed to the audit as external.
template <typename Map>
void quiesce_and_expect_clean_audit(Map& map) {
    map.list().pool().drain_retired();
    std::map<const typename Map::node*, std::size_t> external;
    if constexpr (requires { map.bucket_count(); }) {
        map.for_each_bucket_slot(
            [&](std::size_t, typename Map::node* d) { external[d] += 1; });
    }
    const audit_report r = audit_list(map.list(), external);
    EXPECT_TRUE(r.ok) << r.error;
}

/// Every hash collides: the split-ordered batch is ordered by its
/// (split-order key, key) tie-break alone.
struct colliding_hash {
    std::size_t operator()(int) const noexcept { return 42; }
};

/// Runs `body` once per dictionary with a batched path: the flat sorted
/// map, the split-ordered map, and a split-ordered map whose every hash
/// collides.
template <typename Policy, typename F>
void for_each_batch_map(F&& body) {
    {
        SCOPED_TRACE("sorted_list_map");
        sorted_list_map<int, int, std::less<int>, Policy> m(512);
        body(m);
    }
    {
        SCOPED_TRACE("split_ordered_map");
        split_ordered_map<int, int, std::hash<int>, std::less<int>, Policy> m(8, 512);
        body(m);
    }
    {
        SCOPED_TRACE("split_ordered_map, colliding hash");
        split_ordered_map<int, int, colliding_hash, std::less<int>, Policy> m(8, 512);
        body(m);
    }
}

TYPED_TEST(MultiOpTest, ResultsComeBackInInputOrder) {
    for_each_batch_map<TypeParam>([](auto& m) {
        // Deliberately unsorted, with a duplicate key: output must be
        // positional regardless of the internal sorted pass.
        const std::vector<std::pair<int, int>> kvs = {
            {7, 70}, {1, 10}, {9, 90}, {1, 11}, {4, 40}};
        const std::vector<bool> ins = m.multi_insert(kvs);
        ASSERT_EQ(ins.size(), 5u);
        EXPECT_TRUE(ins[0]);
        EXPECT_TRUE(ins[1]);
        EXPECT_TRUE(ins[2]);
        EXPECT_FALSE(ins[3]) << "second insert of key 1 in the SAME batch must "
                                "observe the first (submission order)";
        EXPECT_TRUE(ins[4]);
        EXPECT_EQ(m.size_slow(), 4u);
        EXPECT_EQ(m.find(1), std::optional<int>(10));

        const std::vector<int> keys = {9, 2, 1, 9, 7};
        const auto got = m.multi_get(keys);
        ASSERT_EQ(got.size(), 5u);
        EXPECT_EQ(got[0], std::optional<int>(90));
        EXPECT_FALSE(got[1].has_value());
        EXPECT_EQ(got[2], std::optional<int>(10));
        EXPECT_EQ(got[3], std::optional<int>(90));
        EXPECT_EQ(got[4], std::optional<int>(70));

        const std::vector<int> dels = {1, 5, 1, 4};
        const std::vector<bool> del = m.multi_erase(dels);
        ASSERT_EQ(del.size(), 4u);
        EXPECT_TRUE(del[0]);
        EXPECT_FALSE(del[1]);
        EXPECT_FALSE(del[2]) << "second erase of key 1 in the SAME batch must "
                                "observe the first";
        EXPECT_TRUE(del[3]);
        EXPECT_EQ(m.size_slow(), 2u);
        quiesce_and_expect_clean_audit(m);
    });
}

TYPED_TEST(MultiOpTest, MixedBatchMatchesSerialReplay) {
    // One mixed apply_batch against a serial replay of the same ops on a
    // std::map oracle: identical outcomes op by op.
    for_each_batch_map<TypeParam>([](auto& m) {
        std::map<int, int> oracle;
        for (int k = 0; k < 16; k += 2) {
            m.insert(k, 1000 + k);
            oracle[k] = 1000 + k;
        }
        std::vector<batch_op<int, int>> ops;
        xorshift64 rng(0xBEEF);
        for (int i = 0; i < 64; ++i) {
            const int k = static_cast<int>(rng.next_below(24));
            switch (rng.next_below(3)) {
                case 0: ops.push_back({batch_op_kind::get, k, 0}); break;
                case 1: ops.push_back({batch_op_kind::insert, k, 2000 + i}); break;
                default: ops.push_back({batch_op_kind::erase, k, 0}); break;
            }
        }
        std::vector<batch_result<int>> out(ops.size());
        m.apply_batch(ops.data(), ops.size(), out.data());
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const auto it = oracle.find(ops[i].key);
            switch (ops[i].kind) {
                case batch_op_kind::get:
                    EXPECT_EQ(out[i].ok, it != oracle.end()) << "op " << i;
                    if (it != oracle.end()) {
                        EXPECT_EQ(out[i].value, std::optional<int>(it->second));
                    }
                    break;
                case batch_op_kind::insert:
                    EXPECT_EQ(out[i].ok, it == oracle.end()) << "op " << i;
                    if (it == oracle.end()) oracle[ops[i].key] = ops[i].value;
                    break;
                case batch_op_kind::erase:
                    EXPECT_EQ(out[i].ok, it != oracle.end()) << "op " << i;
                    if (it != oracle.end()) oracle.erase(it);
                    break;
            }
        }
        EXPECT_EQ(m.size_slow(), oracle.size());
        for (const auto& [k, v] : oracle) EXPECT_EQ(m.find(k), std::optional<int>(v));
        quiesce_and_expect_clean_audit(m);
    });
}

TYPED_TEST(MultiOpTest, MultiGetEquivalenceUnderChurn) {
    // Even keys are stable; odd keys are recycled by two mutators with
    // canonical values (key + 5000). Batched gets must behave exactly
    // like serial finds: stable keys always present with their value,
    // churned keys absent or canonical.
    constexpr int kRange = 512;
    sorted_list_map<int, int, std::less<int>, TypeParam> m(2 * kRange + 64);
    for (int k = 0; k < kRange; k += 2) m.insert(k, 4000 + k);

    std::atomic<bool> stop{false};
    std::vector<std::thread> mutators;
    for (int t = 0; t < 2; ++t) {
        mutators.emplace_back([&m, t, &stop] {
            xorshift64 rng(0x0DD5EED + t);
            while (!stop.load(std::memory_order_relaxed)) {
                const int k =
                    static_cast<int>(rng.next_below(kRange / 2)) * 2 + 1;
                if (rng.next_below(2) == 0) {
                    m.insert(k, 5000 + k);
                } else {
                    m.erase(k);
                }
            }
        });
    }
    for (int round = 0; round < 400; ++round) {
        std::vector<int> keys;
        xorshift64 rng(0x6E7 + round);
        for (int i = 0; i < 24; ++i) {
            keys.push_back(static_cast<int>(rng.next_below(kRange)));
        }
        const auto got = m.multi_get(keys);
        ASSERT_EQ(got.size(), keys.size());
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const int k = keys[i];
            if (k % 2 == 0) {
                ASSERT_TRUE(got[i].has_value()) << "stable key " << k << " lost";
                EXPECT_EQ(*got[i], 4000 + k);
            } else if (got[i].has_value()) {
                EXPECT_EQ(*got[i], 5000 + k);
            }
        }
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : mutators) t.join();
    quiesce_and_expect_clean_audit(m);
}

TYPED_TEST(MultiOpTest, SortedBatchStormAuditsClean) {
    // Four threads race mixed apply_batch calls over one overlapping key
    // range; afterwards every surviving value must be canonical and the
    // §5 reference-count audit must hold.
    constexpr int kRange = 256;
    sorted_list_map<int, int, std::less<int>, TypeParam> m(2 * kRange + 64);
    std::vector<std::thread> storms;
    for (int t = 0; t < 4; ++t) {
        storms.emplace_back([&m, t] {
            xorshift64 rng(0x570B3 + t * 131);
            std::vector<batch_op<int, int>> ops(16);
            std::vector<batch_result<int>> out(16);
            for (int round = 0; round < 300; ++round) {
                for (auto& op : ops) {
                    const int k = static_cast<int>(rng.next_below(kRange));
                    const auto pick = rng.next_below(3);
                    op.key = k;
                    op.value = 7000 + k;
                    op.kind = pick == 0   ? batch_op_kind::get
                              : pick == 1 ? batch_op_kind::insert
                                          : batch_op_kind::erase;
                }
                m.apply_batch(ops.data(), ops.size(), out.data());
            }
        });
    }
    for (auto& t : storms) t.join();
    std::size_t live = 0;
    m.for_each([&](const int& k, const int& v) {
        ++live;
        EXPECT_EQ(v, 7000 + k);
    });
    EXPECT_EQ(m.size_slow(), live);
    quiesce_and_expect_clean_audit(m);
}

TYPED_TEST(MultiOpTest, SplitOrderedBatchStormWithLiveResize) {
    // Same storm shape on the split-ordered map, sized so the batches
    // themselves drive directory growth AND decay shrink mid-storm: the
    // per-sub-op resize ticks must survive the batched path.
    using map_t = split_ordered_map<int, int, std::hash<int>, std::less<int>,
                                    TypeParam>;
    typename map_t::config cfg;
    cfg.initial_buckets = 2;
    cfg.capacity_hint = 2048;
    cfg.max_load = 1.0;
    cfg.min_load = 0.25;
    cfg.resize_check_period = 4;
    map_t m(cfg);
    constexpr int kRange = 512;
    std::vector<std::thread> storms;
    for (int t = 0; t < 4; ++t) {
        storms.emplace_back([&m, t] {
            xorshift64 rng(0x50A11 + t * 977);
            std::vector<batch_op<int, int>> ops(16);
            std::vector<batch_result<int>> out(16);
            for (int round = 0; round < 250; ++round) {
                // Alternate insert-heavy and erase-heavy phases so the
                // directory grows and decays repeatedly under the storm.
                const bool filling = (round / 25) % 2 == 0;
                for (auto& op : ops) {
                    const int k = static_cast<int>(rng.next_below(kRange));
                    const auto pick = rng.next_below(4);
                    op.key = k;
                    op.value = 9000 + k;
                    if (pick == 0) {
                        op.kind = batch_op_kind::get;
                    } else if (filling) {
                        op.kind = pick == 1 ? batch_op_kind::erase
                                            : batch_op_kind::insert;
                    } else {
                        op.kind = pick == 1 ? batch_op_kind::insert
                                            : batch_op_kind::erase;
                    }
                }
                m.apply_batch(ops.data(), ops.size(), out.data());
            }
        });
    }
    for (auto& t : storms) t.join();
    EXPECT_GE(m.grow_count(), 1u) << "storm never grew the directory";
    std::size_t live = 0;
    m.for_each([&](const int& k, const int& v) {
        ++live;
        EXPECT_EQ(v, 9000 + k);
    });
    EXPECT_EQ(m.size_slow(), live);
    quiesce_and_expect_clean_audit(m);
}

TYPED_TEST(MultiOpTest, ShardedBatchScattersAcrossShards) {
    using map_t = sorted_list_map<int, int, std::less<int>, TypeParam>;
    sharded_kv<map_t> store(4, [](std::size_t) {
        return std::make_unique<map_t>(512);
    });
    std::vector<std::pair<int, int>> kvs;
    for (int k = 0; k < 96; ++k) kvs.push_back({k, 3000 + k});
    const auto ins = store.multi_insert(kvs);
    for (std::size_t i = 0; i < ins.size(); ++i) EXPECT_TRUE(ins[i]) << i;
    EXPECT_EQ(store.size_slow(), 96u);
    // Keys land on several shards (top-bit routing of the mixed hash).
    std::size_t populated = 0;
    for (std::size_t s = 0; s < store.shard_count(); ++s) {
        populated += store.shard_at(s).size_slow() > 0 ? 1 : 0;
    }
    EXPECT_GE(populated, 2u);

    std::vector<int> keys;
    for (int k = 95; k >= 0; k -= 3) keys.push_back(k);
    const auto got = store.multi_get(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_TRUE(got[i].has_value()) << keys[i];
        EXPECT_EQ(*got[i], 3000 + keys[i]);
    }
    std::vector<int> evens;
    for (int k = 0; k < 96; k += 2) evens.push_back(k);
    const auto del = store.multi_erase(evens);
    for (std::size_t i = 0; i < del.size(); ++i) EXPECT_TRUE(del[i]) << i;
    EXPECT_EQ(store.size_slow(), 48u);
}

}  // namespace
