// Auxiliary-node BST (§4.2): find/insert semantics, tombstone deletion
// with revival, the Fig. 14 splice deletions (0/1/2-child cases), and
// concurrent set semantics under the tombstone policy.
#include <gtest/gtest.h>

#include "test_scale.hpp"

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "lfll/dict/bst.hpp"
#include "lfll/primitives/rng.hpp"

namespace {

using namespace lfll;
using lfll_test::scaled;
using set_t = bst_set<int>;

TEST(Bst, InsertContains) {
    set_t s(64);
    EXPECT_TRUE(s.insert(5));
    EXPECT_TRUE(s.insert(3));
    EXPECT_TRUE(s.insert(8));
    EXPECT_TRUE(s.contains(5));
    EXPECT_TRUE(s.contains(3));
    EXPECT_TRUE(s.contains(8));
    EXPECT_FALSE(s.contains(4));
    EXPECT_EQ(s.size_slow(), 3u);
    EXPECT_EQ(s.validate_slow(), "");
}

TEST(Bst, DuplicateInsertRejected) {
    set_t s(16);
    EXPECT_TRUE(s.insert(1));
    EXPECT_FALSE(s.insert(1));
    EXPECT_EQ(s.size_slow(), 1u);
}

TEST(Bst, InOrderTraversalIsSorted) {
    set_t s(256);
    xorshift64 rng(7);
    std::set<int> model;
    for (int i = 0; i < 200; ++i) {
        const int k = static_cast<int>(rng.next_below(1000));
        EXPECT_EQ(s.insert(k), model.insert(k).second);
    }
    std::vector<int> keys;
    s.for_each([&](int k) { keys.push_back(k); });
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_EQ(keys.size(), model.size());
    EXPECT_EQ(s.validate_slow(), "");
}

TEST(Bst, TombstoneEraseAndRevive) {
    set_t s(16);
    EXPECT_TRUE(s.insert(4));
    EXPECT_TRUE(s.erase(4));
    EXPECT_FALSE(s.contains(4));
    EXPECT_FALSE(s.erase(4));      // already dead
    EXPECT_TRUE(s.insert(4));      // revives the tombstone
    EXPECT_TRUE(s.contains(4));
    EXPECT_EQ(s.size_slow(), 1u);
    EXPECT_EQ(s.validate_slow(), "");
}

TEST(Bst, EraseAbsentFails) {
    set_t s(16);
    s.insert(1);
    EXPECT_FALSE(s.erase(2));
}

TEST(Bst, SpliceEraseLeaf) {
    set_t s(32);
    for (int k : {5, 3, 8}) s.insert(k);
    EXPECT_TRUE(s.erase_splice(3));  // leaf: both children empty
    EXPECT_FALSE(s.contains(3));
    EXPECT_TRUE(s.contains(5));
    EXPECT_TRUE(s.contains(8));
    EXPECT_EQ(s.validate_slow(), "");
    EXPECT_EQ(s.size_slow(), 2u);
}

TEST(Bst, SpliceEraseOneChildLeft) {
    set_t s(32);
    for (int k : {5, 3, 2}) s.insert(k);  // 3 has only a left child (2)
    EXPECT_TRUE(s.erase_splice(3));
    EXPECT_FALSE(s.contains(3));
    EXPECT_TRUE(s.contains(2));
    EXPECT_TRUE(s.contains(5));
    EXPECT_EQ(s.validate_slow(), "");
}

TEST(Bst, SpliceEraseOneChildRight) {
    set_t s(32);
    for (int k : {5, 3, 4}) s.insert(k);  // 3 has only a right child (4)
    EXPECT_TRUE(s.erase_splice(3));
    EXPECT_FALSE(s.contains(3));
    EXPECT_TRUE(s.contains(4));
    EXPECT_TRUE(s.contains(5));
    EXPECT_EQ(s.validate_slow(), "");
}

TEST(Bst, SpliceEraseTwoChildrenFigure14) {
    // Figure 14's shape: F has two children; its in-order successor G is
    // the leftmost cell of F's right subtree.
    set_t s(64);
    for (int k : {40 /*F*/, 20, 60, 10, 30, 50 /*G*/, 70, 45, 55}) s.insert(k);
    EXPECT_TRUE(s.erase_splice(40));
    EXPECT_FALSE(s.contains(40));
    for (int k : {20, 60, 10, 30, 50, 70, 45, 55}) {
        EXPECT_TRUE(s.contains(k)) << "lost key " << k;
    }
    EXPECT_EQ(s.validate_slow(), "");
    EXPECT_EQ(s.size_slow(), 8u);
}

TEST(Bst, SpliceEraseRoot) {
    set_t s(32);
    for (int k : {5, 3, 8}) s.insert(k);
    EXPECT_TRUE(s.erase_splice(5));  // root with two children
    EXPECT_FALSE(s.contains(5));
    EXPECT_TRUE(s.contains(3));
    EXPECT_TRUE(s.contains(8));
    EXPECT_EQ(s.validate_slow(), "");
}

TEST(Bst, SpliceEraseAbsentFails) {
    set_t s(16);
    s.insert(1);
    EXPECT_FALSE(s.erase_splice(2));
}

TEST(Bst, SpliceEraseEverythingSequentially) {
    set_t s(256);
    xorshift64 rng(13);
    std::set<int> model;
    for (int i = 0; i < 100; ++i) {
        const int k = static_cast<int>(rng.next_below(500));
        if (s.insert(k)) model.insert(k);
    }
    // Delete in random order, revalidating the tree shape each time.
    std::vector<int> keys(model.begin(), model.end());
    for (std::size_t i = keys.size(); i > 1; --i) {
        std::swap(keys[i - 1], keys[rng.next_below(i)]);
    }
    for (int k : keys) {
        ASSERT_TRUE(s.erase_splice(k)) << "key " << k;
        ASSERT_EQ(s.validate_slow(), "") << "after deleting " << k;
    }
    EXPECT_EQ(s.size_slow(), 0u);
}

TEST(Bst, SpliceReclaimsNodes) {
    set_t s(64);
    const std::size_t free0 = s.pool().free_count();
    for (int k : {5, 3, 8}) s.insert(k);
    for (int k : {3, 8, 5}) ASSERT_TRUE(s.erase_splice(k));
    // Every cell + its two aux nodes must come back (shunt chains may pin
    // a bounded residue of aux nodes; with sequential deletes: none).
    EXPECT_EQ(s.pool().free_count(), free0);
}

TEST(Bst, ConcurrentTombstoneSetSemantics) {
    set_t s(4096);
    constexpr int kThreads = 6;
    constexpr int kKeys = 64;
    const int kOps = scaled(3000);
    std::vector<std::vector<long>> ins(kThreads, std::vector<long>(kKeys, 0));
    std::vector<std::vector<long>> del(kThreads, std::vector<long>(kKeys, 0));
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            xorshift64 rng(0xb57 + static_cast<std::uint64_t>(t) * 2027);
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < kOps; ++i) {
                const int k = static_cast<int>(rng.next_below(kKeys));
                switch (rng.next() % 3) {
                    case 0:
                        if (s.insert(k)) ins[t][k]++;
                        break;
                    case 1:
                        if (s.erase(k)) del[t][k]++;
                        break;
                    default:
                        (void)s.contains(k);
                        break;
                }
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : ts) th.join();

    for (int k = 0; k < kKeys; ++k) {
        long balance = 0;
        for (int t = 0; t < kThreads; ++t) balance += ins[t][k] - del[t][k];
        ASSERT_GE(balance, 0) << "key " << k;
        ASSERT_LE(balance, 1) << "key " << k;
        EXPECT_EQ(balance == 1, s.contains(k)) << "key " << k;
    }
    EXPECT_EQ(s.validate_slow(), "");
}

TEST(Bst, ConcurrentSearchesDuringSpliceDeletes) {
    // One splice-deleting thread (the documented restriction: a single
    // structural mutator), many searchers following the shunt chains.
    set_t s(2048);
    for (int k = 0; k < 400; ++k) s.insert(k);
    std::atomic<bool> stop{false};
    std::atomic<int> false_negatives{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
            xorshift64 rng(0x5eed + static_cast<std::uint64_t>(t));
            while (!stop.load(std::memory_order_acquire)) {
                const int k = static_cast<int>(rng.next_below(400));
                // Keys 200..399 are never deleted: must always be found.
                if (k >= 200 && !s.contains(k)) false_negatives++;
            }
        });
    }
    const int kDel = scaled(200);
    for (int k = 0; k < kDel; ++k) ASSERT_TRUE(s.erase_splice(k));
    stop.store(true, std::memory_order_release);
    for (auto& r : readers) r.join();
    EXPECT_EQ(false_negatives.load(), 0);
    EXPECT_EQ(s.size_slow(), static_cast<std::size_t>(400 - kDel));
    EXPECT_EQ(s.validate_slow(), "");
}

}  // namespace
