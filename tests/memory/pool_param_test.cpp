// Parameterized property sweeps for node_pool: across initial capacities,
// thread counts, and hold depths, the pool must preserve (a) exclusive
// handout, (b) full return at quiescence, (c) bounded growth when demand
// is bounded.
#include <gtest/gtest.h>

#include "test_scale.hpp"

#include <atomic>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "lfll/core/node.hpp"
#include "lfll/memory/node_pool.hpp"
#include "lfll/primitives/rng.hpp"

namespace {

using namespace lfll;
using lfll_test::scaled;
using node_t = list_node<int>;

// initial capacity, threads, max nodes held per thread
using pool_params = std::tuple<std::size_t, int, int>;

std::string name(const ::testing::TestParamInfo<pool_params>& info) {
    return "cap" + std::to_string(std::get<0>(info.param)) + "_t" +
           std::to_string(std::get<1>(info.param)) + "_h" +
           std::to_string(std::get<2>(info.param));
}

class PoolSweep : public ::testing::TestWithParam<pool_params> {};

TEST_P(PoolSweep, ChurnPreservesInvariants) {
    const auto [capacity, threads, hold] = GetParam();
    node_pool<node_t> pool(capacity);
    std::atomic<bool> overlap{false};
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
        ts.emplace_back([&, t] {
            xorshift64 rng(0x90019001 + static_cast<std::uint64_t>(t) * 31);
            std::vector<node_t*> held;
            for (int i = 0; i < scaled(3000); ++i) {
                if (held.size() < static_cast<std::size_t>(hold) && rng.next() % 2 == 0) {
                    node_t* n = pool.alloc();
                    // Exclusive handout probe: stamp, verify, keep.
                    n->construct_cell(t);
                    held.push_back(n);
                } else if (!held.empty()) {
                    node_t* n = held.back();
                    held.pop_back();
                    if (n->value() != t) overlap.store(true);
                    n->on_reclaim();
                    pool.release(n);
                }
            }
            for (node_t* n : held) {
                if (n->value() != t) overlap.store(true);
                n->on_reclaim();
                pool.release(n);
            }
        });
    }
    for (auto& th : ts) th.join();
    EXPECT_FALSE(overlap.load());
    EXPECT_EQ(pool.free_count(), pool.capacity());
    // Growth is bounded by peak demand: threads*hold outstanding plus the
    // doubling slack (each grow doubles, so at most 4x the true need or
    // the initial capacity, whichever is larger). Each thread may also
    // strand up to two magazines of free nodes in its cache (invisible to
    // other threads' allocs), so peak demand includes that stash.
    const std::size_t peak = static_cast<std::size_t>(threads) *
                             (hold + 2 * pool.magazine_rounds());
    EXPECT_LE(pool.capacity(), std::max(capacity, 4 * peak) + capacity);
    // Free-list uniqueness at quiescence.
    std::set<const node_t*> seen;
    pool.for_each_free([&](const node_t* n) {
        EXPECT_TRUE(seen.insert(n).second) << "node on free list twice";
    });
    EXPECT_EQ(seen.size(), pool.capacity());
}

INSTANTIATE_TEST_SUITE_P(Sweep, PoolSweep,
                         ::testing::Values(pool_params{1, 2, 2},      // grows from nothing
                                           pool_params{4, 8, 4},      // heavy growth pressure
                                           pool_params{64, 4, 8},     // comfortable
                                           pool_params{512, 8, 16},   // no growth expected
                                           pool_params{16, 6, 1},     // shallow holds, high churn
                                           pool_params{8, 3, 32}),    // deep holds force growth
                         name);

}  // namespace
