// Per-thread SafeRead cache (node_pool sr_* machinery): reference
// accounting through eviction and flush, cross-incarnation
// invalidation after a cached cell recycles, the §5 audit's view of
// parked references, the enable/disable knobs, and a deterministic
// Zipf hit-rate check that the cache actually converts hot-key repeat
// visits into zero-RMW takes.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>

#include "lfll/core/audit.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/primitives/rng.hpp"
#include "lfll/primitives/zipf.hpp"
#include "lfll/reclaim/epoch_policy.hpp"

namespace {

using namespace lfll;
using map_t = sorted_list_map<int, int>;
using pool_t = map_t::list_type::pool_type;

/// Cursor-based lookup through the mutator seek (find_from). map::find()
/// rides the read-only lookup, which takes no cursor and touches no
/// cache; the cursor's first() re-derives its position (reposition) and
/// parks the aux after First in the SafeRead cache. Returns the value at
/// `key`, if present.
std::optional<int> seek_find(map_t& map, int key) {
    map_t::cursor c(map.list());
    if (!map.find_from(key, c)) return std::nullopt;
    return (*c).second;
}

/// One write pair on `key`: erase it, then insert it back. The cache's
/// take site is the mutators' aux re-pin (cached_protect before the
/// Figs. 9-10 CAS); the erase's closing update() parks the aux at the
/// erase site, which the insert then re-pins.
void rewrite(map_t& map, int key) {
    ASSERT_TRUE(map.erase(key));
    ASSERT_TRUE(map.insert(key, key));
}

TEST(SafeReadCache, ParkAndTakeOnRepeatVisits) {
    pool_config cfg;
    cfg.initial_capacity = 64;
    cfg.saferead_cache = 1;
    pool_t pool(cfg);
    map_t map(pool);
    ASSERT_TRUE(pool.saferead_cache_enabled());
    for (int k = 0; k < 8; ++k) map.insert(k, k);
    const auto before = pool.saferead_cache_stats();
    for (int round = 0; round < 16; ++round) rewrite(map, 3);
    const auto after = pool.saferead_cache_stats();
    // Repeat writes at the same position re-take the parked references
    // (an erase's update parks the aux at its site, the insert re-pins it).
    EXPECT_GT(after.hits, before.hits);
    EXPECT_EQ(map.find(3), std::optional<int>(3));
    auto r = audit_list(map.list());
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(SafeReadCache, EvictionReleasesAndBalances) {
    pool_config cfg;
    cfg.initial_capacity = 256;
    cfg.saferead_cache = 1;
    cfg.saferead_cache_size = 4;  // tiny: distinct landings must evict
    pool_t pool(cfg);
    map_t map(pool);
    for (int k = 0; k < 64; ++k) map.insert(k, k);
    const auto before = pool.saferead_cache_stats();
    // Reposition after many distinct cells: each parks the aux after its
    // cell, and a 4-entry cache must evict the LRU parked reference,
    // releasing it at once (never a lost or doubled decrement).
    map_t::cursor walker(map.list());
    for (int k = 0; k < 63; ++k) {
        if (k % 3 == 0) {
            map_t::cursor c;
            map.list().seek(c, walker.target());  // walker holds cell k
            ASSERT_FALSE(c.at_end());
            EXPECT_EQ((*c).first, k + 1);
        }
        ASSERT_TRUE(map.list().next(walker));
    }
    walker.reset();
    const auto after = pool.saferead_cache_stats();
    EXPECT_GT(after.evictions, before.evictions);
    // The audit flushes every thread's parked references itself; a
    // miscounted eviction surfaces here as a refcount imbalance on some
    // cell.
    auto r = audit_list(map.list());
    EXPECT_TRUE(r.ok) << r.error;
    pool.flush_deferred_releases();
    EXPECT_EQ(pool.saferead_cache_pending(), 0u);
}

TEST(SafeReadCache, AuditBalancesWithEntriesStillParked) {
    pool_config cfg;
    cfg.initial_capacity = 64;
    cfg.saferead_cache = 1;
    pool_t pool(cfg);
    map_t map(pool);
    for (int k = 0; k < 8; ++k) map.insert(k, k);
    ASSERT_TRUE(seek_find(map, 5).has_value());
    // The cursor's first() parked a live reference on the aux after
    // First; the audit must account for it (its entry flush runs the
    // real decrement) and still balance every §5 count.
    ASSERT_GT(pool.saferead_cache_pending(), 0u);
    auto r = audit_list(map.list());
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(pool.saferead_cache_pending(), 0u);
}

TEST(SafeReadCache, CrossIncarnationInvalidation) {
    pool_config cfg;
    cfg.initial_capacity = 16;  // tiny: unlinked nodes recycle promptly
    cfg.saferead_cache = 1;
    pool_t pool(cfg);
    map_t map(pool);
    for (int k = 0; k < 4; ++k) map.insert(k, 100 + k);
    // Erasing 2 re-derives the cursor at the erase site, which parks the
    // aux after cell 1 — now the aux before cell 3. Flush to decay the
    // parked reference to a hint (the count is released, the entry kept).
    ASSERT_TRUE(map.erase(2));
    pool.flush_deferred_releases();
    EXPECT_EQ(pool.saferead_cache_pending(), 0u);
    // Recycle the hinted aux: erasing 3 unlinks the aux before it, which
    // returns through the free list with a bumped incarnation (and may
    // be handed right back as a new aux).
    ASSERT_TRUE(map.erase(3));
    pool.flush_deferred_releases();
    pool.drain_retired();
    // The inserts' aux re-pins (cached_protect) may meet the stale hint
    // at its old address: the take revalidates the incarnation and backs
    // out, and the re-pin falls back to a plain protect.
    ASSERT_TRUE(map.insert(2, 202));
    ASSERT_TRUE(map.insert(3, 203));
    EXPECT_EQ(map.find(2), std::optional<int>(202));
    EXPECT_EQ(map.find(3), std::optional<int>(203));
    auto v = seek_find(map, 2);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 202);
    auto r = audit_list(map.list());
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(SafeReadCache, DisabledByConfigKnob) {
    pool_config cfg;
    cfg.initial_capacity = 64;
    cfg.saferead_cache = 0;  // explicit off beats the env/default
    pool_t pool(cfg);
    map_t map(pool);
    EXPECT_FALSE(pool.saferead_cache_enabled());
    for (int k = 0; k < 8; ++k) map.insert(k, k);
    for (int round = 0; round < 8; ++round) {
        ASSERT_TRUE(seek_find(map, 3).has_value());
    }
    const auto s = pool.saferead_cache_stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(pool.saferead_cache_pending(), 0u);
    auto r = audit_list(map.list());
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(SafeReadCache, CompiledOutUnderEpochs) {
    using epoch_map_t = sorted_list_map<int, int, std::less<int>, epoch_policy>;
    epoch_map_t map(64);
    EXPECT_FALSE(map.list().pool().saferead_cache_enabled());
    EXPECT_EQ(map.list().pool().saferead_cache_capacity() *
                  std::size_t{map.list().pool().saferead_cache_enabled()},
              0u);
    for (int k = 0; k < 4; ++k) map.insert(k, k);
    ASSERT_TRUE(map.find(2).has_value());
    const auto s = map.list().pool().saferead_cache_stats();
    EXPECT_EQ(s.hits + s.misses + s.evictions, 0u);
}

/// Deterministic hit-rate floor: Zipf(0.99) keys over a 64-key map,
/// fixed seed, single thread, each visit an erase/insert pair. The hot
/// keys' auxes stay parked between visits, so a healthy cache converts a
/// solid fraction of the mutators' re-pin traffic into zero-RMW takes.
/// The floor is deliberately loose — it guards "the cache works at
/// all", not a specific ratio.
TEST(SafeReadCache, ZipfHitRateFloor) {
    pool_config cfg;
    cfg.initial_capacity = 256;
    cfg.saferead_cache = 1;
    cfg.saferead_cache_size = 16;
    pool_t pool(cfg);
    map_t map(pool);
    constexpr std::uint64_t kKeys = 64;
    for (int k = 0; k < static_cast<int>(kKeys); ++k) map.insert(k, k);
    const auto before = pool.saferead_cache_stats();
    zipf_generator zipf(kKeys, 0.99);
    xorshift64 rng(0xC0FFEEULL);
    for (int i = 0; i < 20000; ++i) {
        ASSERT_NO_FATAL_FAILURE(rewrite(map, static_cast<int>(zipf(rng))));
    }
    const auto after = pool.saferead_cache_stats();
    const std::uint64_t hits = after.hits - before.hits;
    const std::uint64_t misses = after.misses - before.misses;
    ASSERT_GT(hits + misses, 0u);
    const double rate =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
    EXPECT_GT(rate, 0.25) << "hits=" << hits << " misses=" << misses;
    auto r = audit_list(map.list());
    EXPECT_TRUE(r.ok) << r.error;
}

}  // namespace
