// Sampled-profiler unit tests: deterministic sampling rate, exclusive
// phase accounting, the space-saving hot-key sketch against exact counts,
// and the slow-op ring's wraparound/concurrent-writer behaviour. The
// sketch/ring cases run on private instances so they are exact; the
// op_scope cases use the real thread-local sampler with the runtime
// overrides, restoring defaults on exit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/telemetry/exporter.hpp"
#include "lfll/telemetry/profiler.hpp"
#include "test_scale.hpp"

namespace {

namespace prof = lfll::telemetry::prof;
using namespace prof;  // NOLINT: scopes/knobs; qualified below where ambiguous

/// Restores profiler knobs on scope exit so tests don't leak overrides.
struct override_guard {
    ~override_guard() {
        set_enabled_override(-1);
        set_rate_override(-1);
        set_slow_ns_override(-1);
    }
};

void spin_ns(std::uint64_t ns) {
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
               .count() < static_cast<std::int64_t>(ns)) {
    }
}

// ------------------------------------------------------------- sampling

TEST(ProfilerSampling, FixedSeedYieldsExactSampleCount) {
    override_guard restore;
    set_enabled_override(1);
    set_rate_override(16);
    set_slow_ns_override(1 << 30);  // no slow captures from this test

    constexpr std::uint64_t kSeed = 0xDEADBEEFCAFEULL;
    constexpr int kOps = 5000;

    // Replay the sampler's exact gap sequence: reseed() seeds the raw
    // xorshift64* state and draws one countdown, then every arm() draws
    // the next gap from the same stream.
    std::uint64_t s = kSeed;
    std::uint64_t countdown = prof::detail::next_gap(s, 16);
    std::uint64_t expected = 0;
    for (int i = 0; i < kOps; ++i) {
        if (--countdown == 0) {
            ++expected;
            countdown = prof::detail::next_gap(s, 16);
        }
    }
    ASSERT_GT(expected, 0u);

    prof::testing::reseed(kSeed);
    const std::uint64_t before = prof::testing::thread_sample_count();
    for (int i = 0; i < kOps; ++i) {
        op_scope op(lfll::telemetry::trace_op::find, static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(prof::testing::thread_sample_count() - before, expected);

    // Mean gap sanity: with rate 16, 5000 ops should sample well away
    // from both "never" and "every op".
    EXPECT_GT(expected, static_cast<std::uint64_t>(kOps) / 64);
    EXPECT_LT(expected, static_cast<std::uint64_t>(kOps));
}

TEST(ProfilerSampling, DisabledStillDrainsCountdownButNeverArms) {
    override_guard restore;
    set_enabled_override(0);
    set_rate_override(4);
    prof::testing::reseed(7);
    const std::uint64_t before = prof::testing::thread_sample_count();
    for (int i = 0; i < 1000; ++i) {
        op_scope op(lfll::telemetry::trace_op::insert, 1);
    }
    EXPECT_EQ(prof::testing::thread_sample_count(), before);
}

TEST(ProfilerSampling, RateOneThroughRealMapSamplesEveryOp) {
    override_guard restore;
    set_enabled_override(1);
    set_rate_override(1);
    set_slow_ns_override(1 << 30);
    lfll::sorted_list_map<int, int> m;
    prof::testing::reseed(3);
    const std::uint64_t before = prof::testing::thread_sample_count();
    ASSERT_TRUE(m.insert(1, 10));
    ASSERT_TRUE(m.find(1).has_value());
    ASSERT_TRUE(m.erase(1));
    EXPECT_EQ(prof::testing::thread_sample_count() - before, 3u);
    EXPECT_EQ(prof::testing::last_sample().op, lfll::telemetry::trace_op::erase);
    EXPECT_EQ(prof::testing::last_sample().key, lfll::telemetry::key_hash(1));
}

// -------------------------------------------------------- phase nesting

TEST(ProfilerPhases, NestedScopesAccountExclusiveTime) {
    override_guard restore;
    set_enabled_override(1);
    set_slow_ns_override(1 << 30);
    prof::testing::force_sample_next();
    constexpr std::uint64_t kSlice = 2'000'000;  // 2 ms per segment
    {
        op_scope op(lfll::telemetry::trace_op::insert, 42);
        spin_ns(kSlice);  // traverse (default)
        {
            phase_scope alloc_phase(phase::alloc);
            spin_ns(kSlice);
            {
                // Doubly nested: reclaim inside alloc inside traverse.
                phase_scope reclaim_phase(phase::reclaim);
                spin_ns(kSlice);
            }
            spin_ns(kSlice);  // back in alloc
        }
        spin_ns(kSlice);  // back in traverse
    }
    const op_ctx& c = prof::testing::last_sample();
    ASSERT_EQ(c.op, lfll::telemetry::trace_op::insert);

    // Exclusive attribution: each phase holds its own segments only.
    const std::uint64_t traverse = c.phase_ns[static_cast<int>(phase::traverse)];
    const std::uint64_t alloc = c.phase_ns[static_cast<int>(phase::alloc)];
    const std::uint64_t reclaim = c.phase_ns[static_cast<int>(phase::reclaim)];
    EXPECT_GE(traverse, 2 * kSlice);
    EXPECT_GE(alloc, 2 * kSlice);
    EXPECT_GE(reclaim, kSlice);
    // No double counting: if alloc time also landed in traverse, the sum
    // would exceed the wall total. The segments telescope, so the phase
    // sum equals total_ns exactly.
    std::uint64_t sum = 0;
    for (int i = 0; i < phase_count; ++i) sum += c.phase_ns[i];
    EXPECT_EQ(sum, c.total_ns);
    EXPECT_LT(traverse, c.total_ns - alloc - reclaim + 1);
}

TEST(ProfilerPhases, PhaseScopeInertWithoutArmedSample) {
    override_guard restore;
    set_enabled_override(0);
    // No armed op: scopes must not touch any context.
    phase_scope p1(phase::alloc);
    phase_scope p2(phase::reclaim);
    SUCCEED();
}

// ------------------------------------------------------ hot-key sketch

TEST(HotKeySketch, TracksZipfHeavyHittersAgainstExactCounts) {
    hotkey_sketch sk;
    // Deterministic Zipf-ish stream: key k in [0, 1000) drawn with weight
    // ~ 1/(k+1) via inverse-CDF over a harmonic table, from a fixed
    // xorshift stream. ~8x more distinct keys than sketch slots, so
    // eviction is exercised throughout.
    constexpr std::size_t kKeys = 1000;
    constexpr int kTouches = 200000;
    std::vector<double> cdf(kKeys);
    double acc = 0;
    for (std::size_t k = 0; k < kKeys; ++k) {
        acc += 1.0 / static_cast<double>(k + 1);
        cdf[k] = acc;
    }
    std::uint64_t s = 0x1234567890ABCDEFULL;
    std::map<std::uint64_t, std::uint64_t> exact;
    for (int i = 0; i < kTouches; ++i) {
        const double u =
            static_cast<double>(prof::detail::sample_next(s) >> 11) / 9007199254740992.0 * acc;
        const std::size_t k = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        // The hottest key also accrues CAS failures; others none.
        sk.touch(k, k == 0 ? 2 : 0, static_cast<std::int64_t>(k % 4));
        exact[k]++;
    }

    const auto top = sk.top(10);
    ASSERT_EQ(top.size(), 10u);

    // Exact top-5 by count.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(exact.begin(),
                                                                exact.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (int i = 0; i < 5; ++i) {
        const std::uint64_t want = sorted[static_cast<std::size_t>(i)].first;
        const bool found = std::any_of(top.begin(), top.end(),
                                       [&](const auto& e) { return e.key == want; });
        EXPECT_TRUE(found) << "exact top-5 key " << want << " missing from sketch top-10";
    }
    // Space-saving overestimate: a reported count never undershoots the
    // true count (inheritance only inflates).
    for (const auto& e : top) {
        const auto it = exact.find(e.key);
        if (it != exact.end()) EXPECT_GE(e.hits, it->second);
    }
    // The hottest key carries its CAS-failure attribution and last shard.
    ASSERT_EQ(top[0].key, sorted[0].first);
    EXPECT_EQ(top[0].cas_failures, 2 * exact.at(top[0].key));
    EXPECT_EQ(top[0].shard, static_cast<std::int64_t>(top[0].key % 4));
}

TEST(HotKeySketch, ConcurrentTouchesStayConsistent) {
    hotkey_sketch sk;
    constexpr int kThreads = 4;
    const int per_thread = lfll_test::scaled(50000);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&sk, t, per_thread] {
            std::uint64_t s = 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(t + 1);
            for (int i = 0; i < per_thread; ++i) {
                // Hot head (0-7 most of the time) + cold tail.
                const std::uint64_t r = prof::detail::sample_next(s);
                const std::uint64_t key = (r % 4 != 0) ? (r >> 32) % 8 : (r >> 16) % 512;
                sk.touch(key, 1, static_cast<std::int64_t>(t));
            }
        });
    }
    for (auto& th : ts) th.join();
    const auto top = sk.top(8);
    ASSERT_FALSE(top.empty());
    // The hot head dominates: every one of keys 0..7 must be resident.
    for (std::uint64_t k = 0; k < 8; ++k) {
        EXPECT_TRUE(std::any_of(top.begin(), top.end(),
                                [&](const auto& e) { return e.key == k; }))
            << "hot key " << k << " evicted";
    }
}

// -------------------------------------------------------- slow-op ring

slow_op_record make_record(std::uint64_t marker) {
    slow_op_record r;
    r.ts_ns = marker;
    r.key = marker * 3 + 1;
    r.total_ns = marker + 7;
    r.cas_failures = marker % 5;
    for (int i = 0; i < phase_count; ++i)
        r.phase_ns[i] = marker + static_cast<std::uint64_t>(i);
    r.shard = static_cast<std::int64_t>(marker % 4);
    for (int i = 0; i < 4; ++i) r.health[i] = static_cast<std::int64_t>(marker + 100 + i);
    r.tid = static_cast<std::uint32_t>(marker % 31);
    r.op = static_cast<std::uint16_t>(marker % 11);
    return r;
}

void expect_consistent(const slow_op_record& r) {
    const std::uint64_t marker = r.ts_ns;
    EXPECT_EQ(r.key, marker * 3 + 1);
    EXPECT_EQ(r.total_ns, marker + 7);
    EXPECT_EQ(r.cas_failures, marker % 5);
    for (int i = 0; i < phase_count; ++i)
        EXPECT_EQ(r.phase_ns[i], marker + static_cast<std::uint64_t>(i));
    EXPECT_EQ(r.shard, static_cast<std::int64_t>(marker % 4));
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(r.health[i], static_cast<std::int64_t>(marker + 100 + i));
    EXPECT_EQ(r.tid, static_cast<std::uint32_t>(marker % 31));
    EXPECT_EQ(r.op, static_cast<std::uint16_t>(marker % 11));
}

TEST(SlowOpRing, WraparoundKeepsNewestRecords) {
    const auto owned = std::make_unique<slow_op_ring>();  // too big for a stack
    slow_op_ring& ring = *owned;
    constexpr std::uint64_t kPushes = 3 * slow_op_ring::capacity + 11;
    for (std::uint64_t i = 0; i < kPushes; ++i) ring.push(make_record(i));
    EXPECT_EQ(ring.head(), kPushes);

    std::vector<slow_op_record> out;
    const std::uint64_t cursor = ring.collect(0, out);
    EXPECT_EQ(cursor, kPushes);
    // Quiescent: exactly the newest `capacity` records, in ticket order.
    ASSERT_EQ(out.size(), slow_op_ring::capacity);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].ts_ns, kPushes - slow_op_ring::capacity + i);
        expect_consistent(out[i]);
    }

    // The cursor is a high-water mark: nothing new, nothing re-read.
    out.clear();
    EXPECT_EQ(ring.collect(cursor, out), kPushes);
    EXPECT_TRUE(out.empty());

    ring.push(make_record(kPushes));
    EXPECT_EQ(ring.collect(cursor, out), kPushes + 1);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].ts_ns, kPushes);
}

TEST(SlowOpRing, ConcurrentWritersNeverTearRecords) {
    const auto owned = std::make_unique<slow_op_ring>();  // too big for a stack
    slow_op_ring& ring = *owned;
    constexpr int kWriters = 4;
    // Enough pushes to wrap the ring at every test scale.
    const std::uint64_t per_writer =
        static_cast<std::uint64_t>(lfll_test::scaled_min(4000, 200)) +
        slow_op_ring::capacity / kWriters;
    std::atomic<bool> stop_reader{false};
    std::uint64_t reads = 0;

    std::thread reader([&] {
        std::uint64_t cursor = 0;
        std::vector<slow_op_record> out;
        while (!stop_reader.load(std::memory_order_acquire)) {
            out.clear();
            cursor = ring.collect(cursor, out);
            for (const slow_op_record& r : out) {
                expect_consistent(r);  // seqlock: torn reads must be discarded
                ++reads;
            }
            std::this_thread::yield();
        }
    });

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&ring, w, per_writer] {
            for (std::uint64_t i = 0; i < per_writer; ++i) {
                ring.push(make_record(static_cast<std::uint64_t>(w) * per_writer + i));
            }
        });
    }
    for (auto& th : writers) th.join();
    stop_reader.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(ring.head(), kWriters * per_writer);
    // Final quiescent sweep: the last `capacity` records all verify.
    std::vector<slow_op_record> out;
    ring.collect(ring.head() > slow_op_ring::capacity
                     ? ring.head() - slow_op_ring::capacity
                     : 0,
                 out);
    EXPECT_EQ(out.size(), slow_op_ring::capacity);
    for (const slow_op_record& r : out) expect_consistent(r);
}

// ----------------------------------------------------- publication path

TEST(ProfilerPublish, HotKeyGaugesAndSlowOpJsonl) {
    override_guard restore;
    set_enabled_override(1);
    set_rate_override(1);
    set_slow_ns_override(0);  // every sample is a slow capture
    const std::uint64_t cursor0 = slow_ring().head();
    prof::testing::force_sample_next();
    {
        op_scope op(lfll::telemetry::trace_op::insert, 777);
        phase_scope ph(phase::alloc);
        spin_ns(1000);
    }
    publish();
    // The sampled key must be resident in some published rank.
    auto& reg = lfll::telemetry::registry::global();
    bool found = false;
    for (std::size_t r = 0; r < topk; ++r) {
        const std::string label = "rank=\"" + std::to_string(r) + "\"";
        if (reg.get_gauge("lfll_prof_hot_key", label).value() == 777) found = true;
    }
    EXPECT_TRUE(found);

    std::string out;
    std::uint64_t cursor = cursor0;
    append_slow_ops_jsonl(out, cursor);
    EXPECT_GT(cursor, cursor0);
    EXPECT_NE(out.find("\"slow_op\""), std::string::npos);
    EXPECT_NE(out.find("\"op\":\"insert\""), std::string::npos);
    EXPECT_NE(out.find("\"key\":777"), std::string::npos);
    EXPECT_NE(out.find("\"alloc\":"), std::string::npos);
    EXPECT_NE(out.find("\"health\""), std::string::npos);
}

// A full-trace run (LFLL_PROFILE_RATE=1 LFLL_SLOW_OP_NS=0) makes every
// sampled op a slow capture; one jsonl exporter tick must still write at
// most jsonl_slow_ops_per_tick of them, the newest, and the next tick
// none of the ones it dropped.
TEST(ProfilerPublish, JsonlTickCapsSlowOpLines) {
    override_guard restore;
    set_enabled_override(1);
    set_rate_override(1);
    set_slow_ns_override(0);
    const std::string path = ::testing::TempDir() + "lfll_jsonl_cap_test.jsonl";
    std::remove(path.c_str());
    const auto slow_lines = [&path] {
        std::ifstream in(path);
        std::size_t n = 0;
        for (std::string line; std::getline(in, line);) {
            if (line.rfind("{\"slow_op\"", 0) == 0) ++n;
        }
        return n;
    };
    lfll::telemetry::periodic_exporter exp(lfll::telemetry::export_format::jsonl, path,
                                           std::chrono::hours(1));
    lfll::sorted_list_map<int, int> m;
    for (int k = 0; k < 200; ++k) ASSERT_TRUE(m.insert(k, k));
    exp.emit_once();
    EXPECT_EQ(slow_lines(), jsonl_slow_ops_per_tick);
    ASSERT_TRUE(m.find(7).has_value());  // one more capture
    exp.emit_once();
    EXPECT_EQ(slow_lines(), jsonl_slow_ops_per_tick + 1);
    exp.stop();
    std::remove(path.c_str());
}

}  // namespace
