// request_pipeline coverage: submit/complete correctness against an
// oracle, the inline-helping drain, ring backpressure under a tiny ring,
// executor-backstop progress for wait()-only owners, and drain stats.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "lfll/dict/sharded_kv.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/harness/pipeline.hpp"
#include "lfll/primitives/rng.hpp"

namespace {

using namespace lfll;
using lfll::harness::pipeline_config;
using lfll::harness::request_pipeline;

using sorted_store = sharded_kv<sorted_list_map<int, int>>;

sorted_store make_store(std::size_t shards, std::size_t cap = 1024) {
    return sorted_store(shards, [cap](std::size_t) {
        return std::make_unique<sorted_list_map<int, int>>(cap);
    });
}

TEST(Pipeline, BlockingConveniencesMatchOracle) {
    sorted_store store = make_store(4);
    pipeline_config cfg;
    cfg.batch_max = 8;
    request_pipeline<sorted_store> pipe(store, cfg);
    std::map<int, int> oracle;
    xorshift64 rng(0xF00D);
    for (int i = 0; i < 2000; ++i) {
        const int k = static_cast<int>(rng.next_below(128));
        switch (rng.next_below(3)) {
            case 0: {
                const auto got = pipe.get(k);
                const auto it = oracle.find(k);
                if (it == oracle.end()) {
                    EXPECT_FALSE(got.has_value()) << "i=" << i;
                } else {
                    EXPECT_EQ(got, std::optional<int>(it->second)) << "i=" << i;
                }
                break;
            }
            case 1: {
                const bool ok = pipe.insert(k, 100 + k);
                EXPECT_EQ(ok, oracle.find(k) == oracle.end()) << "i=" << i;
                oracle.emplace(k, 100 + k);
                break;
            }
            default: {
                const bool ok = pipe.erase(k);
                EXPECT_EQ(ok, oracle.erase(k) > 0) << "i=" << i;
                break;
            }
        }
    }
    EXPECT_EQ(store.size_slow(), oracle.size());
    EXPECT_GE(pipe.requests_completed(), 2000u);
    EXPECT_GE(pipe.batches_drained(), 1u);
}

TEST(Pipeline, WindowedSubmitCompletesEverySlot) {
    // The kv_service pattern: submit a whole window (no executor wake),
    // then complete each slot — the client drains its own shards inline.
    sorted_store store = make_store(2);
    for (int k = 0; k < 64; ++k) store.insert(k, 500 + k);
    pipeline_config cfg;
    cfg.batch_max = 16;
    request_pipeline<sorted_store> pipe(store, cfg);
    using pipe_t = request_pipeline<sorted_store>;
    constexpr std::size_t kWindow = 24;
    std::vector<pipe_t::request> slots(kWindow);
    for (int round = 0; round < 50; ++round) {
        for (std::size_t w = 0; w < kWindow; ++w) {
            const int k = static_cast<int>((round * kWindow + w) % 64);
            pipe.submit(slots[w], batch_op_kind::get, k, 0, /*wake=*/false);
        }
        for (std::size_t w = 0; w < kWindow; ++w) {
            pipe.complete(slots[w]);
            ASSERT_TRUE(slots[w].ready());
            const int k = static_cast<int>((round * kWindow + w) % 64);
            ASSERT_TRUE(slots[w].result().ok) << "key " << k;
            EXPECT_EQ(slots[w].result().value, std::optional<int>(500 + k));
        }
    }
    EXPECT_EQ(pipe.requests_completed(), 50u * kWindow);
    // Windowed submission must actually coalesce: strictly fewer drains
    // than requests.
    EXPECT_LT(pipe.batches_drained(), pipe.requests_completed());
}

TEST(Pipeline, ExecutorBackstopServesWaitOnlyOwners) {
    // Owners that only wait() (never help) still complete: the woken
    // executor is responsible for every submitted request.
    sorted_store store = make_store(1);
    request_pipeline<sorted_store> pipe(store);
    using pipe_t = request_pipeline<sorted_store>;
    std::vector<pipe_t::request> slots(256);
    for (int i = 0; i < 256; ++i) {
        pipe.submit(slots[i], batch_op_kind::insert, i, 2 * i);  // wake=true
    }
    for (int i = 0; i < 256; ++i) {
        slots[i].wait();
        EXPECT_TRUE(slots[i].result().ok) << i;
    }
    EXPECT_EQ(store.size_slow(), 256u);
}

TEST(Pipeline, TinyRingBackpressuresWithoutLoss) {
    // Ring of 8 slots, window of 64: submit must backpressure (spin) yet
    // every request completes exactly once.
    sorted_store store = make_store(1);
    pipeline_config cfg;
    cfg.ring_capacity = 8;
    cfg.batch_max = 4;
    request_pipeline<sorted_store> pipe(store, cfg);
    using pipe_t = request_pipeline<sorted_store>;
    std::atomic<int> inserted{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&pipe, &inserted, t] {
            std::vector<pipe_t::request> slots(64);
            for (int i = 0; i < 64; ++i) {
                pipe.submit(slots[i], batch_op_kind::insert, t * 64 + i, i);
            }
            for (int i = 0; i < 64; ++i) {
                pipe.complete(slots[i]);
                if (slots[i].result().ok) inserted.fetch_add(1);
            }
        });
    }
    for (auto& c : clients) c.join();
    EXPECT_EQ(inserted.load(), 4 * 64);
    EXPECT_EQ(store.size_slow(), 4u * 64u);
}

TEST(Pipeline, ConcurrentMixedClientsStayLinearizablePerKey) {
    // 2 helping clients + 2 wait-only clients over a shared key range;
    // per-key insert/erase alternation means the final membership must
    // match the per-key op balance each client observed.
    using so_store = sharded_kv<split_ordered_map<int, int>>;
    split_ordered_config cfg;
    cfg.initial_buckets = 4;
    cfg.capacity_hint = 1024;
    so_store store = make_sharded_kv<int, int>(2, cfg);
    request_pipeline<so_store> pipe(store);
    using pipe_t = request_pipeline<so_store>;
    std::atomic<std::int64_t> balance{0};  // inserts-that-won minus erases-that-won
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&pipe, &balance, t] {
            const bool helper = t < 2;
            xorshift64 rng(0xC11E + t * 7919);
            pipe_t::request slot;
            std::int64_t local = 0;
            for (int i = 0; i < 1500; ++i) {
                const int k = static_cast<int>(rng.next_below(96));
                const bool ins = rng.next_below(2) == 0;
                pipe.submit(slot, ins ? batch_op_kind::insert : batch_op_kind::erase,
                            k, k, /*wake=*/!helper);
                if (helper) {
                    pipe.complete(slot);
                } else {
                    slot.wait();
                }
                if (slot.result().ok) local += ins ? 1 : -1;
            }
            balance.fetch_add(local);
        });
    }
    for (auto& c : clients) c.join();
    EXPECT_EQ(static_cast<std::int64_t>(store.size_slow()), balance.load())
        << "won inserts minus won erases must equal the live count";
}

/// One-shard store whose batch blocks while it holds `gate_key` and the
/// gate is shut, so its drainer keeps the drain flag across a known wait.
struct gated_store {
    using key_type = int;
    using mapped_type = int;
    static constexpr int gate_key = -1;

    sorted_list_map<int, int> map{64};
    std::atomic<bool> entered{false};
    std::atomic<bool> open{false};

    std::size_t shard_count() const noexcept { return 1; }
    std::size_t shard_of(int) const noexcept { return 0; }
    gated_store& shard_at(std::size_t) noexcept { return *this; }

    void apply_batch(const batch_op<int, int>* ops, std::size_t n, batch_result<int>* out) {
        for (std::size_t i = 0; i < n; ++i) {
            if (ops[i].key != gate_key) continue;
            entered.store(true, std::memory_order_release);
            while (!open.load(std::memory_order_acquire)) std::this_thread::yield();
        }
        map.apply_batch(ops, n, out);
    }
};

TEST(Pipeline, CompleteFallbackWaitIsAlwaysWoken) {
    // Drives complete() into its futex fallback, where a helping client
    // that lost the drain-flag race eight times sleeps in r.wait() until
    // the flag's holder publishes kDone. A lost wake-up there hangs the
    // test (it carries a ctest TIMEOUT).
    auto& sleeps = telemetry::registry::global().get_counter(
        "lfll_pipeline_complete_sleeps_total");
    const std::uint64_t sleeps_before = sleeps.value();
    {
        // Deterministic: the executor drains the gate request and holds
        // the flag until the gate opens, which happens only once the
        // client's complete() has counted its sleep.
        gated_store gs;
        gs.map.insert(7, 307);
        request_pipeline<gated_store> pipe(gs);
        request_pipeline<gated_store>::request gate;
        pipe.submit(gate, batch_op_kind::get, gated_store::gate_key);
        while (!gs.entered.load(std::memory_order_acquire)) std::this_thread::yield();
        std::thread client([&pipe] {
            request_pipeline<gated_store>::request r;
            pipe.submit(r, batch_op_kind::get, 7, 0, /*wake=*/false);
            pipe.complete(r);
            EXPECT_EQ(r.result().value, std::optional<int>(307));
        });
        // Bounded, so a complete() that never sleeps fails the final
        // EXPECT instead of hanging.
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (sleeps.value() == sleeps_before && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
        }
        gs.open.store(true, std::memory_order_release);
        client.join();
        gate.wait();
        EXPECT_FALSE(gate.result().ok);
    }

    // Under load: the executor holds the drain flag through an under-full
    // batch's coalescing wait while helping clients race it. The ring
    // holds every client's whole window, so no-wake submits never block
    // on it.
    constexpr int kPipelines = 25;
    constexpr int kClients = 4;
    constexpr int kWindow = 4;
    constexpr int kRounds = 4000;
    sorted_store store = make_store(1);
    for (int k = 0; k < 64; ++k) store.insert(k, 300 + k);
    pipeline_config cfg;
    cfg.ring_capacity = kClients * kWindow;
    cfg.batch_max = 8;
    cfg.batch_wait_us = 20;
    using pipe_t = request_pipeline<sorted_store>;
    for (int p = 0; p < kPipelines; ++p) {
        pipe_t pipe(store, cfg);
        std::atomic<int> wrong{0};
        std::vector<std::thread> clients;
        for (int t = 0; t < kClients; ++t) {
            clients.emplace_back([&pipe, &wrong, t] {
                std::vector<pipe_t::request> slots(kWindow);
                for (int round = 0; round < kRounds; ++round) {
                    for (int w = 0; w < kWindow; ++w) {
                        const int k = (t * kWindow + w + round) % 64;
                        pipe.submit(slots[w], batch_op_kind::get, k, 0, /*wake=*/false);
                    }
                    for (int w = 0; w < kWindow; ++w) {
                        pipe.complete(slots[w]);
                        const int k = (t * kWindow + w + round) % 64;
                        if (slots[w].result().value != std::optional<int>(300 + k)) {
                            wrong.fetch_add(1);
                        }
                    }
                }
            });
        }
        for (auto& c : clients) c.join();
        ASSERT_EQ(wrong.load(), 0) << "pipeline " << p;
        ASSERT_EQ(pipe.requests_completed(),
                  static_cast<std::uint64_t>(kClients) * kWindow * kRounds);
    }
    EXPECT_GT(sleeps.value() - sleeps_before, 0u)
        << "no complete() reached the futex fallback";
}

}  // namespace
