// Request/batch pipeline in front of a sharded store (the ROADMAP D1
// residual: requests used to be one-op-per-call).
//
// Client threads SUBMIT requests instead of calling the store: submit()
// routes the request by shard ONCE, parks it in that shard's bounded
// MPSC ring, and returns immediately. Drains happen in batches of up to
// `batch_max` requests served through the shard map's apply_batch — ONE
// sorted cursor pass per drain. The client completes through the
// request slot it owns (ready()/wait(), C++20 atomic wait underneath),
// or better through complete(), which lets the client HELP.
//
// Who drains: the consumer role is a per-ring flag, not a thread. One
// executor thread per shard takes it whenever its ring is non-empty
// (waiting up to batch_wait_us for an under-full batch to fill),
// but a client blocked in complete() also competes for the flag and
// drains its own shard inline — flat-combining style. That inline path
// is what keeps light-load latency honest: a client that just submitted
// a window serves the batch itself on its own timeslice (no wake, no
// context switch — decisive on few-core boxes), and it serves whatever
// OTHER clients parked in the same ring along the way, so batches still
// coalesce across submitters. Executors are the progress backstop: they
// never sleep while their ring is non-empty, so a request whose owner
// merely wait()s (or helps a different shard) is always served.
//
// What the batch amortizes:
//   * shard routing — computed at submit; the executor never re-hashes;
//   * traversal — the drain is a key-sorted cursor-resume pass, so k
//     requests cost one walk instead of k cold seeks (dict/batch.hpp);
//   * per-op TLS/profiler bookkeeping — the executor thread is
//     persistent, so its magazines stay hot across the whole batch.
//
// Queueing discipline: rings are MPSC (Vyukov sequence slots); the
// consumer side is serialized by the `draining` flag (executor and
// helpers take turns), so the pop path itself needs no CAS. Producers
// spin only when a ring is FULL (backpressure); executors sleep on an
// eventcount when idle, and producers only pay the notify syscall when
// an executor actually parked (`idle` flag), so steady-state batching
// never syscalls.
//
// Linearizability is untouched: every request keeps its individual
// linearization point inside apply_batch, and that point falls between
// submit() and wait()-return — a strictly narrower window than the
// caller's invoke/response bracket.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "lfll/dict/batch.hpp"
#include "lfll/primitives/cacheline.hpp"
#include "lfll/primitives/test_hooks.hpp"
#include "lfll/telemetry/metrics.hpp"
#include "lfll/telemetry/profiler.hpp"

namespace lfll::harness {

struct pipeline_config {
    /// Most requests one executor drain serves (at least 1).
    std::size_t batch_max = 32;
    /// How long an executor lets an under-full batch coalesce before
    /// serving it anyway. 0 drains eagerly, which is right for latency;
    /// raise it when throughput per drain matters more.
    std::uint32_t batch_wait_us = 0;
    /// Per-shard ring capacity (rounded up to a power of two). A full
    /// ring back-pressures submitters (they spin-retry).
    std::size_t ring_capacity = 1024;
};

/// Pipelined front-end over a sharded store (anything with
/// shard_count()/shard_at(i)/shard_of(key) whose shard maps implement
/// apply_batch — sharded_kv over sorted_list_map or split_ordered_map).
template <typename Store>
class request_pipeline {
public:
    using key_type = typename Store::key_type;
    using mapped_type = typename Store::mapped_type;

    /// One in-flight request. The CALLER owns the slot and must keep it
    /// alive until ready()/wait(); after completion the slot is reusable
    /// for the next submit. Not copyable/movable while in flight.
    class request {
    public:
        request() = default;
        request(const request&) = delete;
        request& operator=(const request&) = delete;

        bool ready() const noexcept {
            return state_.load(std::memory_order_acquire) == kDone;
        }

        /// Blocks until the executor completes this request. Spins a few
        /// rounds (a drain is usually imminent), then futex-waits.
        void wait() noexcept {
            for (int spin = 0; spin < 64; ++spin) {
                if (ready()) return;
            }
            std::uint32_t s = state_.load(std::memory_order_acquire);
            while (s != kDone) {
                state_.wait(s, std::memory_order_acquire);
                s = state_.load(std::memory_order_acquire);
            }
        }

        /// Valid once ready(): the op's outcome (see batch_result).
        const batch_result<mapped_type>& result() const noexcept { return result_; }

    private:
        friend class request_pipeline;
        static constexpr std::uint32_t kIdle = 0;
        static constexpr std::uint32_t kPending = 1;
        static constexpr std::uint32_t kDone = 2;

        std::atomic<std::uint32_t> state_{kIdle};
        std::uint32_t shard_ = 0;  // set by submit(); lets complete() help
        batch_op_kind kind_ = batch_op_kind::get;
        key_type key_{};
        mapped_type value_{};
        batch_result<mapped_type> result_{};
    };

    explicit request_pipeline(Store& store, pipeline_config cfg = {})
        : store_(&store),
          batch_max_(cfg.batch_max),
          batch_wait_us_(cfg.batch_wait_us) {
        assert(batch_max_ > 0);
        const std::size_t shards = store.shard_count();
        std::size_t cap = 1;
        while (cap < cfg.ring_capacity) cap <<= 1;
        auto& reg = telemetry::registry::global();
        m_batch_hist_ = &reg.get_histogram("lfll_pipeline_batch_size");
        m_batches_ = &reg.get_counter("lfll_pipeline_batches_total");
        m_requests_ = &reg.get_counter("lfll_pipeline_requests_total");
        m_drain_waits_ = &reg.get_counter("lfll_pipeline_drain_waits_total");
        m_inline_drains_ = &reg.get_counter("lfll_pipeline_inline_drains_total");
        m_complete_sleeps_ = &reg.get_counter("lfll_pipeline_complete_sleeps_total");
        rings_.reserve(shards);
        for (std::size_t s = 0; s < shards; ++s) {
            rings_.push_back(std::make_unique<ring>(cap));
            rings_[s]->occupancy = &reg.get_gauge(
                "lfll_pipeline_ring_occupancy", "shard=\"" + std::to_string(s) + "\"");
        }
        executors_.reserve(shards);
        for (std::size_t s = 0; s < shards; ++s) {
            executors_.emplace_back([this, s] { executor_loop(s); });
        }
    }

    /// Stops and joins the executors after draining every ring. All
    /// submitted requests complete; the caller must not submit
    /// concurrently with destruction (clients first, pipeline second).
    ~request_pipeline() {
        stop_.store(true, std::memory_order_release);
        for (auto& rg : rings_) {
            rg->pushed.fetch_add(1, std::memory_order_seq_cst);
            rg->pushed.notify_one();
        }
        for (auto& t : executors_) t.join();
    }

    request_pipeline(const request_pipeline&) = delete;
    request_pipeline& operator=(const request_pipeline&) = delete;

    /// Async submit: routes by shard, parks the request, returns. Spins
    /// only while the shard's ring is full (backpressure). `r` must be
    /// idle or completed (not in flight).
    ///
    /// `wake = false` skips the executor notify: the caller PROMISES to
    /// complete(r) promptly (the inline-helping drain then serves the
    /// request without ever waking an executor — the submit-then-
    /// complete window pattern). A no-wake request whose owner merely
    /// wait()s can strand until some other event wakes a drainer.
    void submit(request& r, batch_op_kind kind, const key_type& key,
                mapped_type value = mapped_type{}, bool wake = true) {
        assert(r.state_.load(std::memory_order_relaxed) != request::kPending);
        r.kind_ = kind;
        r.key_ = key;
        r.value_ = std::move(value);
        r.result_ = {};
        const std::size_t shard = store_->shard_of(key);
        r.shard_ = static_cast<std::uint32_t>(shard);
        r.state_.store(request::kPending, std::memory_order_relaxed);
        ring& rg = *rings_[shard];
        while (!rg.try_push(&r)) {
            // Ring full: the executor is behind. Yield rather than spin
            // hard — on a loaded box the executor needs the cycles.
            std::this_thread::yield();
        }
        // Eventcount publish: only pay the notify when the executor
        // actually parked. seq_cst pairs with the executor's idle store /
        // re-check (no lost wakeup; see executor_loop).
        rg.pushed.fetch_add(1, std::memory_order_seq_cst);
        if (wake && rg.idle.load(std::memory_order_seq_cst)) rg.pushed.notify_one();
    }

    /// Blocks until `r` is served, HELPING if possible: while the
    /// request is pending this thread competes for its shard's drain
    /// flag and serves batches inline (its own request plus whatever
    /// other clients parked in the ring). Falls back to r.wait() when a
    /// concurrent drainer holds the flag long enough — that drainer or
    /// the shard executor is then responsible for progress. Prefer this
    /// over r.wait(): on a box with fewer cores than threads it turns
    /// the executor handoff (two context switches) into a plain
    /// function call on the caller's own timeslice.
    void complete(request& r) {
        for (int spin = 0; spin < 32; ++spin) {
            if (r.ready()) return;
        }
        ring& rg = *rings_[r.shard_];
        drain_scratch sc;
        int lost = 0;
        while (!r.ready()) {
            if (rg.draining.exchange(true, std::memory_order_acquire)) {
                // Another thread is mid-drain; it may be serving r right
                // now. Yield it the core a few times, then hand the job
                // to the executor backstop and futex-wait on our own
                // slot. The explicit wake matters: the concurrent
                // drainer may release the flag with r still queued, and
                // r could have been submitted with wake=false — without
                // this nudge nobody would be on the hook for it.
                if (++lost >= 8) {
                    m_complete_sleeps_->add(1);
                    rg.pushed.fetch_add(1, std::memory_order_seq_cst);
                    rg.pushed.notify_one();
                    r.wait();
                    return;
                }
                std::this_thread::yield();
                continue;
            }
            m_inline_drains_->add(1);
            while (!r.ready() &&
                   drain_one_batch(r.shard_, rg, sc)) {
            }
            rg.draining.store(false, std::memory_order_release);
        }
    }

    /// Blocking conveniences: one stack slot, submit + complete.
    std::optional<mapped_type> get(const key_type& key) {
        request r;
        submit(r, batch_op_kind::get, key);
        complete(r);
        return r.result().value;
    }
    bool insert(const key_type& key, mapped_type value) {
        request r;
        submit(r, batch_op_kind::insert, key, std::move(value));
        complete(r);
        return r.result().ok;
    }
    bool erase(const key_type& key) {
        request r;
        submit(r, batch_op_kind::erase, key);
        complete(r);
        return r.result().ok;
    }

    std::size_t shard_count() const noexcept { return rings_.size(); }
    std::size_t batch_max() const noexcept { return batch_max_; }

    /// Lifetime drain stats (also exported as lfll_pipeline_* metrics).
    std::uint64_t batches_drained() const noexcept {
        return batches_.load(std::memory_order_relaxed);
    }
    std::uint64_t requests_completed() const noexcept {
        return requests_.load(std::memory_order_relaxed);
    }

private:
    /// Bounded MPSC ring of request pointers: Vyukov sequence slots on
    /// the producer side, a plain (consumer-private) head on the drain
    /// side. Plus the eventcount the executor sleeps on.
    struct alignas(cacheline_size) ring {
        struct cell {
            std::atomic<std::size_t> seq;
            request* req;
        };

        explicit ring(std::size_t capacity)
            : cells(new cell[capacity]), mask(capacity - 1) {
            for (std::size_t i = 0; i < capacity; ++i) {
                cells[i].seq.store(i, std::memory_order_relaxed);
                cells[i].req = nullptr;
            }
        }

        bool try_push(request* r) noexcept {
            std::size_t pos = tail.load(std::memory_order_relaxed);
            for (;;) {
                cell& c = cells[pos & mask];
                const std::size_t seq = c.seq.load(std::memory_order_acquire);
                const auto dif = static_cast<std::intptr_t>(seq) -
                                 static_cast<std::intptr_t>(pos);
                if (dif == 0) {
                    if (tail.compare_exchange_weak(pos, pos + 1,
                                                   std::memory_order_relaxed)) {
                        c.req = r;
                        c.seq.store(pos + 1, std::memory_order_release);
                        return true;
                    }
                } else if (dif < 0) {
                    return false;  // full
                } else {
                    pos = tail.load(std::memory_order_relaxed);
                }
            }
        }

        /// Caller must hold `draining` — the flag's acquire/release pair
        /// hands `head` from one drainer to the next.
        request* try_pop() noexcept {
            const std::size_t h = head.load(std::memory_order_relaxed);
            cell& c = cells[h & mask];
            if (c.seq.load(std::memory_order_acquire) != h + 1) return nullptr;
            request* r = c.req;
            c.seq.store(h + mask + 1, std::memory_order_release);
            head.store(h + 1, std::memory_order_relaxed);
            return r;
        }

        std::size_t size_approx() const noexcept {
            const std::size_t t = tail.load(std::memory_order_relaxed);
            const std::size_t h = head.load(std::memory_order_relaxed);
            return t >= h ? t - h : 0;
        }

        std::unique_ptr<cell[]> cells;
        std::size_t mask;
        alignas(cacheline_size) std::atomic<std::size_t> tail{0};
        alignas(cacheline_size) std::atomic<std::size_t> head{0};
        /// Consumer-role lock: the executor and helping clients take
        /// turns; whoever holds it owns try_pop until release.
        std::atomic<bool> draining{false};
        alignas(cacheline_size) std::atomic<std::uint64_t> pushed{0};
        std::atomic<bool> idle{false};
        telemetry::gauge* occupancy = nullptr;
    };

    /// Per-drainer scratch (batch staging buffers); executors keep one
    /// for their lifetime, helpers one per complete() call.
    struct drain_scratch {
        std::vector<request*> reqs;
        std::vector<batch_op<key_type, mapped_type>> ops;
        std::vector<batch_result<mapped_type>> results;
    };

    /// Pops and serves ONE batch (up to batch_max_). Caller must hold
    /// rg.draining. Returns false when the ring was empty.
    bool drain_one_batch(std::size_t si, ring& rg, drain_scratch& sc) {
        sc.reqs.clear();
        request* r = nullptr;
        while (sc.reqs.size() < batch_max_ && (r = rg.try_pop()) != nullptr) {
            sc.reqs.push_back(r);
        }
        if (sc.reqs.empty()) return false;
        // The drain claim window: requests are popped but their ops
        // not yet applied — the schedule explorer preempts here to
        // race drains against resizes/erases.
        testing_hooks::chaos_point(sched::step_kind::batch_drain);
        const std::size_t n = sc.reqs.size();
        m_batch_hist_->record(n);
        m_batches_->add(1);
        m_requests_->add(n);
        batches_.fetch_add(1, std::memory_order_relaxed);
        requests_.fetch_add(n, std::memory_order_relaxed);
        if (rg.occupancy != nullptr) {
            rg.occupancy->set(static_cast<std::int64_t>(rg.size_approx()));
        }
        telemetry::prof::note_shard(static_cast<std::int64_t>(si));
        sc.ops.clear();
        for (request* q : sc.reqs) sc.ops.push_back({q->kind_, q->key_, q->value_});
        if (sc.results.size() < n) sc.results.resize(batch_max_);
        store_->shard_at(si).apply_batch(sc.ops.data(), n, sc.results.data());
        // Completion publish: results move into the caller-owned
        // slots, then the state flips visible. seq_cst, not release:
        // notify_one skips the wake when its (seq_cst) waiter-count load
        // reads zero, and a release store may pass that load, so a
        // waiter that just registered could read kPending and sleep on a
        // slot that is already done.
        testing_hooks::chaos_point(sched::step_kind::batch_drain);
        for (std::size_t i = 0; i < n; ++i) {
            sc.reqs[i]->result_ = std::move(sc.results[i]);
            sc.results[i] = {};
            sc.reqs[i]->state_.store(request::kDone, std::memory_order_seq_cst);
            sc.reqs[i]->state_.notify_one();
        }
        return true;
    }

    void executor_loop(std::size_t si) {
        ring& rg = *rings_[si];
        drain_scratch sc;
        sc.reqs.reserve(batch_max_);
        sc.ops.reserve(batch_max_);
        sc.results.resize(batch_max_);
        for (;;) {
            bool served = false;
            if (!rg.draining.exchange(true, std::memory_order_acquire)) {
                // Under-full batch: let laggards coalesce (bounded by the
                // knob) before the first pop — items stay in the ring, so
                // a helping client is never blocked on requests we hold.
                if (batch_wait_us_ > 0 && rg.size_approx() < batch_max_ &&
                    rg.size_approx() > 0 &&
                    !stop_.load(std::memory_order_acquire)) {
                    const auto deadline = std::chrono::steady_clock::now() +
                                          std::chrono::microseconds(batch_wait_us_);
                    while (rg.size_approx() < batch_max_ &&
                           std::chrono::steady_clock::now() < deadline) {
                        std::this_thread::yield();
                    }
                }
                while (drain_one_batch(si, rg, sc)) served = true;
                rg.draining.store(false, std::memory_order_release);
            }
            if (served) continue;
            if (stop_.load(std::memory_order_acquire) && rg.size_approx() == 0) {
                return;  // drained (clients are gone before ~request_pipeline)
            }
            // Eventcount park: publish idle BEFORE the empty re-check; a
            // producer that misses the flag has already bumped `pushed`,
            // so wait(seen) returns immediately. Never sleep while the
            // ring holds requests (a helper may release the flag without
            // emptying it — the backstop guarantee lives here).
            const std::uint64_t seen = rg.pushed.load(std::memory_order_seq_cst);
            rg.idle.store(true, std::memory_order_seq_cst);
            if (rg.size_approx() == 0 && !stop_.load(std::memory_order_acquire)) {
                m_drain_waits_->add(1);
                rg.pushed.wait(seen, std::memory_order_seq_cst);
            } else {
                std::this_thread::yield();  // flag contention or stop drain
            }
            rg.idle.store(false, std::memory_order_relaxed);
        }
    }

    Store* store_;
    std::size_t batch_max_;
    std::uint32_t batch_wait_us_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> requests_{0};
    telemetry::histogram* m_batch_hist_ = nullptr;
    telemetry::counter* m_batches_ = nullptr;
    telemetry::counter* m_requests_ = nullptr;
    telemetry::counter* m_drain_waits_ = nullptr;
    telemetry::counter* m_inline_drains_ = nullptr;
    telemetry::counter* m_complete_sleeps_ = nullptr;
    std::vector<std::unique_ptr<ring>> rings_;
    std::vector<std::thread> executors_;
};

}  // namespace lfll::harness
