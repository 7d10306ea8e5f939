// In-memory span tracer for the traced run, and the thin wrapper that
// times a dictionary's public calls from outside the library.
//
// A span is (kind, start, end, parent). The client opens a `request`
// root span around each call it makes into the store; traced_map opens a
// child span around every find/insert/erase/range_query/apply_batch that
// reaches a shard, whether the caller is sharded_kv, request_pipeline or
// the client itself. A span opened with no span open on its thread (an
// executor draining a pipeline ring) is a root of its own.
//
// When a root closes, each span's self time is its duration minus the
// part of its interval that its direct children cover; per-kind counts,
// durations and self times are folded into the thread's aggregates, and
// the first kKeep spans are kept for the Chrome-trace file written at
// the end. Spans never leave memory during the timed window.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "hdr.hpp"
#include "lfll/dict/batch.hpp"

namespace perfbench::trace {

enum kind : std::uint16_t {
    req_get,
    req_insert,
    req_erase,
    req_range,
    req_window,
    pipe_submit,
    pipe_complete,
    so_find,
    so_insert,
    so_erase,
    so_batch,
    sl_find,
    sl_insert,
    sl_erase,
    sl_range,
    sl_batch,
    kind_count
};

inline constexpr const char* kind_name[kind_count] = {
    "request.get",
    "request.insert",
    "request.erase",
    "request.range",
    "request.window",
    "pipeline.submit",
    "pipeline.complete",
    "split_ordered_map.find",
    "split_ordered_map.insert",
    "split_ordered_map.erase",
    "split_ordered_map.apply_batch",
    "sorted_list_map.find",
    "sorted_list_map.insert",
    "sorted_list_map.erase",
    "sorted_list_map.range_query",
    "sorted_list_map.apply_batch",
};

inline std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct span_rec {
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    std::uint64_t arg = 0;  ///< batch size or range result size
    std::uint32_t parent = 0;
    std::uint16_t kind = 0;
};

/// A retained span, tagged with its request and thread for the trace file.
struct kept_span {
    span_rec s;
    std::uint64_t request = 0;
    std::uint32_t thread = 0;
};

struct kind_stats {
    std::uint64_t count = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t arg = 0;
    std::unique_ptr<hdr_hist> dur;  ///< allocated on first use

    void merge(const kind_stats& o) {
        count += o.count;
        dur_ns += o.dur_ns;
        self_ns += o.self_ns;
        arg += o.arg;
        if (o.dur) {
            if (!dur) dur = std::make_unique<hdr_hist>();
            dur->merge(*o.dur);
        }
    }
};

/// Totals over every thread's finished requests.
struct summary {
    kind_stats kinds[kind_count];
    std::uint64_t roots = 0;
    std::uint64_t root_ns = 0;
    std::uint64_t self_sum_ns = 0;  ///< sum of every span's self time
    std::vector<kept_span> kept;
};

/// One thread's span buffer and aggregates. Only its owner touches it
/// while tracing; the main thread reads it after joining every thread.
class thread_tracer {
public:
    static constexpr std::size_t kKeep = 5000;

    explicit thread_tracer(std::uint32_t id) : id_(id) {}

    std::uint32_t open(std::uint16_t k) {
        const auto idx = static_cast<std::uint32_t>(cur_.size());
        span_rec s;
        s.kind = k;
        s.parent = stack_.empty() ? idx : stack_.back();
        cur_.push_back(s);
        stack_.push_back(idx);
        cur_[idx].t0 = now_ns();
        return idx;
    }

    void close(std::uint32_t idx, std::uint64_t arg) {
        const std::uint64_t t = now_ns();
        cur_[idx].t1 = t;
        cur_[idx].arg = arg;
        stack_.pop_back();
        if (stack_.empty()) finish();
    }

    void fold_into(summary& out) const {
        for (int k = 0; k < kind_count; ++k) out.kinds[k].merge(kinds_[k]);
        out.roots += roots_;
        out.root_ns += root_ns_;
        out.self_sum_ns += self_sum_ns_;
        out.kept.insert(out.kept.end(), kept_.begin(), kept_.end());
    }

private:
    void finish() {
        const std::size_t n = cur_.size();
        covered_.assign(n, 0);
        cover_end_.assign(n, 0);
        // Children are recorded in start order, so one sweep per parent
        // merges overlapping children and clips them to the parent.
        for (std::size_t i = 1; i < n; ++i) {
            const span_rec& c = cur_[i];
            const span_rec& p = cur_[c.parent];
            const std::uint64_t lo = std::max({c.t0, p.t0, cover_end_[c.parent]});
            const std::uint64_t hi = std::min(c.t1, p.t1);
            if (hi > lo) covered_[c.parent] += hi - lo;
            cover_end_[c.parent] = std::max(cover_end_[c.parent], hi);
        }
        const std::uint64_t request = (static_cast<std::uint64_t>(id_) << 40) | seq_++;
        for (std::size_t i = 0; i < n; ++i) {
            const span_rec& s = cur_[i];
            const std::uint64_t dur = s.t1 - s.t0;
            const std::uint64_t self = dur - std::min(dur, covered_[i]);
            kind_stats& ks = kinds_[s.kind];
            ++ks.count;
            ks.dur_ns += dur;
            ks.self_ns += self;
            ks.arg += s.arg;
            if (!ks.dur) ks.dur = std::make_unique<hdr_hist>();
            ks.dur->record(dur);
            self_sum_ns_ += self;
            if (kept_.size() < kKeep) kept_.push_back({s, request, id_});
        }
        ++roots_;
        root_ns_ += cur_[0].t1 - cur_[0].t0;
        cur_.clear();
    }

    std::uint32_t id_;
    std::uint64_t seq_ = 0;
    std::vector<span_rec> cur_;
    std::vector<std::uint32_t> stack_;
    std::vector<std::uint64_t> covered_;
    std::vector<std::uint64_t> cover_end_;
    kind_stats kinds_[kind_count];
    std::uint64_t roots_ = 0;
    std::uint64_t root_ns_ = 0;
    std::uint64_t self_sum_ns_ = 0;
    std::vector<kept_span> kept_;
};

namespace detail {
inline std::atomic<bool> enabled{false};
inline std::mutex registry_mu;
inline std::vector<std::unique_ptr<thread_tracer>> registry;  // guarded by registry_mu
}  // namespace detail

inline bool enabled() noexcept { return detail::enabled.load(std::memory_order_relaxed); }

/// Flip only while no traced thread is running.
inline void set_enabled(bool on) noexcept {
    detail::enabled.store(on, std::memory_order_relaxed);
}

inline thread_tracer& local() {
    thread_local thread_tracer* t = nullptr;
    if (t == nullptr) {
        std::lock_guard<std::mutex> g(detail::registry_mu);
        detail::registry.push_back(std::make_unique<thread_tracer>(
            static_cast<std::uint32_t>(detail::registry.size())));
        t = detail::registry.back().get();
    }
    return *t;
}

/// Sums every thread's aggregates. Call after joining all traced threads.
inline summary collect() {
    summary out;
    std::lock_guard<std::mutex> g(detail::registry_mu);
    for (const auto& t : detail::registry) t->fold_into(out);
    return out;
}

/// RAII span; a no-op (one relaxed load) while tracing is off.
class span {
public:
    explicit span(std::uint16_t k) {
        if (enabled()) {
            t_ = &local();
            idx_ = t_->open(k);
        }
    }
    ~span() {
        if (t_ != nullptr) t_->close(idx_, arg_);
    }
    span(const span&) = delete;
    span& operator=(const span&) = delete;

    void set_arg(std::uint64_t a) noexcept { arg_ = a; }

private:
    thread_tracer* t_ = nullptr;
    std::uint32_t idx_ = 0;
    std::uint64_t arg_ = 0;
};

struct so_kinds {
    static constexpr std::uint16_t find = so_find, insert = so_insert, erase = so_erase,
                                   batch = so_batch;
};
struct sl_kinds {
    static constexpr std::uint16_t find = sl_find, insert = sl_insert, erase = sl_erase,
                                   batch = sl_batch, range = sl_range;
};

/// A dictionary whose public calls are timed as spans. Stands in for the
/// shard map type of sharded_kv (and so of request_pipeline), or for a
/// bare map; the wrapped map is reachable through inner() for audits.
template <typename Map, typename Kinds>
class traced_map {
public:
    using key_type = typename Map::key_type;
    using mapped_type = typename Map::mapped_type;

    template <typename... Args>
    explicit traced_map(Args&&... args) : m_(std::forward<Args>(args)...) {}

    std::optional<mapped_type> find(const key_type& k) {
        span s(Kinds::find);
        return m_.find(k);
    }
    bool insert(const key_type& k, mapped_type v) {
        span s(Kinds::insert);
        return m_.insert(k, std::move(v));
    }
    bool erase(const key_type& k) {
        span s(Kinds::erase);
        return m_.erase(k);
    }
    void apply_batch(const lfll::batch_op<key_type, mapped_type>* ops, std::size_t n,
                     lfll::batch_result<mapped_type>* out) {
        span s(Kinds::batch);
        s.set_arg(n);
        m_.apply_batch(ops, n, out);
    }
    std::vector<std::pair<key_type, mapped_type>> range_query(const key_type& lo,
                                                              const key_type& hi) {
        span s(Kinds::range);
        auto r = m_.range_query(lo, hi);
        s.set_arg(r.size());
        return r;
    }
    std::size_t size_slow() const { return m_.size_slow(); }

    Map& inner() noexcept { return m_; }

private:
    Map m_;
};

}  // namespace perfbench::trace
