// Out-of-line profiler pieces: knob resolution, registry handle caches,
// and the exporter-facing publication surface. Everything
// schedule-sensitive (arming, the ring's claim->publish window) lives
// inline in profiler.hpp so chaos-enabled TUs compile the typed chaos
// points in; nothing here carries one.
#include "lfll/telemetry/profiler.hpp"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "lfll/primitives/env.hpp"

namespace lfll::telemetry::prof {

namespace {

std::atomic<int>& enabled_override() {
    static std::atomic<int> v{-1};
    return v;
}
std::atomic<std::int64_t>& rate_override() {
    static std::atomic<std::int64_t> v{-1};
    return v;
}
std::atomic<std::int64_t>& slow_ns_override() {
    static std::atomic<std::int64_t> v{-1};
    return v;
}

}  // namespace

bool enabled() noexcept {
    const int ov = enabled_override().load(std::memory_order_relaxed);
    if (ov >= 0) return ov != 0;
    static const bool from_env = env::flag("LFLL_PROFILE").value_or(true);
    return from_env;
}

std::uint64_t sample_rate() noexcept {
    const std::int64_t ov = rate_override().load(std::memory_order_relaxed);
    if (ov > 0) return static_cast<std::uint64_t>(ov);
    static const std::uint64_t from_env =
        env::integer("LFLL_PROFILE_RATE", 1, INT64_MAX).value_or(1024);
    return from_env;
}

std::uint64_t slow_threshold_ns() noexcept {
    const std::int64_t ov = slow_ns_override().load(std::memory_order_relaxed);
    if (ov >= 0) return static_cast<std::uint64_t>(ov);
    static const std::uint64_t from_env =
        env::integer("LFLL_SLOW_OP_NS", 0, INT64_MAX).value_or(100000);
    return from_env;
}

void set_enabled_override(int v) noexcept {
    enabled_override().store(v, std::memory_order_relaxed);
}
void set_rate_override(std::int64_t r) noexcept {
    rate_override().store(r, std::memory_order_relaxed);
}
void set_slow_ns_override(std::int64_t ns) noexcept {
    slow_ns_override().store(ns, std::memory_order_relaxed);
}
bool slow_ns_overridden() noexcept {
    return slow_ns_override().load(std::memory_order_relaxed) >= 0;
}

namespace detail {

histogram& phase_hist(phase p) {
    static const auto handles = [] {
        std::array<histogram*, phase_count> a{};
        for (int i = 0; i < phase_count; ++i) {
            a[static_cast<std::size_t>(i)] = &registry::global().get_histogram(
                "lfll_prof_phase_ns",
                std::string("phase=\"") + phase_name(static_cast<phase>(i)) + "\"");
        }
        return a;
    }();
    return *handles[static_cast<std::size_t>(p)];
}

histogram& op_hist(trace_op op) {
    constexpr std::size_t op_count = static_cast<std::size_t>(trace_op::other) + 1;
    static const auto handles = [] {
        std::array<histogram*, op_count> a{};
        for (std::size_t i = 0; i < op_count; ++i) {
            a[i] = &registry::global().get_histogram(
                "lfll_prof_op_ns",
                std::string("op=\"") + trace_op_name(static_cast<trace_op>(i)) + "\"");
        }
        return a;
    }();
    std::size_t i = static_cast<std::size_t>(op);
    if (i >= op_count) i = op_count - 1;
    return *handles[i];
}

counter& sampled_counter() {
    static counter& c = registry::global().get_counter("lfll_prof_sampled_ops_total");
    return c;
}

counter& slow_counter() {
    static counter& c = registry::global().get_counter("lfll_prof_slow_ops_total");
    return c;
}

void sample_health(std::int64_t out[4]) {
    static const std::array<gauge*, 4> g = [] {
        auto& reg = registry::global();
        return std::array<gauge*, 4>{
            &reg.get_gauge("lfll_retired_backlog", "policy=\"hazard\""),
            &reg.get_gauge("lfll_retired_backlog", "policy=\"epoch\""),
            &reg.get_gauge("lfll_free_list_depth", "policy=\"valois_refcount\""),
            &reg.get_gauge("lfll_epoch_lag", "policy=\"epoch\""),
        };
    }();
    for (int i = 0; i < 4; ++i) out[i] = g[static_cast<std::size_t>(i)]->value();
}

}  // namespace detail

void publish() {
    auto& reg = registry::global();
    const auto top = sketch().top(topk);
    for (std::size_t r = 0; r < topk; ++r) {
        const std::string label = "rank=\"" + std::to_string(r) + "\"";
        const bool have = r < top.size();
        reg.get_gauge("lfll_prof_hot_key", label)
            .set(have ? static_cast<std::int64_t>(top[r].key) : -1);
        reg.get_gauge("lfll_prof_hot_key_hits", label)
            .set(have ? static_cast<std::int64_t>(top[r].hits) : 0);
        reg.get_gauge("lfll_prof_hot_key_cas_failures", label)
            .set(have ? static_cast<std::int64_t>(top[r].cas_failures) : 0);
        reg.get_gauge("lfll_prof_hot_key_shard", label).set(have ? top[r].shard : -1);
    }
}

void append_slow_ops_jsonl(std::string& out, std::uint64_t& cursor) {
    static const char* health_names[4] = {
        "retired_backlog_hazard",
        "retired_backlog_epoch",
        "free_list_depth_refcount",
        "epoch_lag",
    };
    constexpr std::uint64_t cap = jsonl_slow_ops_per_tick;
    const std::uint64_t head = slow_ring().head();
    if (head > cursor + cap) cursor = head - cap;  // skip what the cap drops
    std::vector<slow_op_record> recs;
    cursor = slow_ring().collect(cursor, recs);
    // Writers may have landed more since the head load: keep the newest.
    if (recs.size() > cap) recs.erase(recs.begin(), recs.end() - static_cast<std::ptrdiff_t>(cap));
    char buf[192];
    for (const slow_op_record& r : recs) {
        std::snprintf(buf, sizeof buf,
                      "{\"slow_op\":{\"ts_ns\":%" PRIu64 ",\"op\":\"%s\",\"key\":%" PRIu64
                      ",\"tid\":%u,\"shard\":%lld,\"total_ns\":%" PRIu64
                      ",\"cas_failures\":%" PRIu64 ",\"phases\":{",
                      r.ts_ns, trace_op_name(static_cast<trace_op>(r.op)), r.key, r.tid,
                      static_cast<long long>(r.shard), r.total_ns, r.cas_failures);
        out += buf;
        for (int i = 0; i < phase_count; ++i) {
            std::snprintf(buf, sizeof buf, "%s\"%s\":%" PRIu64, i == 0 ? "" : ",",
                          phase_name(static_cast<phase>(i)), r.phase_ns[i]);
            out += buf;
        }
        out += "},\"health\":{";
        for (int i = 0; i < 4; ++i) {
            std::snprintf(buf, sizeof buf, "%s\"%s\":%lld", i == 0 ? "" : ",",
                          health_names[i], static_cast<long long>(r.health[i]));
            out += buf;
        }
        out += "}}}\n";
    }
}

}  // namespace lfll::telemetry::prof
