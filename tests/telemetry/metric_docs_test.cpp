// Drift guard between the metrics registry and docs/telemetry.md: every
// metric a subsystem registers must appear in one of the doc's metric
// tables, and every metric a table lists must be registered by the code.
//
// The test first exercises every subsystem that registers metrics — the
// pools and reclamation domains of all three policies, the maps, the KV
// service, the request pipeline, the timed-run harness and the profiler —
// and then compares registry::snapshot() names with the doc's tables.
// The doc path comes from the build (LFLL_TELEMETRY_DOC).
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <regex>
#include <set>
#include <string>

#include "lfll/dict/sharded_kv.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/harness/kv_service.hpp"
#include "lfll/harness/pipeline.hpp"
#include "lfll/harness/runner.hpp"
#include "lfll/reclaim/epoch_policy.hpp"
#include "lfll/reclaim/hazard_policy.hpp"
#include "lfll/telemetry/metrics.hpp"
#include "lfll/telemetry/profiler.hpp"

#ifndef LFLL_TELEMETRY_DOC
#error "LFLL_TELEMETRY_DOC must name docs/telemetry.md"
#endif

namespace {

using namespace lfll;

/// Churns a map under `Policy` to quiescence, so its pool samples every
/// gauge and its domain retires, drains and scans.
template <typename Policy>
void exercise_policy() {
    sorted_list_map<int, int, std::less<int>, Policy> m(64);
    for (int i = 0; i < 256; ++i) m.insert(i, i);
    for (int i = 0; i < 256; ++i) m.erase(i);
    m.list().pool().drain_retired();
    m.list().pool().flush_magazines();

    split_ordered_config cfg;
    cfg.initial_buckets = 2;
    cfg.capacity_hint = 16;
    cfg.max_load = 1.0;
    cfg.resize_check_period = 1;
    split_ordered_map<int, int, std::hash<int>, std::less<int>, Policy> h(cfg);
    for (int i = 0; i < 256; ++i) h.insert(i, i);
    for (int i = 0; i < 256; ++i) h.erase(i);
}

void exercise_harness() {
    split_ordered_config cfg;
    cfg.initial_buckets = 4;
    cfg.capacity_hint = 64;
    auto store = make_sharded_kv<int, int>(2, cfg);
    harness::kv_service_config sc;
    sc.clients = 1;
    sc.millis = 30;
    sc.key_range = 256;
    (void)harness::run_kv_service(store, sc);

    using sorted_store = sharded_kv<sorted_list_map<int, int>>;
    sorted_store sorted(2, [](std::size_t) { return std::make_unique<sorted_list_map<int, int>>(64); });
    harness::request_pipeline<sorted_store> pipe(sorted);
    for (int i = 0; i < 64; ++i) pipe.insert(i, i);
    for (int i = 0; i < 64; ++i) (void)pipe.get(i);

    (void)harness::run_timed(1, 5, [](int, std::atomic<bool>& stop) {
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_acquire)) ++ops;
        return ops;
    });
}

void exercise_profiler() {
    namespace prof = telemetry::prof;
    prof::set_enabled_override(1);
    prof::set_slow_ns_override(0);  // the forced sample is also a slow capture
    prof::testing::force_sample_next();
    {
        prof::op_scope op(telemetry::trace_op::insert, 1);
        prof::phase_scope ph(prof::phase::alloc);
    }
    prof::publish();
    prof::set_slow_ns_override(-1);
    prof::set_enabled_override(-1);
}

std::set<std::string> registered_names() {
    std::set<std::string> names;
    for (const telemetry::metric_row& r : telemetry::registry::global().snapshot()) {
        names.insert(r.name);
    }
    return names;
}

/// Metric names in the first column of every markdown table in the doc.
std::set<std::string> documented_names(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    static const std::regex metric("`(lfll_[a-z0-9_]+)`");
    std::set<std::string> names;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("|", 0) != 0) continue;
        const std::size_t end = line.find('|', 1);
        const std::string first = line.substr(1, end == std::string::npos ? end : end - 1);
        for (std::sregex_iterator it(first.begin(), first.end(), metric), stop; it != stop; ++it) {
            names.insert((*it)[1].str());
        }
    }
    return names;
}

TEST(MetricDocs, RegistryAndTelemetryDocAgree) {
    exercise_policy<valois_refcount>();
    exercise_policy<hazard_policy>();
    exercise_policy<epoch_policy>();
    exercise_harness();
    exercise_profiler();

    const std::set<std::string> registered = registered_names();
    const std::set<std::string> documented = documented_names(LFLL_TELEMETRY_DOC);
    ASSERT_FALSE(documented.empty());
    for (const std::string& name : registered) {
        EXPECT_TRUE(documented.count(name) != 0)
            << name << " is registered but missing from the tables of " << LFLL_TELEMETRY_DOC;
    }
    for (const std::string& name : documented) {
        EXPECT_TRUE(registered.count(name) != 0)
            << name << " is documented but no exercised subsystem registers it";
    }
}

}  // namespace
