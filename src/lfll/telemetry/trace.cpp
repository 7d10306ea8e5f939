#include "lfll/telemetry/trace.hpp"

#include <cstdio>

namespace lfll::telemetry {

const char* trace_op_name(trace_op op) noexcept {
    switch (op) {
        case trace_op::insert: return "insert";
        case trace_op::erase: return "erase";
        case trace_op::find: return "find";
        case trace_op::traverse: return "traverse";
        case trace_op::enqueue: return "enqueue";
        case trace_op::dequeue: return "dequeue";
        case trace_op::push: return "push";
        case trace_op::pop: return "pop";
        case trace_op::drain: return "drain";
        case trace_op::scan: return "scan";
        case trace_op::other: return "other";
    }
    return "unknown";
}

}  // namespace lfll::telemetry

#if defined(LFLL_TRACE)

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "lfll/telemetry/op_counters.hpp"

namespace lfll::telemetry {
namespace {

/// Events each thread's ring holds before it wraps.
constexpr std::size_t kRingCapacity = 16384;

struct trace_ring {
    explicit trace_ring(int tid_)
        : tid(tid_), events(kRingCapacity) {}

    const int tid;
    std::vector<trace_event> events;
    /// Monotone write index; slot = head % capacity. Release-published so
    /// a (quiescent) reader sees completed slots.
    std::atomic<std::uint64_t> head{0};

    void emit(const trace_event& e) noexcept {
        const std::uint64_t h = head.load(std::memory_order_relaxed);
        events[h % events.size()] = e;
        head.store(h + 1, std::memory_order_release);
    }
};

struct ring_registry {
    std::mutex mu;
    // Rings outlive their threads so a post-mortem export still sees
    // every thread's window; owned here, freed at process exit.
    std::vector<std::unique_ptr<trace_ring>> rings;

    static ring_registry& get() {
        static ring_registry r;
        return r;
    }

    trace_ring* make_ring() {
        std::lock_guard lk(mu);
        rings.push_back(std::make_unique<trace_ring>(static_cast<int>(rings.size())));
        return rings.back().get();
    }
};

trace_ring& tls_ring() {
    thread_local trace_ring* ring = ring_registry::get().make_ring();
    return *ring;
}

std::chrono::steady_clock::time_point trace_epoch() {
    static const auto t0 = std::chrono::steady_clock::now();
    return t0;
}

}  // namespace

namespace trace_detail {

std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - trace_epoch())
            .count());
}

std::uint64_t retry_cells() noexcept {
    const auto& c = instrument::tls();
    return c.insert_retries.load() + c.delete_retries.load() +
           c.saferead_retries.load();
}

trace_phase& tls_phase() noexcept {
    thread_local trace_phase phase = trace_phase::mutator;
    return phase;
}

void emit(trace_op op, std::uint64_t key_hash, std::uint64_t ts_ns,
          std::uint32_t dur_ns, std::uint8_t retries) noexcept {
    trace_event e{};
    e.ts_ns = ts_ns;
    e.key_hash = key_hash;
    e.dur_ns = dur_ns;
    e.op = static_cast<std::uint16_t>(op);
    e.phase = static_cast<std::uint8_t>(tls_phase());
    e.retries = retries;
    tls_ring().emit(e);
}

}  // namespace trace_detail

std::size_t trace_event_count() {
    auto& r = ring_registry::get();
    std::lock_guard lk(r.mu);
    std::size_t n = 0;
    for (const auto& ring : r.rings) {
        const std::uint64_t h = ring->head.load(std::memory_order_acquire);
        n += h < ring->events.size() ? static_cast<std::size_t>(h)
                                     : ring->events.size();
    }
    return n;
}

void trace_reset() {
    auto& r = ring_registry::get();
    std::lock_guard lk(r.mu);
    for (auto& ring : r.rings) ring->head.store(0, std::memory_order_release);
}

std::string chrome_trace_json() {
    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    char buf[256];
    bool first = true;
    auto& r = ring_registry::get();
    std::lock_guard lk(r.mu);
    for (const auto& ring : r.rings) {
        const std::uint64_t head = ring->head.load(std::memory_order_acquire);
        const std::uint64_t cap = ring->events.size();
        const std::uint64_t n = head < cap ? head : cap;
        const std::uint64_t start = head - n;  // oldest retained event
        for (std::uint64_t i = 0; i < n; ++i) {
            const trace_event& e = ring->events[(start + i) % cap];
            // ts/dur are microseconds in the trace_event format.
            std::snprintf(
                buf, sizeof buf,
                "%s{\"name\":\"%s\",\"cat\":\"lfll\",\"ph\":\"X\",\"pid\":0,"
                "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                "\"key_hash\":%llu,\"retries\":%u,\"phase\":\"%s\"}}",
                first ? "" : ",",
                trace_op_name(static_cast<trace_op>(e.op)), ring->tid,
                static_cast<double>(e.ts_ns) / 1000.0,
                static_cast<double>(e.dur_ns) / 1000.0,
                static_cast<unsigned long long>(e.key_hash),
                static_cast<unsigned>(e.retries),
                e.phase == static_cast<std::uint8_t>(trace_phase::reclaim)
                    ? "reclaim"
                    : "mutator");
            out += buf;
            first = false;
        }
    }
    out += "]}";
    return out;
}

}  // namespace lfll::telemetry

#else  // !LFLL_TRACE

namespace lfll::telemetry {

std::size_t trace_event_count() { return 0; }
void trace_reset() {}
std::string chrome_trace_json() { return "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}"; }

}  // namespace lfll::telemetry

#endif  // LFLL_TRACE

namespace lfll::telemetry {

bool write_chrome_trace(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string json = chrome_trace_json();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

}  // namespace lfll::telemetry
