// Flight recorder: per-thread fixed-size binary ring buffers of compact
// operation events, compiled in only when LFLL_TRACE is defined
// (cmake -DLFLL_TRACE=ON). With the flag off every annotation compiles
// to nothing — the span macro expands to `do {} while (0)` and its
// arguments are never evaluated.
//
// Each event is 32 bytes: timestamp, duration, op kind, retry count
// (delta of the op-counter retry cells across the span), a key hash, and
// the policy phase (mutator vs. inside a reclamation drain/scan). Rings
// are single-writer (the owning thread); when a ring fills it wraps —
// a flight recorder keeps the *latest* window, which is the one you want
// when something goes wrong at hour three of a soak.
//
// Export: chrome_trace_json() / write_chrome_trace() emit the Chrome
// trace_event format ("traceEvents" array of "ph":"X" complete events),
// which loads directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Export while writers are still running is a best-effort racy read;
// quiesce first for an exact trace (docs/telemetry.md).
//
// Ring capacity: 16384 events per thread.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace lfll::telemetry {

/// Hash a key for trace args; 0 for types std::hash cannot digest.
/// (Only evaluated when tracing is compiled in — the span macro swallows
/// its arguments otherwise.)
template <typename K>
std::uint64_t key_hash(const K& k) noexcept {
    if constexpr (requires { std::hash<K>{}(k); }) {
        return static_cast<std::uint64_t>(std::hash<K>{}(k));
    } else {
        return 0;
    }
}

/// Operation kinds the recorder distinguishes (the Chrome event name).
enum class trace_op : std::uint16_t {
    insert = 0,
    erase,
    find,
    traverse,
    enqueue,
    dequeue,
    push,
    pop,
    drain,
    scan,
    other,
};

/// Policy phase an event was recorded under.
enum class trace_phase : std::uint8_t {
    mutator = 0,  ///< ordinary operation
    reclaim = 1,  ///< inside a drain/scan/cascade
};

const char* trace_op_name(trace_op op) noexcept;

#if defined(LFLL_TRACE)

/// One recorded event (fixed 32-byte layout; single-writer per ring).
struct trace_event {
    std::uint64_t ts_ns;    ///< start, ns since the recorder epoch
    std::uint64_t key_hash; ///< operation key hash (0 when not hashable)
    std::uint32_t dur_ns;   ///< span duration, saturating
    std::uint16_t op;       ///< trace_op
    std::uint8_t phase;     ///< trace_phase
    std::uint8_t retries;   ///< retry delta across the span, saturating
    std::uint32_t pad;
};
static_assert(sizeof(trace_event) == 32);

namespace trace_detail {
void emit(trace_op op, std::uint64_t key_hash, std::uint64_t ts_ns,
          std::uint32_t dur_ns, std::uint8_t retries) noexcept;
std::uint64_t now_ns() noexcept;
std::uint64_t retry_cells() noexcept;
trace_phase& tls_phase() noexcept;
}  // namespace trace_detail

/// RAII span: records one event covering its lifetime.
class trace_span {
public:
    trace_span(trace_op op, std::uint64_t key_hash) noexcept
        : op_(op),
          key_hash_(key_hash),
          t0_(trace_detail::now_ns()),
          retries0_(trace_detail::retry_cells()) {}

    ~trace_span() {
        const std::uint64_t dur = trace_detail::now_ns() - t0_;
        const std::uint64_t r = trace_detail::retry_cells() - retries0_;
        trace_detail::emit(
            op_, key_hash_, t0_,
            dur > 0xffffffffu ? 0xffffffffu : static_cast<std::uint32_t>(dur),
            r > 0xff ? std::uint8_t{0xff} : static_cast<std::uint8_t>(r));
    }

    trace_span(const trace_span&) = delete;
    trace_span& operator=(const trace_span&) = delete;

private:
    trace_op op_;
    std::uint64_t key_hash_;
    std::uint64_t t0_;
    std::uint64_t retries0_;
};

/// RAII phase marker: events recorded inside carry the given phase.
class trace_phase_scope {
public:
    explicit trace_phase_scope(trace_phase p) noexcept
        : prev_(trace_detail::tls_phase()) {
        trace_detail::tls_phase() = p;
    }
    ~trace_phase_scope() { trace_detail::tls_phase() = prev_; }

    trace_phase_scope(const trace_phase_scope&) = delete;
    trace_phase_scope& operator=(const trace_phase_scope&) = delete;

private:
    trace_phase prev_;
};

inline constexpr bool trace_enabled = true;

#define LFLL_TRACE_SPAN(op, key_hash) \
    ::lfll::telemetry::trace_span lfll_trace_span_((op), (key_hash))
#define LFLL_TRACE_PHASE(p) ::lfll::telemetry::trace_phase_scope lfll_trace_phase_((p))

#else  // !LFLL_TRACE

inline constexpr bool trace_enabled = false;

#define LFLL_TRACE_SPAN(op, key_hash) \
    do {                              \
    } while (0)
#define LFLL_TRACE_PHASE(p) \
    do {                    \
    } while (0)

#endif  // LFLL_TRACE

/// Total events currently held across all rings (0 when tracing is off).
std::size_t trace_event_count();

/// Quiescent-only: empty every ring (tests).
void trace_reset();

/// The recorded window in Chrome trace_event JSON. Always returns a valid
/// document; with tracing compiled out it is `{"traceEvents":[]}`.
std::string chrome_trace_json();

/// Writes chrome_trace_json() to `path`. Returns false on I/O error.
bool write_chrome_trace(const std::string& path);

}  // namespace lfll::telemetry
