// The event vocabulary — what a sampled operation is called (its op
// kind) and where its time went (its phases) — and the Chrome trace
// export of the profiler's event ring.
//
// There is one event record (prof::slow_op_record, profiler.hpp) and one
// store for it (the seqlock slow_op_ring). chrome_trace_json() /
// write_chrome_trace() render the records the ring currently holds as
// Chrome trace_event "ph":"X" complete events, which load directly in
// Perfetto (ui.perfetto.dev) or chrome://tracing. A full trace of a run
// is LFLL_PROFILE_RATE=1 LFLL_SLOW_OP_NS=0 in the normal build: every op
// is sampled and every sample is captured; the ring keeps the latest
// slow_op_ring::capacity of them. Export while writers run is safe: the
// seqlock drops a record that is mid-publish, never tears one.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace lfll::telemetry {

/// Hash a key for event args; 0 for types std::hash cannot digest.
template <typename K>
std::uint64_t key_hash(const K& k) noexcept {
    if constexpr (requires { std::hash<K>{}(k); }) {
        return static_cast<std::uint64_t>(std::hash<K>{}(k));
    } else {
        return 0;
    }
}

/// Operation kinds an op_scope names (the Chrome event name).
enum class trace_op : std::uint16_t {
    insert = 0,
    erase,
    find,
    enqueue,
    dequeue,
    other,
};

const char* trace_op_name(trace_op op) noexcept;

namespace prof {

/// Latency attribution buckets. `traverse` is the default (an op's time
/// is traversal unless a nested scope says otherwise); `bucket_split` is
/// the split-ordered map's lazy-split attribution (a split is traversal
/// + insert work done on behalf of a bystander op — worth seeing apart).
enum class phase : std::uint8_t {
    traverse = 0,  ///< walking cells/aux nodes (the default phase)
    cas_retry,     ///< re-validating + retrying after a failed TryInsert/TryDelete
    safe_read,     ///< the fully counted SafeRead repositioning slow path
    alloc,         ///< node_pool Alloc (magazine hit or miss)
    reclaim,       ///< retire/drain/cascade work
    backoff,       ///< waiting in the exponential backoff
    bucket_split,  ///< split-ordered lazy bucket initialization
};
inline constexpr int phase_count = 7;

constexpr const char* phase_name(phase p) noexcept {
    switch (p) {
        case phase::traverse:     return "traverse";
        case phase::cas_retry:    return "cas_retry";
        case phase::safe_read:    return "safe_read";
        case phase::alloc:        return "alloc";
        case phase::reclaim:      return "reclaim";
        case phase::backoff:      return "backoff";
        case phase::bucket_split: return "bucket_split";
    }
    return "?";
}

}  // namespace prof

/// The event ring's records in Chrome trace_event JSON, oldest first.
/// Each event's args carry the key hash, CAS failures, shard and the
/// per-phase ns (`<phase>_ns`). Always a valid document.
std::string chrome_trace_json();

/// Writes chrome_trace_json() to `path`. Returns false on I/O error.
bool write_chrome_trace(const std::string& path);

}  // namespace lfll::telemetry
