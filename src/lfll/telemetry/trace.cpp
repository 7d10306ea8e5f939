#include "lfll/telemetry/trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "lfll/telemetry/profiler.hpp"

namespace lfll::telemetry {

const char* trace_op_name(trace_op op) noexcept {
    switch (op) {
        case trace_op::insert: return "insert";
        case trace_op::erase: return "erase";
        case trace_op::find: return "find";
        case trace_op::enqueue: return "enqueue";
        case trace_op::dequeue: return "dequeue";
        case trace_op::other: return "other";
    }
    return "unknown";
}

std::string chrome_trace_json() {
    std::vector<prof::slow_op_record> recs;
    prof::slow_ring().collect(0, recs);
    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    char buf[192];
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const prof::slow_op_record& r = recs[i];
        // ts/dur are microseconds in the trace_event format; a record is
        // stamped at completion, so the event starts total_ns earlier.
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"cat\":\"lfll\",\"ph\":\"X\",\"pid\":0,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"key_hash\":%" PRIu64
                      ",\"cas_failures\":%" PRIu64 ",\"shard\":%lld",
                      i == 0 ? "" : ",", trace_op_name(static_cast<trace_op>(r.op)), r.tid,
                      static_cast<double>(r.ts_ns - r.total_ns) / 1000.0,
                      static_cast<double>(r.total_ns) / 1000.0, r.key, r.cas_failures,
                      static_cast<long long>(r.shard));
        out += buf;
        for (int p = 0; p < prof::phase_count; ++p) {
            std::snprintf(buf, sizeof buf, ",\"%s_ns\":%" PRIu64,
                          prof::phase_name(static_cast<prof::phase>(p)), r.phase_ns[p]);
            out += buf;
        }
        out += "}}";
    }
    out += "]}";
    return out;
}

bool write_chrome_trace(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string json = chrome_trace_json();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

}  // namespace lfll::telemetry
