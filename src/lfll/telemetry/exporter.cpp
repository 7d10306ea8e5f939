#include "lfll/telemetry/exporter.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "lfll/primitives/env.hpp"
#include "lfll/telemetry/profiler.hpp"

namespace lfll::telemetry {
namespace {

/// Metric name for the flat jsonl key: name, plus {labels} when present.
/// The label string contains literal quotes (policy="epoch"), which must
/// be escaped to keep the enclosing JSON string valid.
std::string flat_key(const metric_row& r, const char* suffix = "") {
    std::string k = r.name;
    k += suffix;
    if (!r.labels.empty()) {
        k += '{';
        for (char c : r.labels) {
            if (c == '"' || c == '\\') k += '\\';
            k += c;
        }
        k += '}';
    }
    return k;
}

void append_number(std::string& out, double v) {
    char buf[64];
    // Integral values (the common case) print without a mantissa so the
    // stream stays grep/awk-friendly.
    if (v == static_cast<double>(static_cast<long long>(v))) {
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof buf, "%.6g", v);
    }
    out += buf;
}

}  // namespace

std::string render_prometheus(const std::vector<metric_row>& rows) {
    std::string out;
    out.reserve(rows.size() * 64);
    std::string last_typed;
    char buf[128];
    for (const metric_row& r : rows) {
        if (r.name != last_typed) {
            out += "# TYPE ";
            out += r.name;
            switch (r.kind) {
                case metric_kind::counter: out += " counter\n"; break;
                case metric_kind::gauge: out += " gauge\n"; break;
                case metric_kind::histogram: out += " histogram\n"; break;
            }
            last_typed = r.name;
        }
        if (r.kind == metric_kind::histogram) {
            std::uint64_t cum = 0;
            for (std::size_t b = 0; b < r.hist_buckets.size(); ++b) {
                cum += r.hist_buckets[b];
                if (r.hist_buckets[b] == 0 && b + 1 < r.hist_buckets.size()) continue;
                out += r.name;
                out += "_bucket{";
                if (!r.labels.empty()) {
                    out += r.labels;
                    out += ',';
                }
                if (b + 1 == r.hist_buckets.size()) {
                    out += "le=\"+Inf\"";
                } else {
                    std::snprintf(buf, sizeof buf, "le=\"%" PRIu64 "\"",
                                  histogram::bucket_bound(static_cast<int>(b)));
                    out += buf;
                }
                std::snprintf(buf, sizeof buf, "} %" PRIu64 "\n", cum);
                out += buf;
            }
            out += r.name;
            out += "_sum";
            if (!r.labels.empty()) {
                out += '{';
                out += r.labels;
                out += '}';
            }
            std::snprintf(buf, sizeof buf, " %" PRIu64 "\n", r.hist_sum);
            out += buf;
            out += r.name;
            out += "_count";
            if (!r.labels.empty()) {
                out += '{';
                out += r.labels;
                out += '}';
            }
            std::snprintf(buf, sizeof buf, " %" PRIu64 "\n", r.hist_count);
            out += buf;
        } else {
            out += r.name;
            if (!r.labels.empty()) {
                out += '{';
                out += r.labels;
                out += '}';
            }
            out += ' ';
            append_number(out, r.value);
            out += '\n';
        }
    }
    return out;
}

std::string render_jsonl(const std::vector<metric_row>& rows, std::uint64_t ts_ms) {
    std::string out = "{\"ts_ms\":";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%" PRIu64, ts_ms);
    out += buf;
    out += ",\"metrics\":{";
    bool first = true;
    auto put = [&](const std::string& key, double v) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += key;
        out += "\":";
        append_number(out, v);
    };
    for (const metric_row& r : rows) {
        if (r.kind == metric_kind::histogram) {
            put(flat_key(r, "_count"), static_cast<double>(r.hist_count));
            put(flat_key(r, "_sum"), static_cast<double>(r.hist_sum));
            put(flat_key(r, "_p50"), r.quantile(0.50));
            put(flat_key(r, "_p99"), r.quantile(0.99));
        } else {
            put(flat_key(r), r.value);
        }
    }
    out += "}}\n";
    return out;
}

periodic_exporter::periodic_exporter(export_format fmt, std::string path,
                                     std::chrono::milliseconds period)
    : fmt_(fmt), path_(std::move(path)), period_(period) {
    thread_ = std::thread([this] { run(); });
}

periodic_exporter::~periodic_exporter() { stop(); }

void periodic_exporter::stop() {
    {
        std::lock_guard lk(mu_);
        if (stopped_) return;
        stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    {
        std::lock_guard lk(mu_);
        stopped_ = true;
    }
    emit_once();  // final snapshot so short runs still leave a record
}

void periodic_exporter::emit_once() {
    // Fold the profiler's hot-key sketch into rank-labelled gauges so the
    // snapshot below carries it in both formats.
    prof::publish();
    const auto rows = registry::global().snapshot();
    const auto ts_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());

    if (fmt_ == export_format::jsonl) {
        std::string line = render_jsonl(rows, ts_ms);
        // New slow-op captures ride the same stream as their own lines
        // ({"slow_op":{...}}); lfll_top skips them, lfll_prof reads them.
        prof::append_slow_ops_jsonl(line, slow_cursor_);
        if (path_ == "-") {
            std::fwrite(line.data(), 1, line.size(), stdout);
            std::fflush(stdout);
        } else if (std::FILE* f = std::fopen(path_.c_str(), "a")) {
            std::fwrite(line.data(), 1, line.size(), f);
            std::fclose(f);
        }
        return;
    }

    const std::string text = render_prometheus(rows);
    if (path_ == "-") {
        std::fwrite(text.data(), 1, text.size(), stdout);
        std::fflush(stdout);
        return;
    }
    // Whole-file rewrite via rename so a concurrent scraper never reads a
    // torn exposition.
    const std::string tmp = path_ + ".tmp";
    if (std::FILE* f = std::fopen(tmp.c_str(), "w")) {
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::rename(tmp.c_str(), path_.c_str());
    }
}

void periodic_exporter::run() {
    std::unique_lock lk(mu_);
    for (;;) {
        if (cv_.wait_for(lk, period_, [this] { return stopping_; })) return;
        lk.unlock();
        emit_once();
        lk.lock();
    }
}

std::unique_ptr<periodic_exporter> exporter_from_env() {
    const char* spec = env::raw("LFLL_TELEMETRY");
    if (spec == nullptr) return nullptr;

    export_format fmt = export_format::jsonl;
    const char* path = nullptr;
    if (std::strncmp(spec, "prom:", 5) == 0) {
        fmt = export_format::prometheus;
        path = spec + 5;
    } else if (std::strncmp(spec, "jsonl:", 6) == 0) {
        path = spec + 6;
    }
    if (path == nullptr || *path == '\0') {
        env::reject("LFLL_TELEMETRY", spec, "prom:<path> or jsonl:<path>");
        return nullptr;
    }

    const std::uint64_t ms = env::integer("LFLL_TELEMETRY_MS", 1, INT32_MAX).value_or(1000);
    return std::make_unique<periodic_exporter>(fmt, path, std::chrono::milliseconds(ms));
}

}  // namespace lfll::telemetry
