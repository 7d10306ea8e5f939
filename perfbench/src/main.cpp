// perfbench: the repository benchmark's client loop.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// Builds one of four stores from the library's real dictionaries,
// prefills it from the seed, pre-generates every client's op/key stream,
// then runs closed-loop clients that time each request from outside the
// library. Every result is checked, the store's size is checked at
// quiescence, and the last store passes the §5 reference-count audit.
// Prints one JSON object on stdout; run.py turns it into the benchmark's
// result line.
//
// --trace 0 measures the end-to-end metrics with tracing off, in rounds
// on freshly built stores.
// --trace 1 splits the time into an untraced window and a traced window
// (spans on, profiler sampling raised), reports the per-layer metrics of
// the traced window, the tracing overhead between the two, and writes
// the kept spans as a Chrome trace to --spans.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hdr.hpp"
#include "lfll/core/audit.hpp"
#include "lfll/dict/sharded_kv.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/harness/pipeline.hpp"
#include "lfll/primitives/rng.hpp"
#include "lfll/primitives/zipf.hpp"
#include "lfll/telemetry/metrics.hpp"
#include "lfll/telemetry/op_counters.hpp"
#include "lfll/telemetry/profiler.hpp"
#include "trace.hpp"

namespace {

namespace tr = perfbench::trace;
using perfbench::hdr_hist;
using K = std::uint64_t;

// ------------------------------------------------------------ workloads

enum class store_kind { split_ordered_shards, sorted_shards_pipeline, sorted_single };

struct workload {
    const char* name;
    store_kind store;
    std::uint64_t keys;     ///< key universe [0, keys); a power of two
    std::uint64_t prefill;  ///< keys present after set-up
    bool zipf;              ///< Zipf 0.99 keys, else uniform
    int get_pct, insert_pct, erase_pct;  ///< remainder: range queries
    int clients;
    std::size_t shards;
    std::size_t window;      ///< pipeline submit window; 0 = direct calls
    std::uint64_t range_span;
};

// Why each workload is here is recorded in BENCHMARK.json. Three clients
// (or one client plus two pipeline executors) busy three of the 4 CPUs
// the benchmark targets and leave one to the main thread, the kernel and
// the host's other guests: with a busy thread on every CPU, whatever else
// runs preempts a pinned client, and the latencies measure that.
// kv-read's 2^13 keys (about 1 MB of nodes) fit in a core's 2 MB L2. In
// the L3, which the host shares with other guests, how many warm keys
// stay cached, and so where the get p50 falls, follows their load.
const workload kWorkloads[] = {
    {"kv-read", store_kind::split_ordered_shards, std::uint64_t{1} << 13,
     std::uint64_t{1} << 12, true, 90, 5, 5, 3, 4, 0, 0},
    {"kv-churn", store_kind::split_ordered_shards, std::uint64_t{1} << 20,
     std::uint64_t{1} << 19, false, 20, 40, 40, 3, 4, 0, 0},
    {"ordered-pipeline", store_kind::sorted_shards_pipeline, 8192, 8192, false, 90, 5, 5, 1, 2,
     32, 0},
    {"ordered-scan", store_kind::sorted_single, 8192, 4096, false, 80, 5, 5, 3, 1, 0, 64},
};

constexpr unsigned kOpShift = 62;
constexpr K kKeyMask = (K{1} << kOpShift) - 1;
enum : unsigned { op_get = 0, op_insert = 1, op_erase = 2, op_range = 3 };
constexpr std::size_t kStreamLen = std::size_t{1} << 20;  // per client, cycled

/// Zipf ranks map to keys through this odd-multiplier bijection of the
/// key space, so hot keys are scattered rather than adjacent. It does not
/// depend on the seed: every run has the same hot keys (and so the same
/// hot shards), and seeds vary only the op sequence and the prefill.
constexpr std::uint64_t kHotKeyMultiplier = 0x9E3779B97F4A7C15ULL;

/// One client's pre-generated op/key stream.
std::vector<std::uint64_t> make_stream(const workload& w, std::uint64_t seed, int client,
                                       const lfll::zipf_generator* zipf) {
    lfll::xorshift64 rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(client) + 1);
    std::vector<std::uint64_t> s(kStreamLen);
    for (auto& e : s) {
        const auto pick = static_cast<int>(rng.next_below(100));
        unsigned op = op_range;
        if (pick < w.get_pct) {
            op = op_get;
        } else if (pick < w.get_pct + w.insert_pct) {
            op = op_insert;
        } else if (pick < w.get_pct + w.insert_pct + w.erase_pct) {
            op = op_erase;
        }
        K key = 0;
        if (op == op_range) {
            key = rng.next_below(w.keys - w.range_span + 1);
        } else if (zipf != nullptr) {
            key = ((*zipf)(rng)*kHotKeyMultiplier) & (w.keys - 1);
        } else {
            key = rng.next_below(w.keys);
        }
        e = (static_cast<std::uint64_t>(op) << kOpShift) | key;
    }
    return s;
}

/// The keys present after set-up, in insertion order (seeded shuffle).
std::vector<K> make_prefill(const workload& w, std::uint64_t seed) {
    std::vector<K> keys(w.keys);
    for (K k = 0; k < w.keys; ++k) keys[k] = k;
    lfll::xorshift64 rng(seed ^ 0xD1B54A32D192ED03ULL);
    for (std::size_t i = keys.size() - 1; i > 0; --i) {
        std::swap(keys[i], keys[rng.next_below(i + 1)]);
    }
    keys.resize(w.prefill);
    return keys;
}

// ------------------------------------------------------------ stores

using so_map = lfll::split_ordered_map<K, K>;
using so_traced = tr::traced_map<so_map, tr::so_kinds>;
using so_store = lfll::sharded_kv<so_traced>;
using sl_map = lfll::sorted_list_map<K, K>;
using sl_traced = tr::traced_map<sl_map, tr::sl_kinds>;
using sl_store = lfll::sharded_kv<sl_traced>;

std::unique_ptr<so_store> build_store(const workload& w, so_store*) {
    return std::make_unique<so_store>(
        w.shards, [](std::size_t) { return std::make_unique<so_traced>(lfll::split_ordered_config{}); });
}
std::unique_ptr<sl_store> build_store(const workload& w, sl_store*) {
    return std::make_unique<sl_store>(w.shards,
                                      [](std::size_t) { return std::make_unique<sl_traced>(); });
}
std::unique_ptr<sl_traced> build_store(const workload&, sl_traced*) {
    return std::make_unique<sl_traced>();
}

/// Calls f(map) for every dictionary in the store.
template <typename F>
void for_each_map(so_store& s, F&& f) {
    for (std::size_t i = 0; i < s.shard_count(); ++i) f(s.shard_at(i).inner());
}
template <typename F>
void for_each_map(sl_store& s, F&& f) {
    for (std::size_t i = 0; i < s.shard_count(); ++i) f(s.shard_at(i).inner());
}
template <typename F>
void for_each_map(sl_traced& s, F&& f) {
    f(s.inner());
}

/// §5 audit of one quiescent map (split-ordered bucket slots hold
/// counted references the audit must be told about).
lfll::audit_report audit_map(so_map& m) {
    std::map<const so_map::node*, std::size_t> external;
    m.for_each_bucket_slot([&](std::size_t, so_map::node* d) { external[d] += 1; });
    return lfll::audit_list(m.list(), external);
}
lfll::audit_report audit_map(sl_map& m) { return lfll::audit_list(m.list()); }

std::size_t pool_capacity(so_map& m) { return m.pool().capacity(); }
std::size_t pool_capacity(sl_map& m) { return m.list().pool().capacity(); }

// ------------------------------------------------------------ counters

/// Library counters at one instant: op counters plus every registry
/// counter summed over its labels.
struct counter_snap {
    lfll::op_counters ops;
    std::map<std::string, double> reg;

    static counter_snap take() {
        counter_snap s;
        s.ops = lfll::instrument::snapshot();
        for (const auto& row : lfll::telemetry::registry::global().snapshot()) {
            if (row.kind == lfll::telemetry::metric_kind::counter) s.reg[row.name] += row.value;
        }
        return s;
    }
    double reg_delta(const counter_snap& before, const char* name) const {
        const auto a = reg.find(name);
        const auto b = before.reg.find(name);
        return (a == reg.end() ? 0.0 : a->second) - (b == before.reg.end() ? 0.0 : b->second);
    }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Sampled-profiler phase self time per sampled op over a window.
struct phase_window {
    lfll::telemetry::prof::phase_delta delta;
    counter_snap before = counter_snap::take();

    std::map<std::string, double> self_ns_per_op() const {
        const counter_snap after = counter_snap::take();
        const double sampled = after.reg_delta(before, "lfll_prof_sampled_ops_total");
        std::map<std::string, double> out;
        for (const auto& st : delta.stats()) {
            out[st.phase_name] = ratio(static_cast<double>(st.sum_ns), sampled);
        }
        return out;
    }
};

// ------------------------------------------------------------ clients

/// Per-client state that persists across windows: the stream cursor and
/// the result checks.
struct client_state {
    std::vector<std::uint64_t> stream;
    std::size_t pos = 0;
    std::uint64_t issued = 0;
    std::uint64_t failed = 0;
    std::uint64_t inserted = 0;  ///< successful inserts
    std::uint64_t erased = 0;    ///< successful erases

    std::uint64_t next() noexcept { return stream[pos++ & (stream.size() - 1)]; }
};

/// Latencies and op counts of one slice of a measurement window.
struct slice {
    hdr_hist get, write, range;
    std::uint64_t measured = 0;

    void merge(const slice& o) {
        get.merge(o.get);
        write.merge(o.write);
        range.merge(o.range);
        measured += o.measured;
    }
};

/// One client's slices of a measurement window; a request lands in the
/// slice that was open when it started.
struct client_window {
    std::vector<slice> slices;
};

bool range_ok(const std::vector<std::pair<K, K>>& r, K lo, K hi) {
    for (std::size_t i = 0; i < r.size(); ++i) {
        if (r[i].first < lo || r[i].first >= hi || r[i].second != r[i].first) return false;
        if (i > 0 && r[i - 1].first >= r[i].first) return false;
    }
    return true;
}

/// Direct-call client: one request per call, timed from outside.
template <typename Store>
struct direct_client {
    Store& store;
    client_state& c;
    client_window& cw;
    const workload& w;

    void operator()(int si) {
        slice* m = si >= 0 ? &cw.slices[static_cast<std::size_t>(si)] : nullptr;
        const std::uint64_t e = c.next();
        const auto op = static_cast<unsigned>(e >> kOpShift);
        const K key = e & kKeyMask;
        ++c.issued;
        std::uint64_t t0 = 0, t1 = 0;
        switch (op) {
            case op_get: {
                std::optional<K> v;
                t0 = tr::now_ns();
                {
                    tr::span root(tr::req_get);
                    v = store.find(key);
                }
                t1 = tr::now_ns();
                if (v.has_value() && *v != key) ++c.failed;
                if (m) m->get.record(t1 - t0);
                break;
            }
            case op_insert:
            case op_erase: {
                bool ok = false;
                t0 = tr::now_ns();
                if (op == op_insert) {
                    tr::span root(tr::req_insert);
                    ok = store.insert(key, key);
                } else {
                    tr::span root(tr::req_erase);
                    ok = store.erase(key);
                }
                t1 = tr::now_ns();
                if (ok) ++(op == op_insert ? c.inserted : c.erased);
                if (m) m->write.record(t1 - t0);
                break;
            }
            default: {
                if constexpr (requires { store.range_query(key, key); }) {
                    const K hi = key + w.range_span;
                    std::vector<std::pair<K, K>> r;
                    t0 = tr::now_ns();
                    {
                        tr::span root(tr::req_range);
                        r = store.range_query(key, hi);
                    }
                    t1 = tr::now_ns();
                    if (!range_ok(r, key, hi)) ++c.failed;
                    if (m) m->range.record(t1 - t0);
                } else {
                    ++c.failed;  // the stream asked for an op this store lacks
                }
                break;
            }
        }
        if (m) ++m->measured;
    }
    void finish() {}
};

using pipeline_t = lfll::harness::request_pipeline<sl_store>;

/// Pipeline client: keeps kWindows windows of requests in flight. Each
/// call submits a window, then completes the oldest window in flight, in
/// order; finish() completes the rest. A request's latency runs from its
/// submit to the return of its complete().
///
/// Whenever a ring runs dry its executor parks, and the next window
/// waits for a futex wake-up of an idle CPU, whose latency the host
/// decides: 50 µs when it is quiet, a millisecond when it is busy, and
/// then that is the p99. With two windows in flight the executors parked
/// every ~10 windows; four keep them draining.
/// The client polls ready() and calls complete() only once the request
/// is done, so complete() never helps and never reaches its futex-wait
/// fallback. That fallback can sleep forever: runs that let complete()
/// block hung with the slot already kDone and its owner asleep in the
/// futex on the old state.
struct pipeline_client {
    struct batch {
        explicit batch(std::size_t n) : slots(new pipeline_t::request[n]), ents(n), t_sub(n) {}
        std::unique_ptr<pipeline_t::request[]> slots;
        std::vector<std::uint64_t> ents;
        std::vector<std::uint64_t> t_sub;
        bool in_flight = false;
    };

    static constexpr std::size_t kWindows = 4;

    static std::vector<batch> batches(std::size_t window) {
        std::vector<batch> v;
        for (std::size_t i = 0; i < kWindows; ++i) v.emplace_back(window);
        return v;
    }

    pipeline_t& pipe;
    client_state& c;
    client_window& cw;
    std::size_t window;
    std::vector<batch> b = batches(window);
    std::size_t cur = 0;  ///< the window the next call submits

    void operator()(int si) {
        tr::span root(tr::req_window);
        submit(b[cur]);
        cur = (cur + 1) % kWindows;
        complete(b[cur], si);
    }
    void finish() {
        for (std::size_t k = 1; k <= kWindows; ++k) complete(b[(cur + k) % kWindows], -1);
    }

private:
    void submit(batch& w) {
        for (std::size_t i = 0; i < window; ++i) {
            const std::uint64_t e = w.ents[i] = c.next();
            const auto op = static_cast<unsigned>(e >> kOpShift);
            const auto kind = op == op_get      ? lfll::batch_op_kind::get
                              : op == op_insert ? lfll::batch_op_kind::insert
                                                : lfll::batch_op_kind::erase;
            const K key = e & kKeyMask;
            w.t_sub[i] = tr::now_ns();
            tr::span s(tr::pipe_submit);
            pipe.submit(w.slots[i], kind, key, key);
        }
        w.in_flight = true;
    }

    void complete(batch& w, int si) {
        if (!w.in_flight) return;
        slice* m = si >= 0 ? &cw.slices[static_cast<std::size_t>(si)] : nullptr;
        for (std::size_t i = 0; i < window; ++i) {
            {
                tr::span s(tr::pipe_complete);
                for (unsigned spin = 1; !w.slots[i].ready(); ++spin) {
                    if (spin % 256 == 0) std::this_thread::yield();
                }
                pipe.complete(w.slots[i]);
            }
            const std::uint64_t t = tr::now_ns();
            const auto op = static_cast<unsigned>(w.ents[i] >> kOpShift);
            const K key = w.ents[i] & kKeyMask;
            const auto& r = w.slots[i].result();
            if (op == op_get) {
                if (r.ok != r.value.has_value() || (r.ok && *r.value != key)) ++c.failed;
                if (m) m->get.record(t - w.t_sub[i]);
            } else {
                if (r.ok) ++(op == op_insert ? c.inserted : c.erased);
                if (m) m->write.record(t - w.t_sub[i]);
            }
        }
        w.in_flight = false;
        c.issued += window;
        if (m) m->measured += window;
    }
};

/// This process's thread ids, ascending.
std::vector<pid_t> thread_ids() {
    std::vector<pid_t> out;
    for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
        out.push_back(static_cast<pid_t>(std::stol(e.path().filename().string())));
    }
    std::sort(out.begin(), out.end());
    return out;
}

/// Thread placement: each client and each pipeline executor on a CPU of
/// its own, clients first. Pinned threads keep the same layout from run
/// to run instead of whatever the scheduler picks. Threads are pinned
/// only when at least one CPU stays free for everything else.
struct placement {
    std::vector<int> cpus;  ///< CPUs the process may use, ascending
    bool pin = false;

    explicit placement(int threads) {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set)) cpus.push_back(c);
            }
        }
        pin = static_cast<int>(cpus.size()) > threads;
    }

    /// Pins thread `tid` (0: the calling thread) to the CPU of `slot`.
    void apply(pid_t tid, int slot) const {
        if (!pin) return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus[static_cast<std::size_t>(slot)], &set);
        sched_setaffinity(tid, sizeof set, &set);
    }
};

/// Runs `clients` threads, each calling make(i)(slice) in a closed loop:
/// `warmup_s` unmeasured (slice -1), then `slices` measured slices of
/// `slice_s` each, then finish(). Calls on_start() just before the first
/// slice opens.
/// Returns each slice's wall-clock length.
template <typename Make, typename OnStart>
std::vector<double> run_window(const placement& where, int clients, double warmup_s, int slices,
                               double slice_s, Make&& make, OnStart&& on_start) {
    std::atomic<int> phase{-1};
    std::atomic<int> ready{0};
    std::vector<std::thread> ts;
    ts.reserve(static_cast<std::size_t>(clients));
    for (int i = 0; i < clients; ++i) {
        ts.emplace_back([&, i] {
            where.apply(0, i);
            auto work = make(i);
            ready.fetch_add(1, std::memory_order_acq_rel);
            for (;;) {
                const int ph = phase.load(std::memory_order_relaxed);
                if (ph >= slices) break;
                work(ph);
            }
            work.finish();
        });
    }
    while (ready.load(std::memory_order_acquire) < clients) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
    on_start();
    std::vector<double> lengths;
    auto t0 = std::chrono::steady_clock::now();
    for (int k = 1; k <= slices; ++k) {
        phase.store(k - 1, std::memory_order_relaxed);
        std::this_thread::sleep_until(t0 + std::chrono::duration<double>(slice_s));
        const auto t1 = std::chrono::steady_clock::now();
        lengths.push_back(std::chrono::duration<double>(t1 - t0).count());
        t0 = t1;
    }
    phase.store(slices, std::memory_order_relaxed);
    for (auto& t : ts) t.join();
    return lengths;
}

// ------------------------------------------------------------ output

struct metric {
    std::string name;
    double value;
    const char* unit;
};

std::string json_escape(const std::string& s) {
    std::string o;
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            o += '\\';
            o += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            o += ' ';
        } else {
            o += ch;
        }
    }
    return o;
}

std::string num(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void write_spans(const std::string& path, const tr::summary& s) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::uint64_t base = ~std::uint64_t{0};
    for (const auto& k : s.kept) base = std::min(base, k.s.t0);
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < s.kept.size(); ++i) {
        const auto& k = s.kept[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                     "\"dur\":%.3f,\"args\":{\"request\":%llu,\"arg\":%llu}}\n",
                     i == 0 ? "" : ",", tr::kind_name[k.s.kind], k.thread,
                     static_cast<double>(k.s.t0 - base) / 1000.0,
                     static_cast<double>(k.s.t1 - k.s.t0) / 1000.0,
                     static_cast<unsigned long long>(k.request),
                     static_cast<unsigned long long>(k.s.arg));
    }
    std::fputs("]}\n", f);
    std::fclose(f);
}

/// A measurement window is cut into slices of about this length; each
/// end-to-end figure is taken over its per-slice values. Short slices
/// keep a stall of a few hundred milliseconds inside a few of them.
constexpr double kSliceSeconds = 0.25;

/// On a 4-vCPU virtual machine (Xeon, Sapphire Rapids) whose host lends
/// its CPUs to other guests, a single-threaded loop that does the same
/// work throughout runs 20-30% slower for stretches of several seconds,
/// at times no one run can predict. Throughput and every latency
/// quantile are therefore read at this quantile of their per-slice
/// values, on the quieter side (the 75th percentile of slice
/// throughput, the 25th of a slice latency quantile): a figure for the
/// program running undisturbed, which slow stretches covering up to
/// three quarters of a run do not move.
constexpr double kQuietShare = 0.25;

/// One measurement window: per-slice results and the library counters
/// around it.
struct window_result {
    std::vector<double> lengths;  ///< per slice, seconds
    std::vector<slice> slices;    ///< summed over clients
    slice total;
    counter_snap before, after;
    std::map<std::string, double> phases;

    /// The q-quantile over slices of a per-slice figure (interpolated
    /// between neighbouring ranks).
    template <typename F>
    double slice_quantile(F&& f, double q) const {
        std::vector<double> v;
        for (std::size_t k = 0; k < slices.size(); ++k) v.push_back(f(slices[k], lengths[k]));
        if (v.empty()) return 0.0;
        std::sort(v.begin(), v.end());
        const double pos = q * static_cast<double>(v.size() - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
    }
    /// Throughput of the faster slices (see kQuietShare).
    double throughput() const {
        return slice_quantile(
            [](const slice& s, double len) { return ratio(static_cast<double>(s.measured), len); },
            1.0 - kQuietShare);
    }
    /// Latency quantile `q` of the quieter slices, in µs (see kQuietShare).
    double latency_us(hdr_hist slice::*h, double q) const {
        return slice_quantile([&](const slice& s, double) { return (s.*h).quantile(q); },
                              kQuietShare) /
               1e3;
    }

    /// Adds another round's slices (the counters stay this window's).
    void append(window_result&& o) {
        lengths.insert(lengths.end(), o.lengths.begin(), o.lengths.end());
        for (auto& sl : o.slices) slices.push_back(std::move(sl));
        total.merge(o.total);
    }
};

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans;
};

// ------------------------------------------------------------ the run

/// Profiler sampling gap in the traced run (the library default is 1024):
/// enough samples per window for the per-phase self times.
constexpr std::int64_t kTracedProfileRate = 256;

/// The untraced run is kRounds rounds, each with its own inputs (round r
/// of seed s uses seed s * kRounds + r), a freshly built store and fresh
/// client threads, so one unlucky prefill or store layout moves only a
/// third of the slices. The traced run is one round on seed s.
constexpr int kRounds = 3;

/// A round repeats the build + prefill (each one a setup_s sample) until
/// the round has spent kMinSetupSeconds / kRounds on them, at most
/// kMaxBuildsPerRound times: small stores build in a few milliseconds,
/// and one such build is at the mercy of a single page fault or
/// preemption.
constexpr double kMinSetupSeconds = 2.0;
constexpr int kMaxBuildsPerRound = 100;

/// Tolerance on |sum of span self times - request span time| / request
/// span time in the traced window.
constexpr double kReconcileTolerance = 0.01;

template <typename Store>
int run(const workload& w, const options& opt) {
    const bool is_so = w.store == store_kind::split_ordered_shards;
    std::vector<metric> metrics;
    std::map<std::string, std::uint64_t> samples;
    std::vector<std::string> check_errors;

    // Inputs are generated before a round starts, never inside a timed
    // window.
    std::optional<lfll::zipf_generator> zipf;
    if (w.zipf) zipf.emplace(w.keys, 0.99);
    std::vector<K> prefill;
    std::vector<client_state> cs(static_cast<std::size_t>(w.clients));
    auto make_inputs = [&](std::uint64_t seed) {
        prefill = make_prefill(w, seed);
        for (int i = 0; i < w.clients; ++i) {
            auto& c = cs[static_cast<std::size_t>(i)];
            c.stream = make_stream(w, seed, i, zipf.has_value() ? &*zipf : nullptr);
            c.pos = 0;
        }
    };

    const int threads = w.clients + (w.window > 0 ? static_cast<int>(w.shards) : 0);
    const placement where(threads);

    // Set-up: build + prefill; the last build of a round is measured.
    std::unique_ptr<Store> store;
    std::vector<double> setup_times;
    std::map<std::string, double> setup_phases;
    auto setup = [&](int rounds) {
        double spent = 0;
        int builds = 0;
        do {
            store.reset();
            phase_window pw;
            const auto t0 = std::chrono::steady_clock::now();
            store = build_store(w, static_cast<Store*>(nullptr));
            for (K key : prefill) {
                if (!store->insert(key, key)) check_errors.push_back("prefill insert failed");
            }
            const auto t1 = std::chrono::steady_clock::now();
            setup_phases = pw.self_ns_per_op();
            setup_times.push_back(std::chrono::duration<double>(t1 - t0).count());
            spent += setup_times.back();
        } while (spent < kMinSetupSeconds / rounds && ++builds < kMaxBuildsPerRound);
        for (auto& c : cs) c.inserted = c.erased = 0;
    };

    // At quiescence the store holds the prefill plus the clients'
    // successful inserts minus their successful erases since set-up.
    std::int64_t expected = 0, size = 0;
    auto check_size = [&] {
        expected = static_cast<std::int64_t>(prefill.size());
        for (const auto& c : cs) {
            expected += static_cast<std::int64_t>(c.inserted) - static_cast<std::int64_t>(c.erased);
        }
        size = static_cast<std::int64_t>(store->size_slow());
        if (size != expected) {
            check_errors.push_back("size_slow " + std::to_string(size) + " != expected " +
                                   std::to_string(expected));
        }
    };

    auto measure = [&](double warmup_s, double measure_s, bool traced) {
        window_result res;
        const int nslices = std::clamp(static_cast<int>(measure_s / kSliceSeconds), 3, 200);
        std::vector<client_window> cw(cs.size());
        for (auto& c : cw) c.slices.resize(static_cast<std::size_t>(nslices));
        std::optional<phase_window> pw;
        if (traced) {
            lfll::telemetry::prof::set_rate_override(kTracedProfileRate);
            tr::set_enabled(true);
        }
        auto on_start = [&] {
            res.before = counter_snap::take();
            pw.emplace();
        };
        if constexpr (std::is_same_v<Store, sl_store>) {
            if (w.window > 0) {
                // The executors are the threads the pipeline starts.
                const std::vector<pid_t> before = thread_ids();
                pipeline_t pipe(*store);
                int slot = w.clients;
                for (pid_t t : thread_ids()) {
                    if (!std::binary_search(before.begin(), before.end(), t)) where.apply(t, slot++);
                }
                res.lengths = run_window(
                    where, w.clients, warmup_s, nslices, measure_s / nslices,
                    [&](int i) {
                        const auto u = static_cast<std::size_t>(i);
                        return pipeline_client{pipe, cs[u], cw[u], w.window};
                    },
                    on_start);
            }
        }
        if (w.window == 0) {
            res.lengths = run_window(
                where, w.clients, warmup_s, nslices, measure_s / nslices,
                [&](int i) {
                    const auto u = static_cast<std::size_t>(i);
                    return direct_client<Store>{*store, cs[u], cw[u], w};
                },
                on_start);
        }
        // The pipeline (if any) is destroyed and drained by now.
        res.after = counter_snap::take();
        res.phases = pw->self_ns_per_op();
        tr::set_enabled(false);
        lfll::telemetry::prof::set_rate_override(-1);
        res.slices.resize(static_cast<std::size_t>(nslices));
        for (const auto& c : cw) {
            for (std::size_t k = 0; k < c.slices.size(); ++k) {
                res.slices[k].merge(c.slices[k]);
                res.total.merge(c.slices[k]);
            }
        }
        return res;
    };

    auto warmup = [](double measure_s) { return std::min(0.5, 0.25 * measure_s); };
    double rss_mb = 0;

    if (!opt.trace) {
        window_result r;
        for (int round = 0; round < kRounds; ++round) {
            make_inputs(opt.seed * kRounds + static_cast<std::uint64_t>(round));
            setup(kRounds);
            const double len = opt.seconds / kRounds;
            r.append(measure(warmup(len), len, false));
            check_size();
        }
        // Read before the audit, whose bookkeeping is not the store's.
        rss_mb = peak_rss_mb();
        metrics.push_back({"throughput_ops_s", r.throughput(), "1/s"});
        metrics.push_back({"get_p50_us", r.latency_us(&slice::get, 0.50), "us"});
        metrics.push_back({"get_p99_us", r.latency_us(&slice::get, 0.99), "us"});
        metrics.push_back({"write_p50_us", r.latency_us(&slice::write, 0.50), "us"});
        metrics.push_back({"write_p99_us", r.latency_us(&slice::write, 0.99), "us"});
        if (r.total.range.count() > 0) {
            metrics.push_back({"range_p50_us", r.latency_us(&slice::range, 0.50), "us"});
            metrics.push_back({"range_p99_us", r.latency_us(&slice::range, 0.99), "us"});
        }
        metrics.push_back({"setup_s", median(setup_times), "s"});
        samples["get"] = r.total.get.count();
        samples["write"] = r.total.write.count();
        samples["range"] = r.total.range.count();
        samples["setup"] = setup_times.size();
        samples["rounds"] = kRounds;
        samples["slices"] = r.slices.size();
    } else {
        make_inputs(opt.seed);
        lfll::telemetry::prof::set_rate_override(kTracedProfileRate);
        setup(1);
        lfll::telemetry::prof::set_rate_override(-1);
        const double half = opt.seconds / 2.0;
        const window_result plain = measure(warmup(half), half, false);
        const window_result t = measure(warmup(half), half, true);
        check_size();
        const tr::summary s = tr::collect();
        const auto& d = t.after.ops;
        const auto& b = t.before.ops;
        const double ops = static_cast<double>(t.total.measured);
        auto cnt = [&](std::uint64_t lfll::op_counters::*f) {
            return static_cast<double>(d.*f - b.*f);
        };
        auto reg = [&](const char* name) { return t.after.reg_delta(t.before, name); };
        auto q = [&](int k, double p) {
            return s.kinds[k].dur ? s.kinds[k].dur->quantile(p) : 0.0;
        };
        auto phase = [&](const std::map<std::string, double>& m, const char* p) {
            const auto it = m.find(p);
            return it == m.end() ? 0.0 : it->second;
        };
        const auto& ks = s.kinds;

        metrics.push_back({"pipeline.submit_p50_ns", q(tr::pipe_submit, 0.50), "ns"});
        metrics.push_back({"pipeline.complete_p50_ns", q(tr::pipe_complete, 0.50), "ns"});
        metrics.push_back({"pipeline.complete_p99_ns", q(tr::pipe_complete, 0.99), "ns"});
        metrics.push_back({"pipeline.requests_per_batch",
                           ratio(reg("lfll_pipeline_requests_total"),
                                 reg("lfll_pipeline_batches_total")),
                           "count"});
        metrics.push_back({"pipeline.executor_parks_per_kop",
                           1e3 * ratio(reg("lfll_pipeline_drain_waits_total"), ops), "1/kop"});
        const auto& batch = is_so ? ks[tr::so_batch] : ks[tr::sl_batch];
        metrics.push_back({"batch.ns_per_op",
                           ratio(static_cast<double>(batch.dur_ns), static_cast<double>(batch.arg)),
                           "ns"});
        metrics.push_back({"batch.size_mean",
                           ratio(static_cast<double>(batch.arg), static_cast<double>(batch.count)),
                           "count"});
        const double route_n = static_cast<double>(ks[tr::req_get].count + ks[tr::req_insert].count +
                                                   ks[tr::req_erase].count);
        const double route_ns = static_cast<double>(
            ks[tr::req_get].self_ns + ks[tr::req_insert].self_ns + ks[tr::req_erase].self_ns);
        metrics.push_back(
            {"sharded_kv.route_self_ns", is_so ? ratio(route_ns, route_n) : 0.0, "ns"});
        metrics.push_back({"split_ordered_map.find_p50_ns", q(tr::so_find, 0.50), "ns"});
        metrics.push_back({"split_ordered_map.find_p99_ns", q(tr::so_find, 0.99), "ns"});
        metrics.push_back({"split_ordered_map.insert_p99_ns", q(tr::so_insert, 0.99), "ns"});
        metrics.push_back({"split_ordered_map.erase_p99_ns", q(tr::so_erase, 0.99), "ns"});
        const double cas_fail = ratio(cnt(&lfll::op_counters::cas_failures),
                                      cnt(&lfll::op_counters::cas_attempts));
        const double retries = 1e3 * ratio(cnt(&lfll::op_counters::insert_retries) +
                                               cnt(&lfll::op_counters::delete_retries),
                                           ops);
        metrics.push_back({"split_ordered_map.cas_fail_ratio", is_so ? cas_fail : 0.0, "ratio"});
        metrics.push_back({"split_ordered_map.retries_per_kop", is_so ? retries : 0.0, "1/kop"});
        metrics.push_back({"split_ordered_map.bucket_split_self_ns",
                           is_so ? phase(setup_phases, "bucket_split") : 0.0, "ns"});
        double grows = 0;
        if constexpr (std::is_same_v<Store, so_store>) {
            for_each_map(*store, [&](so_map& m) { grows += static_cast<double>(m.grow_count()); });
        }
        metrics.push_back({"split_ordered_map.grows", grows, "count"});
        metrics.push_back({"sorted_list_map.find_p50_ns", q(tr::sl_find, 0.50), "ns"});
        metrics.push_back({"sorted_list_map.range_query_p50_ns", q(tr::sl_range, 0.50), "ns"});
        metrics.push_back({"rq.keys_per_query",
                           ratio(static_cast<double>(ks[tr::sl_range].arg),
                                 static_cast<double>(ks[tr::sl_range].count)),
                           "count"});
        metrics.push_back({"rq.ns_per_key",
                           ratio(static_cast<double>(ks[tr::sl_range].dur_ns),
                                 static_cast<double>(ks[tr::sl_range].arg)),
                           "ns"});
        metrics.push_back(
            {"list.cells_per_op", ratio(cnt(&lfll::op_counters::cells_traversed), ops), "count"});
        metrics.push_back(
            {"list.safe_reads_per_op", ratio(cnt(&lfll::op_counters::safe_reads), ops), "count"});
        metrics.push_back({"list.saferead_retry_ratio",
                           ratio(cnt(&lfll::op_counters::saferead_retries),
                                 cnt(&lfll::op_counters::safe_reads)),
                           "ratio"});
        metrics.push_back({"list.fast_hop_share",
                           ratio(cnt(&lfll::op_counters::traverse_fast_hops),
                                 cnt(&lfll::op_counters::traverse_hops)),
                           "ratio"});
        metrics.push_back(
            {"list.aux_hops_per_op", ratio(cnt(&lfll::op_counters::aux_hops), ops), "count"});
        metrics.push_back({"list.traverse_self_ns", phase(t.phases, "traverse"), "ns"});
        metrics.push_back({"list.safe_read_self_ns", phase(t.phases, "safe_read"), "ns"});
        metrics.push_back({"node_pool.allocs_per_op",
                           ratio(cnt(&lfll::op_counters::nodes_allocated), ops), "count"});
        metrics.push_back({"node_pool.reclaims_per_op",
                           ratio(cnt(&lfll::op_counters::nodes_reclaimed), ops), "count"});
        const double mag_hits = reg("lfll_pool_magazine_hits_total");
        const double sr_hits = reg("lfll_saferead_cache_hits_total");
        metrics.push_back({"node_pool.magazine_hit_ratio",
                           ratio(mag_hits, mag_hits + reg("lfll_pool_magazine_misses_total")),
                           "ratio"});
        metrics.push_back({"node_pool.saferead_cache_hit_ratio",
                           ratio(sr_hits, sr_hits + reg("lfll_saferead_cache_misses_total")),
                           "ratio"});
        metrics.push_back({"node_pool.deferred_flushes_per_kop",
                           1e3 * ratio(cnt(&lfll::op_counters::deferred_flushes), ops), "1/kop"});
        double capacity = 0;
        for_each_map(*store, [&](auto& m) { capacity += static_cast<double>(pool_capacity(m)); });
        metrics.push_back({"node_pool.capacity_nodes", capacity, "count"});
        metrics.push_back({"node_pool.alloc_self_ns", phase(t.phases, "alloc"), "ns"});
        metrics.push_back({"node_pool.reclaim_self_ns", phase(t.phases, "reclaim"), "ns"});

        const double untraced_tp = plain.throughput();
        const double traced_tp = t.throughput();
        const double reconcile =
            ratio(std::fabs(static_cast<double>(s.self_sum_ns) - static_cast<double>(s.root_ns)),
                  static_cast<double>(s.root_ns));
        metrics.push_back({"trace.untraced_ops_s", untraced_tp, "1/s"});
        metrics.push_back({"trace.traced_ops_s", traced_tp, "1/s"});
        metrics.push_back({"trace.overhead_share", 1.0 - ratio(traced_tp, untraced_tp), "ratio"});
        metrics.push_back({"trace.reconcile_error_share", reconcile, "ratio"});
        if (s.roots == 0) check_errors.push_back("traced window recorded no request spans");
        if (reconcile > kReconcileTolerance) {
            check_errors.push_back("span self times do not add up to the request spans");
        }
        samples["traced_requests"] = s.roots;
        samples["spans_kept"] = s.kept.size();
        if (!opt.spans.empty()) write_spans(opt.spans, s);
    }

    // The §5 audit of every map of the last store, at quiescence.
    std::uint64_t attempted = 0, failed = 0;
    for (const auto& c : cs) {
        attempted += c.issued;
        failed += c.failed;
    }
    std::size_t audited = 0;
    for_each_map(*store, [&](auto& m) {
        const lfll::audit_report r = audit_map(m);
        ++audited;
        if (!r.ok) check_errors.push_back("audit: " + r.error);
    });
    failed += check_errors.size();
    if (!opt.trace) {
        metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
        metrics.push_back({"failed_share", ratio(static_cast<double>(failed),
                                                 static_cast<double>(attempted)),
                           "ratio"});
    }
    store.reset();

    std::string out = "{\"workload\":\"" + std::string(w.name) +
                      "\",\"correct\":" + (failed == 0 ? "true" : "false") +
                      ",\"attempted\":" + std::to_string(attempted) +
                      ",\"failed\":" + std::to_string(failed) + ",\"checks\":{\"errors\":[";
    for (std::size_t i = 0; i < check_errors.size(); ++i) {
        out += (i ? ",\"" : "\"") + json_escape(check_errors[i]) + "\"";
    }
    out += "],\"maps_audited\":" + std::to_string(audited) +
           ",\"size_expected\":" + std::to_string(expected) +
           ",\"size_found\":" + std::to_string(size) +
           ",\"reconcile_tolerance\":" + num(kReconcileTolerance) + "},\"samples\":{";
    bool first = true;
    for (const auto& [k, v] : samples) {
        out += (first ? "\"" : ",\"") + k + "\":" + std::to_string(v);
        first = false;
    }
    out += "},\"threads\":" + std::to_string(threads) + ",\"pinned\":" + (where.pin ? "true" : "false") +
           ",\"build\":{\"compiler\":\"" + json_escape(__VERSION__) + "\",\"build_type\":\"" +
           PERFBENCH_BUILD_TYPE + "\",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency()) + "},\"metrics\":{";
    first = true;
    for (const auto& m : metrics) {
        out += (first ? "\"" : ",\"") + m.name + "\":{\"value\":" + num(m.value) +
               ",\"unit\":\"" + m.unit + "\"}";
        first = false;
    }
    out += "}}";
    std::puts(out.c_str());
    return 0;
}

bool parse(int argc, char** argv, options& o) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string a = argv[i];
        const char* v = argv[i + 1];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, nullptr);
        } else if (a == "--trace") {
            o.trace = std::strcmp(v, "0") != 0;
        } else if (a == "--spans") {
            o.spans = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0 && o.seconds <= 120;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    std::fputs("perfbench: refusing to time a Debug or sanitizer build\n", stderr);
    return 2;
#endif
    options opt;
    if (!parse(argc, argv, opt)) {
        std::fputs("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                   "[--spans <file>]\n",
                   stderr);
        return 2;
    }
    for (const workload& w : kWorkloads) {
        if (opt.workload != w.name) continue;
        switch (w.store) {
            case store_kind::split_ordered_shards: return run<so_store>(w, opt);
            case store_kind::sorted_shards_pipeline: return run<sl_store>(w, opt);
            case store_kind::sorted_single: return run<sl_traced>(w, opt);
        }
    }
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
}
