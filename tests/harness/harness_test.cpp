// Benchmark harness: statistics, table formatting, the thread driver, and
// the instrumentation registry the experiments rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>

#include "lfll/harness/runner.hpp"
#include "lfll/harness/stats.hpp"
#include "lfll/harness/table.hpp"
#include "lfll/telemetry/op_counters.hpp"

namespace {

using namespace lfll;
using namespace lfll::harness;

TEST(Stats, SummaryOfKnownSamples) {
    auto s = summarize({1, 2, 3, 4, 5});
    EXPECT_DOUBLE_EQ(s.min, 1);
    EXPECT_DOUBLE_EQ(s.max, 5);
    EXPECT_DOUBLE_EQ(s.mean, 3);
    EXPECT_DOUBLE_EQ(s.p50, 3);
    EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
    EXPECT_EQ(s.n, 5u);
}

TEST(Stats, EmptyAndSingleton) {
    EXPECT_EQ(summarize({}).n, 0u);
    auto s = summarize({7.0});
    EXPECT_DOUBLE_EQ(s.mean, 7.0);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
    EXPECT_DOUBLE_EQ(s.p99, 7.0);
}

TEST(Stats, FmtSi) {
    EXPECT_EQ(fmt_si(950), "950");
    EXPECT_EQ(fmt_si(1500), "1.50k");
    EXPECT_EQ(fmt_si(1234567), "1.23M");
    EXPECT_EQ(fmt_si(25e9), "25.0G");
}

TEST(Table, AlignsColumns) {
    table t({"name", "v"});
    t.add_row({"a", "1"});
    t.add_row({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Both data lines start columns at the same offset.
    EXPECT_NE(out.find("a       1"), std::string::npos);
}

TEST(Table, CsvOutput) {
    table t({"a", "b"});
    t.add_row({"1", "2"});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, ShortRowsArePadded) {
    table t({"a", "b", "c"});
    t.add_row({"only"});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b,c\nonly,,\n");
}

TEST(Runner, RunsAllThreadsAndCounts) {
    auto res = run_timed(3, 50, [&](int, std::atomic<bool>& stop) {
        std::uint64_t n = 0;
        while (!stop.load(std::memory_order_relaxed)) ++n;
        return n;
    });
    EXPECT_EQ(res.per_thread_ops.size(), 3u);
    for (auto ops : res.per_thread_ops) EXPECT_GT(ops, 0u);
    EXPECT_GE(res.seconds, 0.045);
    EXPECT_GT(res.ops_per_sec, 0.0);
    EXPECT_EQ(res.total_ops,
              res.per_thread_ops[0] + res.per_thread_ops[1] + res.per_thread_ops[2]);
}

TEST(Runner, CapturesInstrumentDelta) {
    auto res = run_timed(2, 30, [&](int, std::atomic<bool>& stop) {
        std::uint64_t n = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            instrument::tls().aux_hops++;
            ++n;
        }
        return n;
    });
    EXPECT_EQ(res.counters.aux_hops, res.total_ops);
    EXPECT_DOUBLE_EQ(res.per_op(res.counters.aux_hops), 1.0);
}

TEST(Instrument, SnapshotSumsLiveAndRetiredThreads) {
    instrument::reset();
    instrument::tls().cas_attempts += 5;
    std::thread t([] { instrument::tls().cas_attempts += 7; });
    t.join();  // folded into the retired total
    auto snap = instrument::snapshot();
    EXPECT_GE(snap.cas_attempts, 12u);
}

TEST(Instrument, ResetClearsEverything) {
    instrument::tls().safe_reads += 100;
    instrument::reset();
    // Other live test threads may be incrementing, but this thread's slot
    // and the retired pile were zeroed; our contribution is gone.
    auto snap = instrument::snapshot();
    EXPECT_LT(snap.safe_reads, 100u);
}

}  // namespace
