// Aligned text tables (and CSV) for benchmark output. Every bench binary
// prints one table per experiment so EXPERIMENTS.md rows can be filled in
// by reading the run log.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace lfll::harness {

class table {
public:
    explicit table(std::vector<std::string> headers);

    void add_row(std::vector<std::string> cells);

    /// Column-aligned plain text.
    void print(std::ostream& os) const;

    /// Comma-separated (no quoting: benchmark cells never contain commas).
    void print_csv(std::ostream& os) const;

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/// Prints "== <title> ==" and the table to stdout; honours the
/// LFLL_BENCH_CSV environment variable (1 -> CSV instead).
void emit(const std::string& title, const table& t);

/// Benchmark cell duration: LFLL_BENCH_MS env var, else `def_ms`.
int bench_millis(int def_ms);

}  // namespace lfll::harness
