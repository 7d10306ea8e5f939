#include "lfll/harness/table.hpp"

#include <climits>
#include <iostream>
#include <ostream>

#include "lfll/primitives/env.hpp"

namespace lfll::harness {

table::table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void table::add_row(std::vector<std::string> cells) {
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
}

void table::print(std::ostream& os) const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (row[c].size() > width[c]) width[c] = row[c].size();
        }
    }
    auto pad = [&](const std::string& s, std::size_t w) {
        os << s;
        for (std::size_t i = s.size(); i < w + 2; ++i) os << ' ';
    };
    for (std::size_t c = 0; c < headers_.size(); ++c) pad(headers_[c], width[c]);
    os << '\n';
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        os << std::string(width[c], '-') << "  ";
    }
    os << '\n';
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) pad(row[c], width[c]);
        os << '\n';
    }
}

void table::print_csv(std::ostream& os) const {
    auto line = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c != 0) os << ',';
            os << cells[c];
        }
        os << '\n';
    };
    line(headers_);
    for (const auto& row : rows_) line(row);
}

void emit(const std::string& title, const table& t) {
    std::cout << "\n== " << title << " ==\n";
    static const bool csv = env::flag("LFLL_BENCH_CSV").value_or(false);
    if (csv) {
        t.print_csv(std::cout);
    } else {
        t.print(std::cout);
    }
    std::cout.flush();
}

int bench_millis(int def_ms) {
    static const auto ms = env::integer("LFLL_BENCH_MS", 1, INT_MAX);
    return ms ? static_cast<int>(*ms) : def_ms;
}

}  // namespace lfll::harness
