// The one reader of the library's environment knobs.
//
// Every LFLL_* variable the library consults goes through here, so each
// has the same rules: an unset or empty variable means "use the
// default", and a value that does not parse whole, or falls outside the
// knob's range, is ignored with one stderr line naming the knob and the
// value. Nothing is accepted by prefix ("12abc" is not 12) and nothing
// wraps ("-1" is not a large unsigned number).
#pragma once

#include <charconv>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

namespace lfll::env {

/// The value of environment variable `name`, or nullptr when it is
/// unset or empty.
inline const char* raw(const char* name) noexcept {
    const char* v = std::getenv(name);
    return v != nullptr && *v != '\0' ? v : nullptr;
}

/// Prints the notice for a value the knob cannot take.
inline void reject(const char* name, const char* value, const char* expected) noexcept {
    std::fprintf(stderr, "lfll: ignoring %s=%s (expected %s); using the default\n", name,
                 value, expected);
}

/// Unsigned integer knob: decimal, or hexadecimal after a 0x prefix,
/// within [lo, hi]. nullopt when unset, empty or rejected.
inline std::optional<std::uint64_t> integer(const char* name, std::uint64_t lo = 0,
                                            std::uint64_t hi = UINT64_MAX) noexcept {
    const char* v = raw(name);
    if (v == nullptr) return std::nullopt;
    const char* p = v;
    int base = 10;
    if (p[0] == '0' && (p[1] == 'x' || p[1] == 'X')) {
        base = 16;
        p += 2;
    }
    const char* end = p + std::strlen(p);
    std::uint64_t x = 0;
    const auto [stop, ec] = std::from_chars(p, end, x, base);
    if (ec == std::errc{} && stop == end && x >= lo && x <= hi) return x;
    char expected[96];
    std::snprintf(expected, sizeof expected, "an integer in [%" PRIu64 ", %" PRIu64 "]", lo, hi);
    reject(name, v, expected);
    return std::nullopt;
}

/// On/off knob: 0 or 1. nullopt when unset, empty or rejected.
inline std::optional<bool> flag(const char* name) noexcept {
    const char* v = raw(name);
    if (v == nullptr) return std::nullopt;
    if (std::strcmp(v, "0") == 0) return false;
    if (std::strcmp(v, "1") == 0) return true;
    reject(name, v, "0 or 1");
    return std::nullopt;
}

}  // namespace lfll::env
