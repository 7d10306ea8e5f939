// The environment-knob parser: unset and empty mean "default", a value
// is taken only when all of it parses and lies in range, and every
// rejection prints one stderr line naming the knob and the value.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "lfll/primitives/env.hpp"

namespace {

namespace env = lfll::env;

constexpr const char* kKnob = "LFLL_ENV_TEST_KNOB";

/// Sets the test knob for one test and clears it afterwards.
class Env : public ::testing::Test {
protected:
    void TearDown() override { ::unsetenv(kKnob); }
    static void set(const char* v) { ::setenv(kKnob, v, 1); }
};

/// Runs `read` with stderr captured and returns what it printed.
template <typename F>
std::string stderr_of(F&& read) {
    ::testing::internal::CaptureStderr();
    read();
    return ::testing::internal::GetCapturedStderr();
}

TEST_F(Env, UnsetAndEmptyGiveTheDefault) {
    for (const char* v : {static_cast<const char*>(nullptr), ""}) {
        if (v == nullptr) {
            ::unsetenv(kKnob);
        } else {
            set(v);
        }
        const std::string err = stderr_of([] {
            EXPECT_EQ(env::raw(kKnob), nullptr);
            EXPECT_EQ(env::integer(kKnob).value_or(7), 7u);
            EXPECT_TRUE(env::flag(kKnob).value_or(true));
        });
        EXPECT_EQ(err, "") << "an unset or empty knob is not an error";
    }
}

TEST_F(Env, AcceptsDecimalAndHexSeeds) {
    const std::pair<const char*, std::uint64_t> cases[] = {
        {"0", 0},
        {"12", 12},
        {"010", 10},  // decimal: a leading zero is not octal
        {"0x2a", 42},
        {"0X2A", 42},
        {"0x9e3779b97f4a7c15", 0x9e3779b97f4a7c15ULL},
        {"18446744073709551615", UINT64_MAX},
    };
    for (const auto& [text, want] : cases) {
        set(text);
        const std::string err = stderr_of([&] {
            const auto got = env::integer(kKnob);
            ASSERT_TRUE(got.has_value()) << text;
            EXPECT_EQ(*got, want) << text;
        });
        EXPECT_EQ(err, "") << text;
    }
}

TEST_F(Env, RejectsMalformedValuesAndNamesTheKnob) {
    for (const char* text : {"abc", "12abc", "-1", "+5", " 12", "12 ", "0x", "0xg1", "1.5",
                             "18446744073709551616"}) {
        set(text);
        const std::string err = stderr_of([] {
            EXPECT_EQ(env::integer(kKnob).value_or(7), 7u);
        });
        EXPECT_NE(err.find(kKnob), std::string::npos) << text << ": " << err;
        EXPECT_NE(err.find(std::string("=") + text + " "), std::string::npos)
            << text << ": " << err;
        EXPECT_EQ(err.find('\n'), err.size() - 1) << "one line: " << err;
    }
}

TEST_F(Env, RejectsOutOfRangeValues) {
    for (const char* text : {"0", "1001"}) {
        set(text);
        const std::string err = stderr_of([] {
            EXPECT_EQ(env::integer(kKnob, 1, 1000).value_or(7), 7u);
        });
        EXPECT_NE(err.find(kKnob), std::string::npos) << text << ": " << err;
        EXPECT_NE(err.find("[1, 1000]"), std::string::npos) << err;
    }
    for (const char* text : {"1", "1000"}) {
        set(text);
        EXPECT_TRUE(env::integer(kKnob, 1, 1000).has_value()) << text;
    }
}

TEST_F(Env, FlagAcceptsZeroAndOneOnly) {
    set("0");
    EXPECT_EQ(env::flag(kKnob), std::optional<bool>(false));
    set("1");
    EXPECT_EQ(env::flag(kKnob), std::optional<bool>(true));
    for (const char* text : {"off", "on", "2", "yes", "00"}) {
        set(text);
        const std::string err = stderr_of([] { EXPECT_FALSE(env::flag(kKnob).has_value()); });
        EXPECT_NE(err.find(kKnob), std::string::npos) << text << ": " << err;
        EXPECT_NE(err.find(text), std::string::npos) << err;
    }
}

TEST_F(Env, RawReturnsTheValueVerbatim) {
    set("jsonl:/tmp/m.jsonl");
    ASSERT_NE(env::raw(kKnob), nullptr);
    EXPECT_STREQ(env::raw(kKnob), "jsonl:/tmp/m.jsonl");
}

}  // namespace
