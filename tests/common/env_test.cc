/** @file Unit tests for the strict HOARD_* environment readers. */

#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

namespace hoard {
namespace detail {
namespace {

constexpr char kKnob[] = "HOARD_ENV_TEST_KNOB";

std::size_t
lines(const std::string& text)
{
    std::size_t n = 0;
    for (char c : text)
        n += c == '\n';
    return n;
}

/** Runs @p read with kKnob set to @p value; returns its stderr. */
template <typename Read>
std::string
with_knob(const char* value, Read read)
{
    setenv(kKnob, value, 1);
    testing::internal::CaptureStderr();
    read();
    std::string err = testing::internal::GetCapturedStderr();
    unsetenv(kKnob);
    return err;
}

std::string
report_prefix(const char* value)
{
    return std::string("hoard: ignoring HOARD_ENV_TEST_KNOB=\"") + value +
           "\" (expected ";
}

TEST(EnvRead, MalformedNumberIsReportedOnceAndDefaultKept)
{
    for (const char* bad :
         {"64M", "1s", "-1", "12abc", "", "yes", " 1", "1 ", "+1", "0x10",
          "1e3", "18446744073709551616"}) {
        std::uint64_t v = 4096;
        const std::string err =
            with_knob(bad, [&] { EXPECT_FALSE(env_number(kKnob, &v)); });
        EXPECT_EQ(v, 4096u) << '"' << bad << '"';
        EXPECT_EQ(err, report_prefix(bad) +
                           "a decimal integer in [0, "
                           "18446744073709551615])\n");
    }
}

TEST(EnvRead, ValidNumbersApplySilently)
{
    const struct
    {
        const char* text;
        std::uint64_t value;
    } cases[] = {{"0", 0},
                 {"67108864", 67108864},
                 {"007", 7},
                 {"18446744073709551615", ~std::uint64_t{0}}};
    for (const auto& c : cases) {
        std::uint64_t v = 1;
        const std::string err = with_knob(
            c.text, [&] { EXPECT_TRUE(env_number(kKnob, &v)); });
        EXPECT_EQ(v, c.value) << c.text;
        EXPECT_EQ(err, "");
    }
}

TEST(EnvRead, FlagAcceptsExactlySixSpellings)
{
    for (const char* on : {"1", "true", "on"}) {
        bool v = false;
        EXPECT_EQ(with_knob(on, [&] { EXPECT_TRUE(env_flag(kKnob, &v)); }),
                  "");
        EXPECT_TRUE(v) << on;
    }
    for (const char* off : {"0", "false", "off"}) {
        bool v = true;
        EXPECT_EQ(
            with_knob(off, [&] { EXPECT_TRUE(env_flag(kKnob, &v)); }), "");
        EXPECT_FALSE(v) << off;
    }
}

TEST(EnvRead, MalformedFlagIsReportedOnceAndDefaultKept)
{
    for (const char* bad : {"yes", "", "2", "TRUE", "On", "on ", "offf"}) {
        bool v = true;
        const std::string err =
            with_knob(bad, [&] { EXPECT_FALSE(env_flag(kKnob, &v)); });
        EXPECT_TRUE(v) << '"' << bad << '"';
        EXPECT_EQ(err, report_prefix(bad) + "1/true/on or 0/false/off)\n");
    }
}

TEST(EnvRead, UnsetIsSilentAndUntouched)
{
    unsetenv(kKnob);
    std::size_t n = 5;
    bool flag = true;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(env_number(kKnob, &n));
    EXPECT_FALSE(env_flag(kKnob, &flag));
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(n, 5u);
    EXPECT_TRUE(flag);
}

TEST(EnvRead, RangeAndPowerOfTwoAreEnforced)
{
    std::uint32_t period = 256;
    std::string err = with_knob("0", [&] {
        EXPECT_FALSE(env_number(kKnob, &period, 1));
    });
    EXPECT_EQ(period, 256u);
    EXPECT_EQ(err, report_prefix("0") +
                       "a decimal integer in [1, 4294967295])\n");

    // One past the field's type range is rejected, not truncated.
    err = with_knob("4294967296",
                    [&] { EXPECT_FALSE(env_number(kKnob, &period)); });
    EXPECT_EQ(period, 256u);
    EXPECT_EQ(lines(err), 1u);

    std::size_t sb = 8192;
    err = with_knob("3000", [&] {
        EXPECT_FALSE(env_number(kKnob, &sb, 1024, 1 << 30, true));
    });
    EXPECT_EQ(sb, 8192u);
    EXPECT_EQ(err, report_prefix("3000") +
                       "a power of two in [1024, 1073741824])\n");
    err = with_knob("65536", [&] {
        EXPECT_TRUE(env_number(kKnob, &sb, 1024, 1 << 30, true));
    });
    EXPECT_EQ(sb, 65536u);
    EXPECT_EQ(err, "");
}

TEST(EnvRead, LongValueStaysOnOneLine)
{
    const std::string value(500, '9');
    std::size_t v = 1;
    const std::string err = with_knob(
        value.c_str(), [&] { EXPECT_FALSE(env_number(kKnob, &v)); });
    EXPECT_EQ(v, 1u);
    EXPECT_EQ(lines(err), 1u);
    EXPECT_EQ(err.back(), '\n');
    EXPECT_NE(err.find(std::string(64, '9') + "...\" (expected"),
              std::string::npos)
        << err;
}

}  // namespace
}  // namespace detail
}  // namespace hoard
