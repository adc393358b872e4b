#include "common/env.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>

#include "common/mathutil.h"

namespace hoard {
namespace detail {

namespace {

/** Parses @p text as a decimal integer in [@p lo, @p hi] into @p out;
    false (and @p out untouched) when malformed or out of range. */
bool
parse_decimal(const char* text, std::uint64_t lo, std::uint64_t hi,
              std::uint64_t* out)
{
    if (text[0] == '\0')
        return false;
    std::uint64_t v = 0;
    for (const char* c = text; *c != '\0'; ++c) {
        if (*c < '0' || *c > '9')
            return false;
        const auto digit = static_cast<std::uint64_t>(*c - '0');
        if (v > (~std::uint64_t{0} - digit) / 10)
            return false;  // overflows 64 bits
        v = v * 10 + digit;
    }
    if (v < lo || v > hi)
        return false;
    *out = v;
    return true;
}

/** Parses 1/true/on and 0/false/off into @p out; false (and @p out
    untouched) for anything else. */
bool
parse_flag(const char* text, bool* out)
{
    for (const char* on : {"1", "true", "on"}) {
        if (std::strcmp(text, on) == 0) {
            *out = true;
            return true;
        }
    }
    for (const char* off : {"0", "false", "off"}) {
        if (std::strcmp(text, off) == 0) {
            *out = false;
            return true;
        }
    }
    return false;
}

}  // namespace

void
report_bad_env(const char* name, const char* value, const char* expected)
{
    // snprintf with only %s conversions formats into the stack buffer
    // without allocating.  The value is cut at 64 bytes, so a line
    // fits; the clamp only guards an absurdly long name.
    char buf[320];
    const int n = std::snprintf(
        buf, sizeof buf, "hoard: ignoring %s=\"%.64s%s\" (expected %s)\n",
        name, value, std::strlen(value) > 64 ? "..." : "", expected);
    // A short write to stderr is not worth retrying or reporting.
    if (n > 0)
        (void)!::write(2, buf,
                       std::min(static_cast<std::size_t>(n),
                                sizeof buf - 1));
}

bool
env_decimal(const char* name, std::uint64_t lo, std::uint64_t hi,
            bool pow2, std::uint64_t* value)
{
    const char* text = std::getenv(name);
    if (text == nullptr)
        return false;
    std::uint64_t v = 0;
    if (parse_decimal(text, lo, hi, &v) && (!pow2 || is_pow2(v))) {
        *value = v;
        return true;
    }
    char expected[96];
    std::snprintf(expected, sizeof expected, "%s in [%llu, %llu]",
                  pow2 ? "a power of two" : "a decimal integer",
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
    report_bad_env(name, text, expected);
    return false;
}

bool
env_flag(const char* name, bool* value)
{
    const char* text = std::getenv(name);
    if (text == nullptr)
        return false;
    if (parse_flag(text, value))
        return true;
    report_bad_env(name, text, "1/true/on or 0/false/off");
    return false;
}

}  // namespace detail
}  // namespace hoard
