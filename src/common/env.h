/**
 * @file
 * Strict readers for the HOARD_* environment knobs.
 *
 * A numeric knob is a plain decimal integer: digits only, with no
 * sign, whitespace, suffix, or hex prefix, inside the knob's range.
 * "64M", "1s", "-1", "12abc", and the empty string are rejected, not
 * read by prefix.  A flag knob is exactly one of 1/true/on or
 * 0/false/off.  A rejected value leaves the caller's default in effect
 * and is reported on one stderr line naming the variable and the value,
 * for example (one line, wrapped here):
 *
 *     hoard: ignoring HOARD_RSS_TARGET="64M" (expected a decimal
 *     integer in [0, 18446744073709551615])
 *
 * The readers run while the allocator singleton is being constructed —
 * under LD_PRELOAD that is inside the process's first malloc — so
 * nothing here allocates: parsing is a digit loop, and the report is
 * formatted into a stack buffer and sent with one write(2).
 */

#ifndef HOARD_COMMON_ENV_H_
#define HOARD_COMMON_ENV_H_

#include <cstdint>
#include <limits>

namespace hoard {
namespace detail {

/** Writes the one-line rejection report for @p name=@p value to
    stderr; @p expected describes the accepted grammar. */
void report_bad_env(const char* name, const char* value,
                    const char* expected);

/**
 * Reads the decimal knob @p name into @p value.  Unset: returns false,
 * @p value untouched.  Malformed, out of [@p lo, @p hi], or (with
 * @p pow2) not a power of two: reports it, returns false, @p value
 * untouched.  Otherwise stores it and returns true.
 */
bool env_decimal(const char* name, std::uint64_t lo, std::uint64_t hi,
                 bool pow2, std::uint64_t* value);

/** Reads the flag knob @p name into @p value; same contract as
    env_decimal. */
bool env_flag(const char* name, bool* value);

/** env_decimal for any unsigned config field; the range defaults to
    the field type's full range. */
template <typename T>
bool
env_number(const char* name, T* field, std::uint64_t lo = 0,
           std::uint64_t hi = std::numeric_limits<T>::max(),
           bool pow2 = false)
{
    std::uint64_t v = 0;
    if (!env_decimal(name, lo, hi, pow2, &v))
        return false;
    *field = static_cast<T>(v);
    return true;
}

}  // namespace detail
}  // namespace hoard

#endif  // HOARD_COMMON_ENV_H_
