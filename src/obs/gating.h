/**
 * @file
 * Observability gating (DESIGN.md; docs/OBSERVABILITY.md).
 *
 * Two independent switches decide whether the allocator records
 * anything:
 *
 *  - Compile time: the HOARD_OBS CMake option (default ON) defines the
 *    HOARD_OBS macro.  When 0, every instrumentation site in the
 *    allocator is removed by `if constexpr` on Policy::kObsEnabled and
 *    the hot paths are bit-identical to an uninstrumented build.
 *  - Run time: Config::observability, OR-ed with the HOARD_OBS
 *    environment flag (common/env.h: 1/true/on or 0/false/off; any
 *    other value is reported and ignored).  When off (the default),
 *    the only residual cost on the hot path is one predictable branch
 *    on a plain bool.
 *
 * The compile-time switch is surfaced as a Policy constant rather than
 * used directly so a single binary can instantiate both an instrumented
 * and an uninstrumented allocator (bench/micro_obs_overhead.cc measures
 * one against the other).
 */

#ifndef HOARD_OBS_GATING_H_
#define HOARD_OBS_GATING_H_

#include "common/env.h"

// Builds that bypass CMake get the instrumented default.
#ifndef HOARD_OBS
#define HOARD_OBS 1
#endif

// The sampling heap profiler gates independently (HOARD_PROFILER CMake
// option): a build can keep site attribution while dropping tracing.
#ifndef HOARD_PROFILER
#define HOARD_PROFILER 1
#endif

namespace hoard {
namespace obs {

/** True when instrumentation is compiled into this build. */
inline constexpr bool kCompiledIn = HOARD_OBS != 0;

/** True when the sampling heap profiler is compiled into this build. */
inline constexpr bool kProfilerCompiledIn = HOARD_PROFILER != 0;

/** True when the HOARD_OBS environment flag requests tracing.  Read
    once per process, so a bad value is reported once. */
inline bool
env_enabled()
{
    static const bool enabled = [] {
        bool on = false;
        detail::env_flag("HOARD_OBS", &on);
        return on;
    }();
    return enabled;
}

/** True when the HOARD_LATENCY environment flag arms the latency
    histograms. */
inline bool
latency_env_enabled()
{
    static const bool enabled = [] {
        bool on = false;
        detail::env_flag("HOARD_LATENCY", &on);
        return on;
    }();
    return enabled;
}

}  // namespace obs
}  // namespace hoard

#endif  // HOARD_OBS_GATING_H_
