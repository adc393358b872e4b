/**
 * @file
 * Overhead gate for the observability layer (src/obs/).
 *
 * Compares the malloc hot path (alloc/free pairs with LIFO reuse)
 * across three allocator variants in one binary:
 *
 *  - uninstrumented: a policy with kObsEnabled=false, so every obs
 *    hook and its argument computation folds out at compile time —
 *    the same code a -DHOARD_OBS=OFF build produces;
 *  - disabled: instrumentation compiled in, runtime flag off (the
 *    default production configuration);
 *  - idle sampler: tracing on with a timeline sample interval so
 *    large it never fires — the residue is the sampler's per-free
 *    cadence countdown;
 *  - enabled: tracing and lock profiling on (for reference only).
 *
 * The contract the CI gate enforces (`--check`): compiled-in-but-
 * disabled instrumentation costs less than 2% on the hot path, and
 * so does enabled-but-idle sampling relative to plain tracing-on
 * (the sampler must not tax users who enable tracing).  The same
 * budget gates the hardened free path (Config::hardened_free, the
 * production default): pointer validation on deallocate must stay
 * under 2% against a trusting build.  The sampling heap profiler
 * (obs/heap_profiler.h) gets the same treatment: compiled-in-but-
 * unarmed (rate 0, the default) must stay under the 2% budget against
 * a kProfilerEnabled=false build, and armed at the production default
 * rate (512 KiB mean between samples) under 5%
 * (HOARD_PROF_TOLERANCE_PCT).  The per-path latency histograms
 * (obs/latency.h) follow the profiler's contract: disarmed
 * (latency_histograms=false, the default) under 2% against a
 * kObsEnabled=false build, armed at the default sample period under
 * 5% (HOARD_LAT_TOLERANCE_PCT).
 * Measurements interleave repetitions across variants and compare
 * medians, so clock drift and frequency steps cancel instead of
 * biasing one variant.  Each repetition constructs a fresh allocator:
 * superblock placement (and with it cache-set luck) is re-rolled per
 * rep, so the median samples placement noise instead of freezing one
 * lucky or unlucky layout into the verdict.
 *
 *   ./build/bench/micro_obs_overhead            # report only
 *   ./build/bench/micro_obs_overhead --check    # exit 1 over budget
 *
 * Environment knobs: HOARD_OBS_TOLERANCE_PCT (default 2),
 * HOARD_OBS_OPS (pairs per repetition, default 2000000),
 * HOARD_OBS_REPS (default 9).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "core/hoard_allocator.h"
#include "os/page_provider.h"
#include "os/reserved_arena.h"
#include "policy/native_policy.h"

namespace {

using namespace hoard;

/** NativePolicy with the observability layer compiled out. */
struct NoObsPolicy : NativePolicy
{
    static constexpr bool kObsEnabled = false;
};

/**
 * NativePolicy with only the heap profiler compiled out — the
 * baseline that isolates the profiler's fast-path hook (the byte
 * countdown in HoardAllocator::profile_alloc) from the rest of the
 * observability layer, which stays identical on both sides.
 */
struct NoProfPolicy : NativePolicy
{
    static constexpr bool kProfilerEnabled = false;
};

/** Keeps the allocation from being optimized away. */
inline void
keep(void* p)
{
    asm volatile("" : : "r"(p) : "memory");
}

/** ns per alloc/free pair over @p pairs LIFO pairs at 64 bytes. */
template <typename AllocatorT>
double
time_pairs(AllocatorT& allocator, std::size_t pairs)
{
    // Warm the size class so the loop never maps fresh superblocks.
    void* warm = allocator.allocate(64);
    allocator.deallocate(warm);

    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < pairs; ++i) {
        void* p = allocator.allocate(64);
        keep(p);
        allocator.deallocate(p);
    }
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(pairs);
}

/**
 * ns per alloc/free pair on the huge-object path (above the largest
 * size class, so every pair maps and unmaps a dedicated span and
 * registers in the striped huge list).  Regression guard for the
 * slow-path sharding work: huge registration must cost only a striped
 * lock — uninstrumented and compiled-in-but-disabled builds have to
 * stay within the same overhead budget as the malloc hot path.
 */
template <typename AllocatorT>
double
time_huge_pairs(AllocatorT& allocator, std::size_t pairs)
{
    constexpr std::size_t kHugeBytes = 16384;
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < pairs; ++i) {
        void* p = allocator.allocate(kHugeBytes);
        keep(p);
        allocator.deallocate(p);
    }
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(pairs);
}

/**
 * ns per map/touch/unmap round trip of an S-aligned superblock span
 * straight against a page provider — the cost a fresh-superblock miss
 * pays below the allocator.  The touch forces the first page fault so
 * a provider that merely defers work to the first access cannot win
 * by cheating.  The reserved-arena provider recycles spans from its
 * free stacks (unmap = one madvise, map = lock-free pop with no
 * syscall); the mmap provider pays a full mmap/munmap VMA round trip
 * per pair.
 */
double
time_span_pairs(os::PageProvider& provider, std::size_t pairs)
{
    constexpr std::size_t kSpan = 64 * 1024;
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < pairs; ++i) {
        void* p = provider.map(kSpan, kSpan);
        keep(p);
        *static_cast<volatile char*>(p) = 1;
        provider.unmap(p, kSpan);
    }
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(pairs);
}

/**
 * Best-of-reps: the minimum is the standard noise-robust estimator
 * for tight timing loops — every source of interference (scheduler,
 * frequency steps, unlucky superblock placement) only ever adds time,
 * so the smallest sample is the closest to the true cost.
 */
double
best(const std::vector<double>& v)
{
    return *std::min_element(v.begin(), v.end());
}

/**
 * Median of per-rep paired overhead percentages.  Each rep times the
 * pair in ABBA order (baseline, variant, variant, baseline), so any
 * linear drift across the rep — thermal throttle, frequency ramp —
 * cancels exactly; the median across reps then discards the reps a
 * scheduler spike or unlucky superblock placement corrupted.
 * Comparing two independent best-of estimates instead flaps by a few
 * percent on a busy machine, wider than the budget being enforced.
 */
double
median_paired_pct(const std::vector<double>& baseline,
                  const std::vector<double>& variant)
{
    // baseline/variant hold two measurements per rep (ABBA order).
    std::vector<double> pct;
    pct.reserve(baseline.size() / 2);
    for (std::size_t r = 0; r + 1 < baseline.size(); r += 2) {
        const double b = baseline[r] + baseline[r + 1];
        const double v = variant[r] + variant[r + 1];
        pct.push_back((v - b) / b * 100.0);
    }
    std::sort(pct.begin(), pct.end());
    return pct[pct.size() / 2];
}

double
env_double(const char* name, double fallback)
{
    const char* s = std::getenv(name);
    if (s == nullptr || *s == '\0')
        return fallback;
    char* end = nullptr;
    double v = std::strtod(s, &end);
    return end == s ? fallback : v;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0)
            check = true;
    }

    const auto pairs = static_cast<std::size_t>(
        env_double("HOARD_OBS_OPS", 2e6));
    const int reps =
        static_cast<int>(env_double("HOARD_OBS_REPS", 9));
    const double tolerance_pct =
        env_double("HOARD_OBS_TOLERANCE_PCT", 2.0);

    Config config;
    config.heap_count = 4;
    Config unhardened_config = config;
    unhardened_config.hardened_free = false;
    Config traced_config = config;
    traced_config.observability = true;
    Config idle_sampler_config = traced_config;
    // An interval no steady_clock timestamp reaches: the cadence
    // countdown and claim check run, the sample never fires.
    idle_sampler_config.obs_sample_interval =
        std::numeric_limits<std::uint64_t>::max() / 2;
    Config armed_prof_config = config;
    // The production default documented in docs/PROFILING.md.
    armed_prof_config.profile_sample_rate = std::size_t{512} * 1024;
    const double prof_tolerance_pct =
        env_double("HOARD_PROF_TOLERANCE_PCT", 5.0);
    Config armed_lat_config = config;
    // Armed at the default fast-path sample period (Config doc).
    armed_lat_config.latency_histograms = true;
    const double lat_tolerance_pct =
        env_double("HOARD_LAT_TOLERANCE_PCT", 5.0);

    // Each rep times every variant twice in ABBA order per gated
    // pair, on a fresh allocator per measurement (placement re-rolled
    // each time); see median_paired_pct.
    std::vector<double> base_ns, disabled_ns, idle_ns, enabled_ns;
    std::vector<double> base_huge_ns, disabled_huge_ns;
    std::vector<double> unhardened_ns, hardened_ns;
    std::vector<double> noprof_off_ns, prof_off_ns;
    std::vector<double> noprof_on_ns, prof_on_ns;
    std::vector<double> nolat_off_ns, lat_off_ns;
    std::vector<double> nolat_on_ns, lat_on_ns;
    // Each huge pair is an mmap/munmap round trip; scale the count so
    // the huge loop costs about as much wall clock as the hot path.
    const std::size_t huge_pairs = pairs / 256 + 1;
    auto run_base = [&] {
        HoardAllocator<NoObsPolicy> uninstrumented(config);
        base_ns.push_back(time_pairs(uninstrumented, pairs));
        base_huge_ns.push_back(
            time_huge_pairs(uninstrumented, huge_pairs));
    };
    auto run_disabled = [&] {
        HoardAllocator<NativePolicy> disabled(config);
        disabled_ns.push_back(time_pairs(disabled, pairs));
        disabled_huge_ns.push_back(
            time_huge_pairs(disabled, huge_pairs));
    };
    auto run_idle = [&] {
        HoardAllocator<NativePolicy> idle(idle_sampler_config);
        idle_ns.push_back(time_pairs(idle, pairs));
    };
    auto run_enabled = [&] {
        HoardAllocator<NativePolicy> enabled(traced_config);
        enabled_ns.push_back(time_pairs(enabled, pairs));
    };
    // Hardened-free pair: both uninstrumented, so the comparison
    // isolates the deallocate-side pointer validation.
    auto run_unhardened = [&] {
        HoardAllocator<NoObsPolicy> trusting(unhardened_config);
        unhardened_ns.push_back(time_pairs(trusting, pairs));
    };
    auto run_hardened = [&] {
        HoardAllocator<NoObsPolicy> hardened(config);
        hardened_ns.push_back(time_pairs(hardened, pairs));
    };
    // Profiler pairs: the compiled-out baseline appears once per gated
    // variant so each ABBA quartet is self-contained.
    auto run_noprof_off = [&] {
        HoardAllocator<NoProfPolicy> noprof(config);
        noprof_off_ns.push_back(time_pairs(noprof, pairs));
    };
    auto run_prof_off = [&] {
        HoardAllocator<NativePolicy> prof_off(config);
        prof_off_ns.push_back(time_pairs(prof_off, pairs));
    };
    auto run_noprof_on = [&] {
        HoardAllocator<NoProfPolicy> noprof(config);
        noprof_on_ns.push_back(time_pairs(noprof, pairs));
    };
    auto run_prof_on = [&] {
        HoardAllocator<NativePolicy> prof_on(armed_prof_config);
        prof_on_ns.push_back(time_pairs(prof_on, pairs));
    };
    // Latency-histogram pairs: same quartet shape as the profiler's.
    // The disarmed leg's baseline is kObsEnabled=false — the null
    // check on latency_ is part of what the 2% budget buys.
    auto run_nolat_off = [&] {
        HoardAllocator<NoObsPolicy> nolat(config);
        nolat_off_ns.push_back(time_pairs(nolat, pairs));
    };
    auto run_lat_off = [&] {
        HoardAllocator<NativePolicy> lat_off(config);
        lat_off_ns.push_back(time_pairs(lat_off, pairs));
    };
    auto run_nolat_on = [&] {
        HoardAllocator<NoObsPolicy> nolat(config);
        nolat_on_ns.push_back(time_pairs(nolat, pairs));
    };
    auto run_lat_on = [&] {
        HoardAllocator<NativePolicy> lat_on(armed_lat_config);
        lat_on_ns.push_back(time_pairs(lat_on, pairs));
    };
    // Fresh-map quartet (page layer): superblock-span round trips
    // against each provider.  Fresh providers per measurement, like
    // the allocator pairs; the arena provider's one-time reservation
    // is amortized inside its own measurement, which only makes the
    // gate harder to pass.
    std::vector<double> mmap_span_ns, arena_span_ns;
    auto run_mmap_span = [&] {
        os::MmapPageProvider mmap_provider;
        mmap_span_ns.push_back(
            time_span_pairs(mmap_provider, huge_pairs));
    };
    auto run_arena_span = [&] {
        os::ReservedArenaProvider arena_provider;
        arena_span_ns.push_back(
            time_span_pairs(arena_provider, huge_pairs));
    };
    for (int r = 0; r < reps; ++r) {
        run_base();
        run_disabled();
        run_disabled();
        run_base();
        run_enabled();
        run_idle();
        run_idle();
        run_enabled();
        run_unhardened();
        run_hardened();
        run_hardened();
        run_unhardened();
        run_noprof_off();
        run_prof_off();
        run_prof_off();
        run_noprof_off();
        run_noprof_on();
        run_prof_on();
        run_prof_on();
        run_noprof_on();
        run_nolat_off();
        run_lat_off();
        run_lat_off();
        run_nolat_off();
        run_nolat_on();
        run_lat_on();
        run_lat_on();
        run_nolat_on();
        run_mmap_span();
        run_arena_span();
        run_arena_span();
        run_mmap_span();
    }

    const double base = best(base_ns);
    const double off = best(disabled_ns);
    const double idle = best(idle_ns);
    const double on = best(enabled_ns);
    const double off_pct = median_paired_pct(base_ns, disabled_ns);
    const double huge_base = best(base_huge_ns);
    const double huge_off = best(disabled_huge_ns);
    const double huge_off_pct =
        median_paired_pct(base_huge_ns, disabled_huge_ns);
    const double on_pct = (on - base) / base * 100.0;
    // The idle sampler rides on tracing-on, so its budget is measured
    // against the traced variant, not the uninstrumented one.
    const double idle_pct = median_paired_pct(enabled_ns, idle_ns);
    const double unhardened = best(unhardened_ns);
    const double hardened = best(hardened_ns);
    const double hardened_pct =
        median_paired_pct(unhardened_ns, hardened_ns);
    const double noprof = best(noprof_off_ns);
    const double prof_off = best(prof_off_ns);
    const double prof_off_pct =
        median_paired_pct(noprof_off_ns, prof_off_ns);
    const double prof_on = best(prof_on_ns);
    const double prof_on_pct =
        median_paired_pct(noprof_on_ns, prof_on_ns);
    const double lat_off = best(lat_off_ns);
    const double lat_off_pct =
        median_paired_pct(nolat_off_ns, lat_off_ns);
    const double lat_on = best(lat_on_ns);
    const double lat_on_pct = median_paired_pct(nolat_on_ns, lat_on_ns);
    const double mmap_span = best(mmap_span_ns);
    const double arena_span = best(arena_span_ns);
    const double arena_span_pct =
        median_paired_pct(mmap_span_ns, arena_span_ns);

    std::printf("malloc hot path, 64 B pairs, best of %d x %zu:\n",
                reps, pairs);
    std::printf("  uninstrumented (kObsEnabled=false): %7.2f ns/pair\n",
                base);
    std::printf("  instrumented, runtime off:          %7.2f ns/pair "
                "(%+.2f%%)\n",
                off, off_pct);
    std::printf("  instrumented, tracing on:           %7.2f ns/pair "
                "(%+.2f%%)\n",
                on, on_pct);
    std::printf("  tracing on + idle sampler:          %7.2f ns/pair "
                "(%+.2f%% vs tracing on)\n",
                idle, idle_pct);
    std::printf("huge-object path, 16 KiB pairs, best of %d x %zu:\n",
                reps, huge_pairs);
    std::printf("  uninstrumented (kObsEnabled=false): %7.2f ns/pair\n",
                huge_base);
    std::printf("  instrumented, runtime off:          %7.2f ns/pair "
                "(%+.2f%%)\n",
                huge_off, huge_off_pct);
    std::printf("free-path validation, 64 B pairs, best of %d x %zu:\n",
                reps, pairs);
    std::printf("  trusting free (hardened_free=false): %6.2f ns/pair\n",
                unhardened);
    std::printf("  hardened free (default):             %6.2f ns/pair "
                "(%+.2f%%)\n",
                hardened, hardened_pct);
    std::printf("heap profiler, 64 B pairs, best of %d x %zu:\n", reps,
                pairs);
    std::printf("  profiler compiled out:              %7.2f ns/pair\n",
                noprof);
    std::printf("  compiled in, rate 0 (default):      %7.2f ns/pair "
                "(%+.2f%%)\n",
                prof_off, prof_off_pct);
    std::printf("  armed at 512 KiB mean rate:         %7.2f ns/pair "
                "(%+.2f%%)\n",
                prof_on, prof_on_pct);
    std::printf("latency histograms, 64 B pairs, best of %d x %zu:\n",
                reps, pairs);
    std::printf("  disarmed (default):                 %7.2f ns/pair "
                "(%+.2f%%)\n",
                lat_off, lat_off_pct);
    std::printf("  armed at default sample period:     %7.2f ns/pair "
                "(%+.2f%%)\n",
                lat_on, lat_on_pct);
    std::printf("page layer, 64 KiB span map/touch/unmap, best of "
                "%d x %zu:\n",
                reps, huge_pairs);
    std::printf("  mmap provider (over-map + trim):    %7.2f ns/pair\n",
                mmap_span);
    std::printf("  reserved-arena provider:            %7.2f ns/pair "
                "(%+.2f%%)\n",
                arena_span, arena_span_pct);

    if (check) {
        bool failed = false;
        if (off_pct > tolerance_pct) {
            std::printf("FAIL: disabled-instrumentation overhead "
                        "%.2f%% exceeds %.2f%%\n",
                        off_pct, tolerance_pct);
            failed = true;
        } else {
            std::printf("PASS: disabled-instrumentation overhead "
                        "%.2f%% within %.2f%%\n",
                        off_pct, tolerance_pct);
        }
        if (huge_off_pct > tolerance_pct) {
            std::printf("FAIL: huge-path disabled-instrumentation "
                        "overhead %.2f%% exceeds %.2f%%\n",
                        huge_off_pct, tolerance_pct);
            failed = true;
        } else {
            std::printf("PASS: huge-path disabled-instrumentation "
                        "overhead %.2f%% within %.2f%%\n",
                        huge_off_pct, tolerance_pct);
        }
        if (idle_pct > tolerance_pct) {
            std::printf("FAIL: idle-sampler overhead %.2f%% exceeds "
                        "%.2f%%\n",
                        idle_pct, tolerance_pct);
            failed = true;
        } else {
            std::printf("PASS: idle-sampler overhead %.2f%% within "
                        "%.2f%%\n",
                        idle_pct, tolerance_pct);
        }
        if (hardened_pct > tolerance_pct) {
            std::printf("FAIL: hardened-free overhead %.2f%% exceeds "
                        "%.2f%%\n",
                        hardened_pct, tolerance_pct);
            failed = true;
        } else {
            std::printf("PASS: hardened-free overhead %.2f%% within "
                        "%.2f%%\n",
                        hardened_pct, tolerance_pct);
        }
        if (prof_off_pct > tolerance_pct) {
            std::printf("FAIL: unarmed-profiler overhead %.2f%% "
                        "exceeds %.2f%%\n",
                        prof_off_pct, tolerance_pct);
            failed = true;
        } else {
            std::printf("PASS: unarmed-profiler overhead %.2f%% within "
                        "%.2f%%\n",
                        prof_off_pct, tolerance_pct);
        }
        if (prof_on_pct > prof_tolerance_pct) {
            std::printf("FAIL: armed-profiler overhead %.2f%% exceeds "
                        "%.2f%%\n",
                        prof_on_pct, prof_tolerance_pct);
            failed = true;
        } else {
            std::printf("PASS: armed-profiler overhead %.2f%% within "
                        "%.2f%%\n",
                        prof_on_pct, prof_tolerance_pct);
        }
        if (lat_off_pct > tolerance_pct) {
            std::printf("FAIL: disarmed-latency overhead %.2f%% "
                        "exceeds %.2f%%\n",
                        lat_off_pct, tolerance_pct);
            failed = true;
        } else {
            std::printf("PASS: disarmed-latency overhead %.2f%% within "
                        "%.2f%%\n",
                        lat_off_pct, tolerance_pct);
        }
        if (lat_on_pct > lat_tolerance_pct) {
            std::printf("FAIL: armed-latency overhead %.2f%% exceeds "
                        "%.2f%%\n",
                        lat_on_pct, lat_tolerance_pct);
            failed = true;
        } else {
            std::printf("PASS: armed-latency overhead %.2f%% within "
                        "%.2f%%\n",
                        lat_on_pct, lat_tolerance_pct);
        }
        // The arena carve must beat the mmap path outright — span
        // recycling exists to delete the VMA round trip, and a
        // regression to syscall parity would silently undo the page
        // layer's reason to exist.
        if (arena_span_pct >= 0.0) {
            std::printf("FAIL: arena span carve %+.2f%% vs mmap — "
                        "must be faster\n",
                        arena_span_pct);
            failed = true;
        } else {
            std::printf("PASS: arena span carve %.2f%% faster than "
                        "mmap path\n",
                        -arena_span_pct);
        }
        if (failed)
            return 1;
    }
    return 0;
}
