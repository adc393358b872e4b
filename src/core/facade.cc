#include "core/facade.h"

#include <pthread.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <ostream>
#include <thread>

#include "common/env.h"
#include "common/mathutil.h"
#include "common/thread_exit.h"
#include "obs/trace_export.h"

namespace hoard {

HoardAllocator<NativePolicy>&
global_allocator()
{
    // Leaked singleton: outlives all static destructors that might free.
    static auto* instance = [] {
        Config config;
        unsigned hw = std::thread::hardware_concurrency();
        config.heap_count = hw == 0 ? 1 : static_cast<int>(hw);
        // Environment knobs (docs/SHIM.md), read strictly: a malformed
        // or out-of-range value is reported on stderr and the default
        // stays.  None of them can abort the process.
        //
        // HOARD_HARDENED_FREE=0 restores the trusting free path;
        // HOARD_BAD_FREE=warn counts-and-leaks instead of aborting.
        detail::env_flag("HOARD_HARDENED_FREE", &config.hardened_free);
        if (const char* v = std::getenv("HOARD_BAD_FREE")) {
            if (std::strcmp(v, "warn") == 0)
                config.on_bad_free = Config::BadFreePolicy::warn;
            else if (std::strcmp(v, "fatal") == 0)
                config.on_bad_free = Config::BadFreePolicy::fatal;
            else
                detail::report_bad_env("HOARD_BAD_FREE", v,
                                       "warn or fatal");
        }
        // Sampling heap profiler (docs/PROFILING.md): mean bytes
        // between samples, 1 samples every allocation, 0 is off.
        detail::env_number("HOARD_PROFILE_RATE",
                           &config.profile_sample_rate);
        // Per-path latency histograms (docs/OBSERVABILITY.md):
        // HOARD_LATENCY arms them (the allocator constructor also
        // checks it), HOARD_LATENCY_PERIOD is the fast-path sample
        // period (1 = every op), HOARD_LATENCY_OUTLIER the outlier
        // threshold in cycles.
        if (obs::latency_env_enabled())
            config.latency_histograms = true;
        detail::env_number("HOARD_LATENCY_PERIOD",
                           &config.latency_sample_period, 1);
        detail::env_number("HOARD_LATENCY_OUTLIER",
                           &config.latency_outlier_cycles);
        // Superblock size S (macro_rss runs the shim at 64 KiB so a
        // purged superblock gives back everything but its header).
        detail::env_number("HOARD_SUPERBLOCK_BYTES",
                           &config.superblock_bytes, 1024,
                           std::size_t{1} << 30, /*pow2=*/true);
        // Purge pass: decommit idle empty superblocks toward a
        // committed-bytes target and/or past an idle age (ns), at
        // most once per interval (ns).
        detail::env_number("HOARD_RSS_TARGET", &config.rss_target_bytes);
        detail::env_number("HOARD_PURGE_AGE", &config.purge_age_ticks);
        detail::env_number("HOARD_PURGE_INTERVAL",
                           &config.purge_interval_ticks, 1);
        // HOARD_BG and HOARD_BG_INTERVAL armed and paced the removed
        // background engine; a process that still sets them is told.
        for (const char* name : {"HOARD_BG", "HOARD_BG_INTERVAL"}) {
            if (const char* v = std::getenv(name))
                detail::report_bad_env(
                    name, v,
                    "unset: the background engine was removed");
        }
        // HOARD_TIMELINE=<path> arms the gauge time-series sampler so
        // the LD_PRELOAD shim can dump the timeline there at exit
        // (docs/SHIM.md); the 1 ms default interval keeps a long run's
        // ring meaningful without measurable sampling cost.
        if (const char* v = std::getenv("HOARD_TIMELINE")) {
            if (v[0] != '\0') {
                config.observability = true;
                if (config.obs_sample_interval == 0)
                    config.obs_sample_interval = 1000000;
            }
        }
        return new HoardAllocator<NativePolicy>(config);
    }();
    return *instance;
}

void*
hoard_malloc(std::size_t size)
{
    void* p = global_allocator().allocate(size == 0 ? 1 : size);
    if (p == nullptr)
        errno = ENOMEM;  // POSIX requires it; callers test errno
    return p;
}

void
hoard_free(void* p)
{
    global_allocator().deallocate(p);
}

void*
hoard_calloc(std::size_t count, std::size_t size)
{
    if (size != 0 &&
        count > std::numeric_limits<std::size_t>::max() / size) {
        errno = ENOMEM;  // multiplication would overflow
        return nullptr;
    }
    std::size_t bytes = count * size;
    // Small blocks are cleared whole.  A huge span mapped afresh is
    // zero already; a medium span recycled committed from the span
    // cache is cleared as far as its earlier requests reached.
    void* p = global_allocator().allocate_zeroed(bytes == 0 ? 1 : bytes);
    if (p == nullptr)
        errno = ENOMEM;
    return p;
}

void*
hoard_realloc(void* p, std::size_t size)
{
    void* fresh = global_allocator().reallocate(p, size);
    if (fresh == nullptr && size != 0)
        errno = ENOMEM;  // realloc(p, 0) returns nullptr by design
    return fresh;
}

void*
hoard_aligned_alloc(std::size_t align, std::size_t size)
{
    return global_allocator().allocate_aligned(size == 0 ? 1 : size,
                                               align);
}

int
hoard_posix_memalign(void** out, std::size_t align, std::size_t size)
{
    if (out == nullptr)
        return EINVAL;
    if (!detail::is_pow2(align) || align % sizeof(void*) != 0 ||
        align > global_allocator().config().superblock_bytes / 2) {
        return EINVAL;
    }
    void* p = global_allocator().allocate_aligned(size == 0 ? 1 : size,
                                                  align);
    if (p == nullptr)
        return ENOMEM;
    *out = p;
    return 0;
}

std::size_t
hoard_usable_size(const void* p)
{
    return global_allocator().usable_size(p);
}

std::size_t
hoard_release_free_memory()
{
    return global_allocator().release_free_memory();
}

std::size_t
hoard_purge(bool force)
{
    return global_allocator().purge(force);
}

std::size_t
hoard_committed_bytes()
{
    return global_allocator().stats().committed_bytes.current();
}

std::size_t
hoard_reserved_bytes()
{
    return global_allocator().provider().reserved_bytes();
}

std::size_t
hoard_purged_bytes()
{
    return global_allocator().stats().purged_bytes.current();
}

namespace {

/**
 * Fork lock order (outermost first): the magazine liveness registry —
 * exit flushes hold it around pinning and can precede heap locks —
 * then every lock of the global instance (HoardAllocator::
 * prepare_fork documents its internal order).  Parent unlocks in
 * reverse; the child also repairs torn state (child_after_fork).
 */
void
fork_prepare()
{
    detail::magazine_registry_prepare_fork();
    global_allocator().prepare_fork();
}

void
fork_parent()
{
    global_allocator().parent_after_fork();
    detail::magazine_registry_parent_after_fork();
}

void
fork_child()
{
    global_allocator().child_after_fork();
    detail::magazine_registry_child_after_fork();
    detail::stat_shards_child_after_fork();
}

}  // namespace

void
hoard_install_atfork()
{
    static const int installed = [] {
        global_allocator();  // construct before any fork can happen
        return pthread_atfork(&fork_prepare, &fork_parent, &fork_child);
    }();
    (void)installed;
}

const detail::AllocatorStats&
hoard_stats()
{
    return global_allocator().stats();
}

obs::AllocatorSnapshot
hoard_snapshot()
{
    return global_allocator().take_snapshot();
}

const obs::EventRecorder*
hoard_event_recorder()
{
    return global_allocator().recorder();
}

std::size_t
hoard_write_chrome_trace(std::ostream& os)
{
    const obs::EventRecorder* recorder = hoard_event_recorder();
    if (recorder == nullptr) {
        static const obs::EventRecorder empty{2};
        obs::write_chrome_trace(os, empty);
        return 0;
    }
    obs::write_chrome_trace(os, *recorder);
    return recorder->collect().size();
}

void
hoard_write_prometheus(std::ostream& os)
{
    obs::write_prometheus(os, hoard_snapshot());
    if (const obs::HeapProfiler* prof = hoard_profiler())
        prof->write_prometheus(os);
}

const obs::HeapProfiler*
hoard_profiler()
{
    return global_allocator().profiler();
}

const obs::LatencyCollector*
hoard_latency()
{
    return global_allocator().latency();
}

bool
hoard_write_heap_profile(std::ostream& os)
{
    const obs::HeapProfiler* prof = hoard_profiler();
    if (prof == nullptr)
        return false;
    prof->write_pprof_profile(os);
    return true;
}

bool
hoard_write_timeline(std::ostream& os)
{
    HoardAllocator<NativePolicy>& allocator = global_allocator();
    if (allocator.sampler() == nullptr)
        return false;
    allocator.sample_now();
    obs::write_timeseries_jsonl(os, *allocator.sampler());
    return true;
}

std::size_t
hoard_write_leak_report(std::ostream& os)
{
    const obs::HeapProfiler* prof = hoard_profiler();
    if (prof == nullptr) {
        os << "hoard leak report: profiler disabled "
              "(set HOARD_PROFILE_RATE)\n";
        return 0;
    }
    return prof->write_leak_report(os);
}

}  // namespace hoard
