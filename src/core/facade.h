/**
 * @file
 * C-style convenience API over a process-wide native Hoard instance.
 *
 * This is the "drop-in" face of the library: hoard_malloc/hoard_free
 * mirror malloc/free semantics (including calloc zeroing, realloc
 * content preservation, and C11 aligned allocation) on top of
 * HoardAllocator<NativePolicy>.  The global instance is created on first
 * use and intentionally never destroyed (static-destruction-order safe).
 */

#ifndef HOARD_CORE_FACADE_H_
#define HOARD_CORE_FACADE_H_

#include <cstddef>
#include <iosfwd>

#include "common/stats.h"
#include "core/hoard_allocator.h"
#include "policy/native_policy.h"

namespace hoard {

/** The process-wide native allocator behind the C-style API. */
HoardAllocator<NativePolicy>& global_allocator();

/** malloc: allocates @p size bytes (size 0 yields a unique pointer). */
void* hoard_malloc(std::size_t size);

/** free: releases @p p; nullptr is a no-op. */
void hoard_free(void* p);

/** calloc: allocates @p count * @p size zeroed bytes. */
void* hoard_calloc(std::size_t count, std::size_t size);

/** realloc with malloc-compatible edge cases. */
void* hoard_realloc(void* p, std::size_t size);

/**
 * aligned allocation: nullptr with errno EINVAL when @p align is not a
 * power of two, and with ENOMEM when it exceeds S/2 (an object aligned
 * to S would sit where the free path looks for its header) or memory
 * is exhausted.
 */
void* hoard_aligned_alloc(std::size_t align, std::size_t size);

/**
 * POSIX-style aligned allocation: stores the block in *out and returns
 * 0, EINVAL for a bad alignment (not a power of two, or not a multiple
 * of sizeof(void*)), or ENOMEM for one beyond S/2 and on exhaustion.
 */
int hoard_posix_memalign(void** out, std::size_t align, std::size_t size);

/** Usable bytes behind @p p. */
std::size_t hoard_usable_size(const void* p);

/**
 * malloc_trim analog: drains thread caches and returns every
 * completely-empty superblock to the OS.  Returns the bytes released.
 * Useful for long-running servers reacting to memory-pressure signals;
 * also invoked automatically (once) before any allocation reports OOM.
 */
std::size_t hoard_release_free_memory();

/**
 * Runs one purge pass over the global instance: decommits idle
 * completely-empty superblocks (madvise) while keeping them mapped and
 * formatted for O(1) revival.  @p force ignores the age/RSS
 * thresholds and purges every idle empty.  Returns the bytes
 * decommitted.  Milder than hoard_release_free_memory(): the address
 * space and superblock metadata survive, so a later burst pays page
 * faults instead of map syscalls.  Automatic passes ride the free
 * path when HOARD_PURGE_AGE or HOARD_RSS_TARGET is set (docs/SHIM.md).
 */
std::size_t hoard_purge(bool force);

/** Committed bytes of the global instance — the RSS ground truth. */
std::size_t hoard_committed_bytes();

/** Reserved virtual address space of the global instance's provider. */
std::size_t hoard_reserved_bytes();

/** Held-but-decommitted bytes (committed + purged == held). */
std::size_t hoard_purged_bytes();

/**
 * Registers pthread_atfork handlers that make the global instance
 * fork-safe in a multithreaded parent: the prepare handler acquires
 * the magazine liveness registry, every allocator lock in a fixed
 * total order, and then the page provider's locks, so the child never
 * inherits a lock frozen in a half-held state; the child handler
 * additionally resets the reuse
 * cache's popper protocol and recounts the gauges (docs/SHIM.md).
 * Idempotent — only the first call registers.  Forces construction of
 * the global instance, so call it early (the LD_PRELOAD shim does, in
 * a constructor).
 */
void hoard_install_atfork();

/** Statistics of the global instance. */
const detail::AllocatorStats& hoard_stats();

/// @name Observability of the global instance (src/obs/).
/// @{

/** Per-heap snapshot; works whether or not tracing is enabled. */
obs::AllocatorSnapshot hoard_snapshot();

/**
 * Event recorder of the global instance, or nullptr unless tracing was
 * enabled (HOARD_OBS env var at first use, with HOARD_OBS compiled in).
 */
const obs::EventRecorder* hoard_event_recorder();

/**
 * Writes the retained trace as Chrome trace JSON.  Returns the number
 * of events written (0 with a valid-but-empty document when tracing is
 * off).
 */
std::size_t hoard_write_chrome_trace(std::ostream& os);

/**
 * Writes a snapshot as Prometheus text exposition, with the heap
 * profiler's fragmentation telemetry appended when it is armed.
 */
void hoard_write_prometheus(std::ostream& os);

/**
 * The global instance's sampling heap profiler, or nullptr unless it
 * was armed (HOARD_PROFILE_RATE env var at first use, with
 * HOARD_PROFILER compiled in).
 */
const obs::HeapProfiler* hoard_profiler();

/**
 * The global instance's per-path latency collector, or nullptr unless
 * armed (Config::latency_histograms or the HOARD_LATENCY env var at
 * first use, with HOARD_OBS compiled in).
 */
const obs::LatencyCollector* hoard_latency();

/**
 * Serializes the heap profile in pprof profile.proto wire format
 * (uncompressed; `pprof -http=: <file>` renders it).  Returns false
 * without writing when the profiler is off.
 */
bool hoard_write_heap_profile(std::ostream& os);

/**
 * Writes the end-of-run leak report (sampled sites with live bytes,
 * symbolized best-effort).  Returns the number of leaking sites, 0
 * when the profiler is off.
 */
std::size_t hoard_write_leak_report(std::ostream& os);

/**
 * Takes one final sample and writes the gauge timeline
 * (hoard-timeline-v7 JSONL) of the global instance, or returns false
 * when the sampler is disarmed.  Armed by Config::obs_sample_interval
 * or the HOARD_TIMELINE env var at first use; the LD_PRELOAD shim
 * dumps to the HOARD_TIMELINE path at process exit.
 */
bool hoard_write_timeline(std::ostream& os);

/// @}

}  // namespace hoard

#endif  // HOARD_CORE_FACADE_H_
