/**
 * @file
 * Thread-safe statistic counters and high-water-mark gauges.
 *
 * Every allocator in this repository exports the same AllocatorStats
 * block; the fragmentation and blowup tables (TBL-frag, TBL-blowup in
 * DESIGN.md) are computed straight from these gauges.
 */

#ifndef HOARD_COMMON_STATS_H_
#define HOARD_COMMON_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/failure.h"

namespace hoard {
namespace detail {

/**
 * Monotonic event counter.  Relaxed ordering: counters are diagnostics,
 * never synchronization.
 */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/**
 * Signed level gauge with a high-water mark.  add()/sub() move the
 * current level; peak() is maintained with a CAS-max loop.
 */
class Gauge
{
  public:
    void
    add(std::uint64_t n)
    {
        std::uint64_t now =
            cur_.fetch_add(n, std::memory_order_relaxed) + n;
        std::uint64_t seen = peak_.load(std::memory_order_relaxed);
        while (now > seen &&
               !peak_.compare_exchange_weak(seen, now,
                                            std::memory_order_relaxed)) {
        }
    }

    /**
     * Lowers the level by @p n.  Subtracting more than the current
     * level would wrap the unsigned counter and poison every derived
     * metric (fragmentation, footprint tables), so debug builds treat
     * it as a caller bug.  The check reads the level racily; under
     * concurrent mutation it can only under-report, never false-fire
     * on a balanced add/sub history.
     */
    void
    sub(std::uint64_t n)
    {
        HOARD_DCHECK(n <= cur_.load(std::memory_order_relaxed));
        cur_.fetch_sub(n, std::memory_order_relaxed);
    }

    std::uint64_t current() const { return cur_.load(std::memory_order_relaxed); }
    std::uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

    /**
     * Overwrites the level (peak still ratchets up).  For single-
     * threaded repair paths — the post-fork child recomputes gauges
     * from the heap structures after add/sub histories tore across
     * fork() — not for concurrent accounting.
     */
    void
    set(std::uint64_t n)
    {
        cur_.store(n, std::memory_order_relaxed);
        std::uint64_t seen = peak_.load(std::memory_order_relaxed);
        while (n > seen &&
               !peak_.compare_exchange_weak(seen, n,
                                            std::memory_order_relaxed)) {
        }
    }

    void
    reset()
    {
        cur_.store(0, std::memory_order_relaxed);
        peak_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> cur_{0};
    std::atomic<std::uint64_t> peak_{0};
};

/** Statistics block shared by every allocator implementation. */
struct AllocatorStats
{
    Counter allocs;              ///< calls to allocate()
    Counter frees;               ///< calls to deallocate()
    Gauge requested_bytes;       ///< exact bytes the client asked for
    Gauge in_use_bytes;          ///< block-rounded bytes currently live (U)
    Gauge held_bytes;            ///< bytes held in superblocks (A)
    Gauge committed_bytes;       ///< OS-committed bytes (RSS ground truth);
                                 ///< held_bytes == committed + purged
    Gauge purged_bytes;          ///< held bytes whose pages were returned
                                 ///< to the OS by the purge pass
    Gauge cached_bytes;          ///< bytes parked in thread caches
    Counter superblock_allocs;   ///< fresh superblocks fetched from the OS
    Counter superblock_transfers;///< per-proc heap -> global heap moves
    Counter global_fetches;      ///< superblocks pulled from the global heap
    Counter huge_allocs;         ///< allocations > S/2 served directly
    Counter oom_reclaims;        ///< map failures answered by reclaiming
    Counter oom_failures;        ///< allocations that failed even after reclaim
    Counter remote_frees;        ///< frees pushed to a busy owner's queue
    Counter remote_drains;       ///< blocks drained from remote queues
    Counter batch_refills;       ///< magazine refills (one lock each)
    Counter batch_flushes;       ///< magazine spills/flushes (batched)
    Counter global_bin_hits;     ///< fetches served by a per-class global bin
    Counter global_bin_misses;   ///< bin probes that found the class empty
    Counter cache_pushes;        ///< empty superblocks pushed to the reuse cache
    Counter cache_pops;          ///< empty superblocks popped from the reuse cache
    Counter purge_passes;        ///< purge sweeps over idle superblocks
    Counter purged_superblocks;  ///< superblock payloads decommitted by purge
    Counter revived_superblocks; ///< purged superblocks put back into service
    Counter bad_free_wild;       ///< frees of pointers outside any superblock
    Counter bad_free_foreign;    ///< frees of another allocator's memory
    Counter bad_free_interior;   ///< frees of misaligned/interior pointers
    Counter bad_free_double;     ///< frees of blocks already free
    Counter bg_wakeups;          ///< background-worker passes started
    Counter bg_refills;          ///< superblocks the worker formatted into bins
    Counter bg_purges;           ///< purge passes run on the worker's cadence

    /**
     * Fragmentation as the paper reports it: maximum memory held by the
     * allocator divided by maximum memory in use by the program.
     */
    double
    fragmentation() const
    {
        std::uint64_t u = in_use_bytes.peak();
        return u == 0 ? 1.0
                      : static_cast<double>(held_bytes.peak()) /
                            static_cast<double>(u);
    }
};

}  // namespace detail
}  // namespace hoard

#endif  // HOARD_COMMON_STATS_H_
