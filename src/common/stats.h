/**
 * @file
 * Thread-safe statistic counters and high-water-mark gauges.
 *
 * Every allocator in this repository exports the same AllocatorStats
 * block; the fragmentation and blowup tables (TBL-frag, TBL-blowup in
 * DESIGN.md) are computed straight from these gauges.
 *
 * The statistics a malloc/free pair bumps (allocs, frees, in_use_bytes,
 * remote_frees) are *sharded*: each live OS thread owns a cache-line-
 * padded shard that no other live thread writes, updates it with a
 * plain load and store, and readers fold the shards.  Shards are
 * recycled when threads exit; a thread that finds every owned shard
 * taken uses the shared overflow shard with atomic read-modify-writes
 * (stat_shard()).  This follows scalloc's rule that every global
 * structure on the allocation path must scale (PAPERS.md).  The
 * slow-path gauges and counters stay single atomics.
 */

#ifndef HOARD_COMMON_STATS_H_
#define HOARD_COMMON_STATS_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/failure.h"
#include "common/memutil.h"
#include "common/thread_exit.h"

namespace hoard {
namespace detail {

/**
 * Shards per sharded statistic (power of two): kStatShards - 1 owned
 * shards, each written by at most one live OS thread, and the shared
 * overflow shard kOverflowShard.
 */
inline constexpr unsigned kStatShards = 32;
inline constexpr unsigned kOverflowShard = kStatShards - 1;

/**
 * The calling OS thread's shard plus one, 0 before its first claim.
 * Initial-exec TLS: one thread-pointer-relative load even inside
 * libhoard.so, and a first touch that can never call malloc.
 */
inline unsigned&
stat_shard_tls()
{
    static thread_local unsigned t_shard
        __attribute__((tls_model("initial-exec"))) = 0;
    return t_shard;
}

/**
 * The calling OS thread's statistic shard.  A thread claims the first
 * free owned shard on first use (stat_shard_claim) and releases it from
 * its exit hook (common/thread_exit.h); a later thread takes it over
 * with the values it holds, so sums stay exact.  While every owned
 * shard is taken, and after its own exit hook has run, a thread uses
 * the overflow shard, which takes atomic read-modify-writes.  Keyed by
 * OS thread, not Policy::thread_index(): simulator fibers share their
 * host thread's shard, and a fiber never switches inside an update, so
 * every simulated figure stays exact.
 */
inline unsigned
stat_shard()
{
    const unsigned t = stat_shard_tls();
    if (t != 0) [[likely]]
        return t - 1;
    return stat_shard_claim();
}

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

/**
 * Counter sharded per thread (stat_shard()): add() is a plain load and
 * store on the caller's owned line (an atomic add on the overflow
 * shard), get() folds every shard.  Exact whenever no add() is in
 * flight.
 */
class ShardedCounter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        const unsigned shard = stat_shard();
        std::atomic<std::uint64_t>& v = slots_[shard].v;
        if (shard != kOverflowShard) [[likely]]
            v.store(v.load(std::memory_order_relaxed) + n,
                    std::memory_order_relaxed);
        else
            v.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    get() const
    {
        std::uint64_t sum = 0;
        for (const Slot& s : slots_)
            sum += s.v.load(std::memory_order_relaxed);
        return sum;
    }

    void
    reset()
    {
        for (Slot& s : slots_)
            s.v.store(0, std::memory_order_relaxed);
    }

    /** The calling thread's shard (tests check the line layout). */
    const void* my_shard() const { return &slots_[stat_shard()]; }

  private:
    struct alignas(kCacheLineBytes) Slot
    {
        std::atomic<std::uint64_t> v{0};
    };
    Slot slots_[kStatShards];
};

/**
 * Level gauge with a high-water mark, sharded per thread.  Each shard
 * keeps a pending delta p and its high-water h (the largest p since the
 * shard's last flush).  A shard flushes p into the shared base once p
 * reaches +kFlushBytes or falls kFlushBytes below h; the flush records
 * base + h as a peak candidate and restarts p = h = 0.  So
 *
 *     current() = base + sum(p)
 *     peak()    = max(recorded, base + sum(h))
 *
 * and between operations every shard has -T < p <= h < T (T =
 * kFlushBytes) with h - p < T.
 *
 * Contract:
 *  - current() is exact whenever no operation is in flight.  Under
 *    concurrent updates it is off by at most the operations in flight
 *    and is clamped at 0.
 *  - peak() is exact when one thread makes every update (one shard
 *    moves: each flush records its epoch's maximum base + h, and the
 *    open epoch's is base + h).  That includes the simulator, whose
 *    fibers share one host thread.
 *  - With n active shards (shards written since they were last zeroed)
 *    it lies within n * T of the true peak P of the folded level, up to
 *    operations in flight: every value base takes is a flush's
 *    base + p <= base + h <= recorded, so peak() >= base(t) =
 *    L(t) - sum p(t) > P - n*T at the peak time t; and every candidate
 *    and the read term exceed a level the gauge really held by less
 *    than one T per shard.  Threads that use one shard in turn (a
 *    recycled owned shard) or at once (the overflow shard) merge into
 *    one update stream: current() stays exact and the bound counts the
 *    shard once.
 */
class ShardedGauge
{
  public:
    /** Flush threshold T of the per-shard pending delta. */
    static constexpr std::int64_t kFlushBytes = 16 * 1024;

    void add(std::uint64_t n) { move(static_cast<std::int64_t>(n)); }
    void sub(std::uint64_t n) { move(-static_cast<std::int64_t>(n)); }

    std::uint64_t
    current() const
    {
        std::int64_t level = base_.load(std::memory_order_relaxed);
        for (const Shard& s : shards_)
            level += s.pending.load(std::memory_order_relaxed);
        return level > 0 ? static_cast<std::uint64_t>(level) : 0;
    }

    std::uint64_t
    peak() const
    {
        const std::int64_t open = open_peak();
        const std::uint64_t recorded =
            recorded_.load(std::memory_order_relaxed);
        return open > 0 && static_cast<std::uint64_t>(open) > recorded
                   ? static_cast<std::uint64_t>(open)
                   : recorded;
    }

    /**
     * Overwrites the level and clears every shard (peak still ratchets
     * up).  Single-threaded repair only, like Gauge::set.
     */
    void
    set(std::uint64_t n)
    {
        record(open_peak());
        clear_shards();
        base_.store(static_cast<std::int64_t>(n),
                    std::memory_order_relaxed);
        record(static_cast<std::int64_t>(n));
    }

    void
    reset()
    {
        clear_shards();
        base_.store(0, std::memory_order_relaxed);
        recorded_.store(0, std::memory_order_relaxed);
    }

    /** The calling thread's shard (tests check the line layout). */
    const void* my_shard() const { return &shards_[stat_shard()]; }

  private:
    struct alignas(kCacheLineBytes) Shard
    {
        std::atomic<std::int64_t> pending{0};
        std::atomic<std::int64_t> high{0};
    };

    /** Owned shards inline: this thread is the shard's only writer. */
    void
    move(std::int64_t delta)
    {
        const unsigned shard = stat_shard();
        if (shard == kOverflowShard) [[unlikely]] {
            move_shared(delta);
            return;
        }
        Shard& s = shards_[shard];
        const std::int64_t p =
            s.pending.load(std::memory_order_relaxed) + delta;
        s.pending.store(p, std::memory_order_relaxed);
        const std::int64_t high = s.high.load(std::memory_order_relaxed);
        if (p > high) {
            s.high.store(p, std::memory_order_relaxed);
            if (p >= kFlushBytes) [[unlikely]]
                flush(s);
        } else if (p <= high - kFlushBytes) [[unlikely]] {
            flush(s);
        }
    }

    /** The overflow shard, which several threads may share. */
    __attribute__((noinline)) void
    move_shared(std::int64_t delta)
    {
        Shard& s = shards_[kOverflowShard];
        const std::int64_t p =
            s.pending.fetch_add(delta, std::memory_order_relaxed) + delta;
        std::int64_t high = s.high.load(std::memory_order_relaxed);
        while (p > high &&
               !s.high.compare_exchange_weak(high, p,
                                             std::memory_order_relaxed)) {
        }
        if (p >= kFlushBytes || p <= high - kFlushBytes)
            flush(s);
    }

    __attribute__((noinline)) void
    flush(Shard& s)
    {
        const std::int64_t take =
            s.pending.exchange(0, std::memory_order_relaxed);
        const std::int64_t high =
            s.high.exchange(0, std::memory_order_relaxed);
        const std::int64_t before =
            base_.fetch_add(take, std::memory_order_relaxed);
        record(before + std::max(high, take));
    }

    /** base + sum(h): the open epochs' share of the peak. */
    std::int64_t
    open_peak() const
    {
        std::int64_t open = base_.load(std::memory_order_relaxed);
        for (const Shard& s : shards_)
            open += s.high.load(std::memory_order_relaxed);
        return open;
    }

    void
    record(std::int64_t level)
    {
        if (level <= 0)
            return;
        const auto v = static_cast<std::uint64_t>(level);
        std::uint64_t seen = recorded_.load(std::memory_order_relaxed);
        while (v > seen &&
               !recorded_.compare_exchange_weak(
                   seen, v, std::memory_order_relaxed)) {
        }
    }

    void
    clear_shards()
    {
        for (Shard& s : shards_) {
            s.pending.store(0, std::memory_order_relaxed);
            s.high.store(0, std::memory_order_relaxed);
        }
    }

    Shard shards_[kStatShards];
    /// Written only by flushes, set() and reset(): off the fast path.
    alignas(kCacheLineBytes) std::atomic<std::int64_t> base_{0};
    std::atomic<std::uint64_t> recorded_{0};
};

/** Statistics block shared by every allocator implementation. */
struct AllocatorStats
{
    ShardedCounter allocs;       ///< calls to allocate()
    ShardedCounter frees;        ///< calls to deallocate()
    ShardedGauge in_use_bytes;   ///< block-rounded bytes currently live (U)
    ShardedCounter remote_frees; ///< frees pushed to a busy owner's queue
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
    Counter huge_cache_releases; ///< reuse-cache empties the huge path
                                 ///< unmapped before mapping its span
    Counter oom_reclaims;        ///< map failures answered by reclaiming
    Counter oom_failures;        ///< allocations that failed even after reclaim
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
    /// Never incremented (the allocator has no background thread);
    /// kept because perfbench/harness.h reads it by name.
    Counter bg_wakeups;
    Counter medium_reuses;       ///< medium allocations served by a span
                                 ///< parked in the span cache
    Counter medium_decommits;    ///< medium spans decommitted (freed past
                                 ///< the cache's bound, evicted, purged
                                 ///< or reclaimed)

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
