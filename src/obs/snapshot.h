/**
 * @file
 * Structured per-heap snapshots of a Hoard-style allocator.
 *
 * The paper's bounds are per-heap statements — u_i >= a_i - K*S and
 * u_i >= (1-f) a_i — but AllocatorStats only aggregates process-wide.
 * A snapshot records every heap's u_i/a_i, its superblock population
 * per size class and fullness group, and its lock-contention profile,
 * so tests and tools can assert the emptiness invariant heap by heap
 * and reconcile the per-heap totals against the global gauges.
 *
 * Snapshots are plain data: taking one (HoardAllocator::take_snapshot)
 * briefly locks each heap in turn, and the result is safe to keep,
 * ship, or diff after the allocator has moved on.  Exact reconciliation
 * against the global gauges is only guaranteed when the allocator is
 * quiesced — a concurrent allocation can land between two heap walks.
 */

#ifndef HOARD_OBS_SNAPSHOT_H_
#define HOARD_OBS_SNAPSHOT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/contention.h"

namespace hoard {
namespace obs {

/** Superblock population of one size class within one heap. */
struct ClassSnapshot
{
    int size_class = 0;
    std::uint32_t block_bytes = 0;
    std::uint64_t superblocks = 0;     ///< total across all groups
    std::uint64_t used_blocks = 0;
    std::uint64_t capacity_blocks = 0;
    /** Superblock count per fullness group (band 0 emptiest … full). */
    std::vector<std::uint64_t> group_counts;
};

/** One heap's state at snapshot time. */
struct HeapSnapshot
{
    int index = 0;             ///< 0 is the global heap
    std::uint64_t in_use = 0;  ///< u_i: block bytes handed to the program
    std::uint64_t held = 0;    ///< a_i: span bytes of owned superblocks

    /** Bytes no superblock can carve (headers + tail remainders). */
    std::uint64_t uncarved = 0;

    /** Size classes with at least one superblock present. */
    std::uint64_t active_classes = 0;

    /** Superblocks parked in the empty reuse cache (global heap only). */
    std::uint64_t empty_cached = 0;

    /** Non-empty size classes only. */
    std::vector<ClassSnapshot> classes;

    /** Heap-lock contention profile (zeros when obs is compiled out). */
    LockStats lock;

    /**
     * Emptiness-invariant check in the form the algorithm guarantees at
     * an arbitrary instant (mirrors HoardAllocator::check_heap; the
     * allowance terms are discussed there and in DESIGN.md):
     *
     *   u + K*S + S >= a, or
     *   u >= (1-t) * (a - allowance) - (K*S + S)
     *
     * with allowance = uncarved + (active_classes * F + 1) * S, where
     * F is Config::global_fetch_batch: an allocation may batch-pull up
     * to F partial superblocks per class from the global bins between
     * frees (enforcement runs on free only).  Not meaningful for the
     * global heap (index 0), which returns true.
     *
     * @param superblock_bytes   S
     * @param release_threshold  t (Config::release_threshold)
     * @param slack_superblocks  K
     * @param global_fetch_batch F (Config::global_fetch_batch)
     */
    bool
    emptiness_ok(std::size_t superblock_bytes, double release_threshold,
                 std::size_t slack_superblocks,
                 std::size_t global_fetch_batch = 1) const
    {
        if (index == 0)
            return true;
        const std::uint64_t S = superblock_bytes;
        const std::uint64_t k_slack = slack_superblocks * S + S;
        if (in_use + k_slack >= held)
            return true;
        const std::uint64_t allowance =
            uncarved + (active_classes * global_fetch_batch + 1) * S;
        const std::uint64_t reduced =
            held > allowance ? held - allowance : 0;
        return static_cast<double>(in_use) >=
               (1.0 - release_threshold) * static_cast<double>(reduced) -
                   static_cast<double>(k_slack);
    }

    /**
     * Signed slack above the invariant bound in bytes: how many more
     * bytes of u_i this heap could lose before emptiness_ok() flips.
     * Positive means the invariant holds with room to spare.
     */
    double
    invariant_slack_bytes(std::size_t superblock_bytes,
                          double release_threshold,
                          std::size_t slack_superblocks,
                          std::size_t global_fetch_batch = 1) const
    {
        const double S = static_cast<double>(superblock_bytes);
        const double k_slack =
            static_cast<double>(slack_superblocks) * S + S;
        const double allowance =
            static_cast<double>(uncarved) +
            (static_cast<double>(active_classes) *
                 static_cast<double>(global_fetch_batch) +
             1.0) * S;
        const double reduced = std::max(
            0.0, static_cast<double>(held) - allowance);
        // emptiness_ok is an OR of two conditions, so the binding
        // threshold is whichever is easier to satisfy.
        const double bound = std::min(
            static_cast<double>(held) - k_slack,
            (1.0 - release_threshold) * reduced - k_slack);
        return static_cast<double>(in_use) - bound;
    }
};

/** Copy of the process-wide AllocatorStats counters at snapshot time. */
struct StatsSummary
{
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t in_use_bytes = 0;
    std::uint64_t held_bytes = 0;
    std::uint64_t committed_bytes = 0;  ///< OS-committed (RSS ground truth)
    std::uint64_t purged_bytes = 0;     ///< held but decommitted by purge
    std::uint64_t reserved_bytes = 0;   ///< provider address space held
    std::uint64_t cached_bytes = 0;
    std::uint64_t superblock_allocs = 0;
    std::uint64_t superblock_transfers = 0;
    std::uint64_t global_fetches = 0;
    std::uint64_t huge_allocs = 0;
    std::uint64_t huge_cache_releases = 0;  ///< cache empties the huge
                                            ///< path unmapped first
    std::uint64_t medium_reuses = 0;     ///< span-cache hits
    std::uint64_t medium_decommits = 0;  ///< medium spans decommitted
    std::uint64_t oom_reclaims = 0;
    std::uint64_t oom_failures = 0;
    std::uint64_t remote_frees = 0;
    std::uint64_t remote_drains = 0;
    std::uint64_t batch_refills = 0;
    std::uint64_t batch_flushes = 0;
    std::uint64_t global_bin_hits = 0;
    std::uint64_t global_bin_misses = 0;
    std::uint64_t cache_pushes = 0;
    std::uint64_t cache_pops = 0;
    std::uint64_t purge_passes = 0;
    std::uint64_t purged_superblocks = 0;
    std::uint64_t revived_superblocks = 0;
    std::uint64_t bad_free_wild = 0;
    std::uint64_t bad_free_foreign = 0;
    std::uint64_t bad_free_interior = 0;
    std::uint64_t bad_free_double = 0;
};

/** Full allocator snapshot: configuration echo + per-heap state. */
struct AllocatorSnapshot
{
    std::string allocator_name;

    /// @name Configuration echo (the invariant's parameters).
    /// @{
    std::size_t superblock_bytes = 0;
    double empty_fraction = 0.0;
    double release_threshold = 0.0;
    std::size_t slack_superblocks = 0;
    std::size_t global_fetch_batch = 1;
    int heap_count = 0;
    /// @}

    std::vector<HeapSnapshot> heaps;  ///< heaps[0] is the global heap

    /// @name Allocations outside the heaps.
    /// @{
    std::uint64_t huge_count = 0;
    std::uint64_t huge_user_bytes = 0;
    std::uint64_t huge_span_bytes = 0;
    std::uint64_t parked_count = 0;       ///< medium spans in the span cache
    std::uint64_t parked_span_bytes = 0;  ///< held and committed, not in use
    std::uint64_t cached_bytes = 0;  ///< thread-cache occupancy
    /// @}

    /**
     * Blocks the snapshot's pre-drain pass settled out of the per-heap
     * remote-free queues before walking (drain-and-attribute): those
     * frees had already left the in_use gauge but not yet the owning
     * heap's u_i, so reconciliation is exact only after they land.
     */
    std::uint64_t remote_drained_blocks = 0;

    StatsSummary stats;

    /**
     * Per-path operation-latency histograms (obs/latency.h), merged
     * across threads at snapshot time.  Populated only when the
     * allocator was armed (Config::latency_histograms or
     * HOARD_LATENCY); latency_armed distinguishes "off" from
     * "armed but nothing recorded yet".
     */
    LatencySnapshot latency;
    bool latency_armed = false;

    /** Sum of u_i over all heaps. */
    std::uint64_t
    sum_in_use() const
    {
        std::uint64_t n = 0;
        for (const HeapSnapshot& h : heaps)
            n += h.in_use;
        return n;
    }

    /** Sum of a_i over all heaps. */
    std::uint64_t
    sum_held() const
    {
        std::uint64_t n = 0;
        for (const HeapSnapshot& h : heaps)
            n += h.held;
        return n;
    }

    /**
     * True when the per-heap totals reconcile exactly with the global
     * gauges.  Heap u_i counts blocks parked in thread caches (the
     * heaps never saw those frees), while the in_use gauge does not, so:
     *
     *   sum(u_i) + huge_user == in_use_bytes + cached_bytes
     *   sum(a_i) + huge_span + parked_span == held_bytes
     *   committed_bytes + purged_bytes == held_bytes
     *
     * The third line is the virtual-memory split: every held byte is
     * either OS-committed or parked decommitted by the purge pass.
     * Only guaranteed on a quiesced allocator.
     */
    bool
    reconciles() const
    {
        return sum_in_use() + huge_user_bytes ==
                   stats.in_use_bytes + cached_bytes &&
               sum_held() + huge_span_bytes + parked_span_bytes ==
                   stats.held_bytes &&
               stats.committed_bytes + stats.purged_bytes ==
                   stats.held_bytes;
    }

    /** True when every per-processor heap satisfies emptiness_ok(). */
    bool
    all_heaps_satisfy_invariant() const
    {
        for (const HeapSnapshot& h : heaps) {
            if (!h.emptiness_ok(superblock_bytes, release_threshold,
                                slack_superblocks, global_fetch_batch))
                return false;
        }
        return true;
    }
};

}  // namespace obs
}  // namespace hoard

#endif  // HOARD_OBS_SNAPSHOT_H_
