/**
 * @file
 * Hoard heap structures (paper §3): the lock + u_i/a_i counter base
 * shared by every superblock home, the full per-processor heap with
 * per-size-class fullness-group lists, and the per-class global bin —
 * one shard of the sharded global heap (heap 0).
 *
 * The free path discovers a block's home through Superblock::owner(),
 * which stores a HeapBase pointer: index 0 means the owner is a
 * GlobalBin (one size class, its own lock), index >= 1 a per-processor
 * HoardHeap.  All fields are guarded by `mutex` except where noted.
 */

#ifndef HOARD_CORE_HEAP_H_
#define HOARD_CORE_HEAP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/failure.h"
#include "core/superblock.h"
#include "obs/contention.h"

namespace hoard {

/** Fullness-group lists for one size class within one heap. */
struct SizeClassBin
{
    SuperblockList groups[Superblock::kGroupCount];
};

/**
 * State every superblock home shares: the lock, the u_i / a_i byte
 * counters, and the remote-free stack.  Superblock::owner() points at
 * this base; the free path dispatches on `index` (0 = global bin).
 */
template <typename Policy>
struct HeapBase
{
    /**
     * The policy mutex behind an optional contention profiler.  The
     * wrapper is a plain forwarder until ProfiledMutex::set_profiled
     * flips it on (and compiles down to the raw mutex entirely when
     * observability is off at build time).
     */
    using Mutex = obs::ProfiledMutex<Policy>;

    explicit HeapBase(int index_) : index(index_) {}

    HeapBase(const HeapBase&) = delete;
    HeapBase& operator=(const HeapBase&) = delete;

    /** Heap number; 0 marks a global-heap shard (GlobalBin). */
    const int index;

    Mutex mutex;

    /** u_i: block bytes currently handed to the program from here. */
    std::size_t in_use = 0;

    /** a_i: bytes held in this home's superblocks (span bytes). */
    std::size_t held = 0;

    /**
     * MPSC remote-free stack (Treiber, push-only): a thread freeing a
     * block owned by this heap while its lock is busy pushes here
     * instead of blocking; the owner splices the whole chain off with
     * one exchange at its next lock acquisition and settles the frees
     * under the lock it already holds.  Blocks link through their first
     * words — the magazine/bulk-carve chain format.  No individual pop
     * ever happens, so the classic Treiber ABA hazard cannot arise; the
     * release/acquire pair on the head is what publishes each block's
     * next-pointer write to the draining owner.
     *
     * Alone on its cache line: the owner writes the lock word, in_use
     * and held on every locked operation while remote freers CAS this
     * head, and sharing a line made every push steal the owner's hot
     * line.  The pad keeps a derived heap's fields off it too.
     */
    alignas(detail::kCacheLineBytes) std::atomic<void*> remote_head{nullptr};
    char remote_pad_[detail::kCacheLineBytes - sizeof(std::atomic<void*>)];

    /** Cheap empty test so the drain's exchange is skipped when idle. */
    bool
    remote_pending() const
    {
        return remote_head.load(std::memory_order_relaxed) != nullptr;
    }

    /** Lock-free push of a (whole, free) block. Any thread, no lock. */
    void
    remote_push(void* block)
    {
        void* old = remote_head.load(std::memory_order_relaxed);
        do {
            *static_cast<void**>(block) = old;
        } while (!remote_head.compare_exchange_weak(
            old, block, std::memory_order_release,
            std::memory_order_relaxed));
    }

    /**
     * Detaches the whole pending chain (nullptr when empty).  Caller
     * holds the lock and owns every block on the returned chain.
     */
    void*
    remote_drain()
    {
        return remote_head.exchange(nullptr, std::memory_order_acquire);
    }
};

/** One per-processor heap; template parameter supplies the mutex type. */
template <typename Policy>
struct HoardHeap : HeapBase<Policy>
{
    HoardHeap(int index_, int num_classes)
        : HeapBase<Policy>(index_),
          bins(static_cast<std::size_t>(num_classes))
    {}

    /** Superblock lists per size class, segregated by fullness. */
    std::vector<SizeClassBin> bins;

    /** Completely-empty superblocks (baseline allocators only; the
        Hoard allocator retires empties to its lock-free reuse cache). */
    SuperblockList empty_list;

    /**
     * Finds a superblock of @p cls with a free block, preferring the
     * fullest (paper §3.1 allocates from nearly-full superblocks to keep
     * memory dense).  Returns nullptr when no superblock has space.
     * Caller holds the lock and charges one list_op per probed group.
     */
    Superblock*
    find_allocatable(int cls, int* probes)
    {
        SizeClassBin& bin = bins[static_cast<std::size_t>(cls)];
        *probes = 0;
        for (int g = Superblock::kFullnessBands - 1; g >= 0; --g) {
            ++*probes;
            if (Superblock* sb = bin.groups[g].front())
                return sb;
        }
        return nullptr;
    }

    /**
     * Finds a superblock that is at least @p f empty for transfer to the
     * global heap; emptiest candidates first.  Returns nullptr if none
     * qualifies.  Caller holds the lock.
     */
    Superblock*
    find_transfer_victim(double f)
    {
        // A superblock in band g has used/capacity >= g / kFullnessBands;
        // bands beyond (1-f) cannot contain an f-empty superblock.
        const double band_width = 1.0 / Superblock::kFullnessBands;
        for (int g = 0; g < Superblock::kFullnessBands; ++g) {
            if (g * band_width > 1.0 - f)
                break;
            for (auto& bin : bins) {
                for (Superblock* sb = bin.groups[g].front(); sb != nullptr;
                     sb = bin.groups[g].next(sb)) {
                    if (sb->at_least_fraction_empty(f))
                        return sb;
                }
            }
        }
        return nullptr;
    }

    /** Links @p sb into the right fullness group. Caller holds lock. */
    void
    link(Superblock* sb)
    {
        HOARD_DCHECK(!SuperblockList::is_linked(sb));
        bins[static_cast<std::size_t>(sb->size_class())]
            .groups[sb->fullness_group()]
            .push_front(sb);
    }

    /** Unlinks @p sb from its current group. Caller holds lock. */
    void
    unlink(Superblock* sb, int group)
    {
        bins[static_cast<std::size_t>(sb->size_class())]
            .groups[group]
            .remove(sb);
    }

    /** Moves @p sb between groups after its fullness changed. */
    void
    relink(Superblock* sb, int old_group)
    {
        int now = sb->fullness_group();
        if (now == old_group)
            return;
        unlink(sb, old_group);
        bins[static_cast<std::size_t>(sb->size_class())]
            .groups[now]
            .push_front(sb);
    }
};

/**
 * One shard of the global heap: the superblocks of a single size class,
 * under their own lock.  fetch_from_global and maybe_release_superblock
 * for different classes therefore never contend.  A superblock that
 * empties *inside* its bin stays there (band 0), still formatted for
 * the class, so the next same-class fetch skips the re-carve; empties
 * arriving from per-processor heaps go to the lock-free cross-class
 * reuse cache instead, where any class can claim them.
 */
template <typename Policy>
struct GlobalBin : HeapBase<Policy>
{
    explicit GlobalBin(int cls) : HeapBase<Policy>(0), size_class(cls) {}

    const int size_class;

    /** Fullness-group lists (band 0 emptiest, kFullGroup full). */
    SuperblockList groups[Superblock::kGroupCount];

    /**
     * Approximate superblock count: written under `mutex`
     * (link/unlink), read without it by fetchers deciding whether the
     * bin is worth locking.  A stale zero costs one extra miss of the
     * class; a stale nonzero costs one wasted lock — never correctness.
     */
    std::atomic<std::uint32_t> occupancy{0};

    /**
     * Fullest allocatable superblock in the bin (paper §3.1 density
     * rule).  Caller holds the lock; charges one list_op per probe.
     */
    Superblock*
    find_allocatable(int* probes)
    {
        *probes = 0;
        for (int g = Superblock::kFullnessBands - 1; g >= 0; --g) {
            ++*probes;
            if (Superblock* sb = groups[g].front())
                return sb;
        }
        return nullptr;
    }

    /** Links @p sb into the right fullness group. Caller holds lock. */
    void
    link(Superblock* sb)
    {
        HOARD_DCHECK(!SuperblockList::is_linked(sb));
        HOARD_DCHECK(sb->size_class() == size_class);
        groups[sb->fullness_group()].push_front(sb);
        occupancy.fetch_add(1, std::memory_order_relaxed);
    }

    /** Unlinks @p sb from its current group. Caller holds lock. */
    void
    unlink(Superblock* sb, int group)
    {
        groups[group].remove(sb);
        occupancy.fetch_sub(1, std::memory_order_relaxed);
    }

    /** Moves @p sb between groups after its fullness changed. */
    void
    relink(Superblock* sb, int old_group)
    {
        int now = sb->fullness_group();
        if (now == old_group)
            return;
        groups[old_group].remove(sb);
        groups[now].push_front(sb);
    }
};

}  // namespace hoard

#endif  // HOARD_CORE_HEAP_H_
