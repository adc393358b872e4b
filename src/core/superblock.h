/**
 * @file
 * Superblocks (paper §3.1).
 *
 * A superblock is an S-byte, S-aligned chunk carved into equal-size
 * blocks of one size class.  Because every superblock is S-aligned,
 * `pointer -> superblock` is a mask — the reproduction's substitute for
 * the paper's per-block back-pointer, with zero per-block overhead.
 *
 * The header lives at the start of the chunk; blocks follow.  Free
 * blocks form a LIFO list threaded through their first word; blocks that
 * have never been allocated are handed out by a bump cursor so a fresh
 * superblock needs no list construction.
 *
 * Thread safety: all mutation happens under the owning heap's lock,
 * except the owner field itself, which is atomic because the free path
 * must read it before it can know which lock to take (paper §3.4's
 * ownership-change race).
 *
 * Huge allocations (> S/2) get a dedicated chunk with the same header so
 * the mask in free() works uniformly.
 */

#ifndef HOARD_CORE_SUPERBLOCK_H_
#define HOARD_CORE_SUPERBLOCK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "common/failure.h"
#include "common/intrusive_list.h"
#include "common/mathutil.h"
#include "common/memutil.h"

namespace hoard {

/** Header + block-carving logic for one superblock. */
class Superblock
{
  public:
    /** Number of partial fullness bands; band index 0 is emptiest. */
    static constexpr int kFullnessBands = 8;

    /** Group index used for completely-full superblocks. */
    static constexpr int kFullGroup = kFullnessBands;

    /** Total number of group lists a heap keeps per size class. */
    static constexpr int kGroupCount = kFullnessBands + 1;

    /**
     * Formats @p memory (S-aligned, @p superblock_bytes long) as a
     * superblock of @p size_class with @p block_bytes blocks.
     */
    static Superblock*
    create(void* memory, std::size_t superblock_bytes, int size_class,
           std::uint32_t block_bytes, std::uint32_t arena = 0)
    {
        HOARD_DCHECK(detail::is_aligned(memory, superblock_bytes));
        auto* sb = new (memory) Superblock();
        sb->span_bytes_ = superblock_bytes;
        sb->tag_ = tag_for(arena);
        sb->reformat(size_class, block_bytes);
        return sb;
    }

    /**
     * Formats @p memory as a dedicated superblock for one huge object of
     * @p user_bytes starting @p offset bytes into the span;
     * @p span_bytes is the full mapped span.
     */
    static Superblock*
    create_huge(void* memory, std::size_t span_bytes, std::size_t offset,
                std::size_t user_bytes, std::uint32_t arena = 0)
    {
        HOARD_DCHECK(offset >= header_bytes() &&
                     offset + user_bytes <= span_bytes);
        auto* sb = new (memory) Superblock();
        sb->span_bytes_ = span_bytes;
        sb->tag_ = tag_for(arena);
        sb->size_class_ = kHugeClass;
        sb->block_bytes_ = 0;
        sb->capacity_ = 1;
        sb->used_ = 1;
        sb->huge_user_bytes_ = user_bytes;
        sb->window_lo_ = reinterpret_cast<std::uintptr_t>(memory) + offset;
        sb->window_bytes_ = 1;
        return sb;
    }

    /**
     * Recovers the superblock containing @p p.  @p superblock_bytes must
     * match the allocator's S.  Checks the magic word, so handing a
     * foreign pointer to free() fails loudly instead of corrupting.
     */
    static Superblock*
    from_pointer(const void* p, std::size_t superblock_bytes)
    {
        auto addr = reinterpret_cast<std::uintptr_t>(p);
        auto* sb = reinterpret_cast<Superblock*>(
            detail::align_down(addr, superblock_bytes));
        if (!sb->has_magic())
            HOARD_FATAL("free of pointer %p not from this allocator", p);
        return sb;
    }

    /**
     * Like from_pointer(), but returns nullptr on a magic mismatch
     * instead of aborting — the hardened free path classifies and
     * reports the bad pointer itself (Config::on_bad_free).
     */
    static Superblock*
    from_pointer_checked(const void* p, std::size_t superblock_bytes)
    {
        auto addr = reinterpret_cast<std::uintptr_t>(p);
        auto* sb = reinterpret_cast<Superblock*>(
            detail::align_down(addr, superblock_bytes));
        return sb->has_magic() ? sb : nullptr;
    }

    /**
     * Re-carves an empty superblock for a (possibly different) size
     * class — how the global heap recycles fully-empty superblocks
     * across classes.  @pre empty().
     */
    void
    reformat(int size_class, std::uint32_t block_bytes)
    {
        HOARD_DCHECK(used_ == 0 || !has_magic());
        size_class_ = size_class;
        block_bytes_ = block_bytes;
        capacity_ = static_cast<std::uint32_t>(
            (span_bytes_ - header_bytes()) / block_bytes);
        HOARD_DCHECK(capacity_ >= 2);
        window_lo_ = reinterpret_cast<std::uintptr_t>(payload_begin());
        window_bytes_ = 0;  // opened when a heap adopts the span
        used_ = 0;
        bump_ = 0;
        free_list_ = nullptr;
        huge_user_bytes_ = 0;
        sampled_.store(0, std::memory_order_relaxed);
    }

    /** Takes a free block. @pre !full(). */
    void*
    allocate()
    {
        HOARD_DCHECK(!full());
        void* block;
        if (free_list_ != nullptr) {
            block = free_list_;
            free_list_ = *static_cast<void**>(block);
        } else {
            block = payload_begin() +
                    static_cast<std::size_t>(bump_) * block_bytes_;
            ++bump_;
        }
        ++used_;
        return block;
    }

    /**
     * Carves up to @p n free blocks in one pass, pushing each onto the
     * LIFO chain at @p *head (threaded through block first words — the
     * same format the thread magazines and remote-free stacks use, so
     * a batch moves between the three by pointer splice alone).
     * Returns the number carved; fewer than @p n only when the
     * superblock filled up.  Caller holds the owning heap's lock and
     * settles heap.in_use for the whole batch at once.
     */
    std::uint32_t
    allocate_batch(std::uint32_t n, void** head)
    {
        std::uint32_t got = 0;
        while (got < n && used_ < capacity_) {
            void* block;
            if (free_list_ != nullptr) {
                block = free_list_;
                free_list_ = *static_cast<void**>(block);
            } else {
                block = payload_begin() +
                        static_cast<std::size_t>(bump_) * block_bytes_;
                ++bump_;
            }
            ++used_;
            *static_cast<void**>(block) = *head;
            *head = block;
            ++got;
        }
        return got;
    }

    /**
     * Returns a block.  @p p may point anywhere inside the block (the
     * aligned-allocation path hands out interior pointers).
     */
    void
    deallocate(void* p)
    {
        deallocate_block(block_start(p));
    }

    /**
     * Returns a block already normalized to its start, skipping the
     * block_start() division — the free fast path and the bulk-return
     * chains only ever carry block starts.
     */
    void
    deallocate_block(void* block)
    {
        HOARD_DCHECK(block == block_start(block));
        HOARD_DCHECK(used_ > 0);
        *static_cast<void**>(block) = free_list_;
        free_list_ = block;
        --used_;
    }

    /** Start of the block containing @p p. */
    void*
    block_start(const void* p) const
    {
        auto addr = reinterpret_cast<std::uintptr_t>(p);
        auto base = reinterpret_cast<std::uintptr_t>(payload_begin());
        HOARD_DCHECK(addr >= base &&
                     addr < base + static_cast<std::size_t>(capacity_) *
                                       block_bytes_);
        std::size_t index = (addr - base) / block_bytes_;
        return reinterpret_cast<void*>(base + index * block_bytes_);
    }

    bool full() const { return used_ == capacity_; }
    bool empty() const { return used_ == 0; }
    std::uint32_t used() const { return used_; }
    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t block_bytes() const { return block_bytes_; }
    int size_class() const { return size_class_; }
    std::size_t span_bytes() const { return span_bytes_; }

    bool huge() const { return size_class_ == kHugeClass; }
    std::size_t huge_user_bytes() const { return huge_user_bytes_; }
    /** Offset of a huge span's object from the span's start. */
    std::size_t
    huge_offset() const
    {
        return window_lo_ - reinterpret_cast<std::uintptr_t>(this);
    }

    /**
     * A medium span's resident estimate (core/span_cache.h): the
     * largest header + request it has served since it was last
     * committed, so no byte past it can be dirty.  0 on other spans.
     */
    std::size_t resident_bytes() const { return resident_bytes_; }
    void
    set_resident_bytes(std::size_t bytes)
    {
        resident_bytes_ = static_cast<std::uint32_t>(bytes);
    }

    /**
     * The header's magic word and arena id as one value: the tag of a
     * span allocator @p arena formatted.  The hardened free path
     * checks both with a single compare against its own tag.
     */
    static constexpr std::uint64_t
    tag_for(std::uint32_t arena)
    {
        return std::uint64_t{arena} << 32 | kMagic;
    }

    std::uint64_t tag() const { return tag_; }

    /// @name Heap-profiler sampled-block count.
    /// Number of profiler-sampled blocks currently live in this
    /// superblock.  The free path reads it from the header line it
    /// already touches, so the overwhelmingly common unsampled free
    /// skips the profiler's live-map probe (a guaranteed-cold cache
    /// line) entirely.  Relaxed suffices: the increment happens before
    /// allocate() returns the pointer, and any legal free of that
    /// pointer is ordered after the program's own handoff of it.
    /// @{
    bool
    has_sampled() const
    {
        return sampled_.load(std::memory_order_relaxed) != 0;
    }
    void sampled_inc() { sampled_.fetch_add(1, std::memory_order_relaxed); }
    void sampled_dec() { sampled_.fetch_sub(1, std::memory_order_relaxed); }
    /// @}

    /**
     * Head of the freed-block LIFO.  The hardened free path peeks at it
     * under the owning heap's lock: a block that is already the head of
     * the free list is a double free.
     */
    void* free_list_head() const { return free_list_; }

    /// @name Purge state (virtual-memory-first page layer).
    ///
    /// The purge pass decommits an *empty* superblock's payload pages
    /// while the span stays mapped and the header page stays committed,
    /// so the superblock remains discoverable (magic/owner/class intact)
    /// and revival is O(1): re-account the bytes and let the payload
    /// refault zeroed on first touch.  The freed-block LIFO threads
    /// through payload first words, so purging destroys it — the carve
    /// state is reset to never-carved (bump_ = 0, free_list_ = null),
    /// exactly the state allocate() already handles.
    /// @{

    /** Payload region a purge would decommit. */
    struct PurgeRegion
    {
        void* p = nullptr;
        std::size_t bytes = 0;
    };

    /**
     * Transitions an empty, unpurged superblock to purged: resets the
     * carve state and records the decommittable payload region (from
     * the first page boundary past the header to the span end).
     * Returns a zero region when the span has no whole page to give
     * back (then nothing was changed).  The caller performs the actual
     * provider purge and owns the accounting.
     * @pre empty() && !purged()
     */
    PurgeRegion
    prepare_purge(std::size_t page_bytes)
    {
        HOARD_DCHECK(used_ == 0);
        HOARD_DCHECK(purged_bytes_ == 0);
        std::size_t offset = detail::align_up(header_bytes(), page_bytes);
        if (offset >= span_bytes_)
            return PurgeRegion{};
        free_list_ = nullptr;
        bump_ = 0;
        purged_bytes_ = span_bytes_ - offset;
        return PurgeRegion{
            const_cast<char*>(reinterpret_cast<const char*>(this)) +
                offset,
            purged_bytes_};
    }

    /**
     * Clears the purged mark before the superblock re-enters service
     * (or is unmapped), returning the byte count the caller must move
     * from the purged gauge back to committed.
     */
    std::size_t
    revive()
    {
        std::size_t bytes = purged_bytes_;
        purged_bytes_ = 0;
        return bytes;
    }

    bool purged() const { return purged_bytes_ != 0; }
    std::size_t purged_bytes() const { return purged_bytes_; }

    /** Policy-time stamp of when this superblock went idle (retired to
        the reuse cache or went empty in a global bin); the purge pass
        ages against it. */
    void set_retire_tick(std::uint64_t tick) { retire_tick_ = tick; }
    std::uint64_t retire_tick() const { return retire_tick_; }

    /// @}

    /** Bytes of payload currently handed out. */
    std::size_t
    used_bytes() const
    {
        return huge() ? huge_user_bytes_
                      : static_cast<std::size_t>(used_) * block_bytes_;
    }

    /**
     * Fullness group for the heap's segregated lists: completely full
     * superblocks go to kFullGroup; partial ones to band
     * floor(used * kFullnessBands / capacity), so band 0 holds the
     * emptiest.
     */
    int
    fullness_group() const
    {
        if (full())
            return kFullGroup;
        return static_cast<int>(
            (static_cast<std::uint64_t>(used_) * kFullnessBands) /
            capacity_);
    }

    /** True iff at least fraction @p f of the blocks are free. */
    bool
    at_least_fraction_empty(double f) const
    {
        return static_cast<double>(capacity_ - used_) >=
               f * static_cast<double>(capacity_);
    }

    /// @name Owner heap (atomic: read racily by the free path).
    /// @{
    void*
    owner() const
    {
        return owner_.load(std::memory_order_acquire);
    }

    void
    set_owner(void* heap)
    {
        owner_.store(heap, std::memory_order_release);
    }
    /// @}

    /// @name Free window (the hardened free path's range probe).
    /// The addresses free() may name: the carved blocks of a small
    /// superblock, exactly the object's start for a huge span.  A small
    /// superblock's window opens when a heap adopts it and closes when
    /// it retires empty to the reuse cache, so one compare rejects both
    /// pointers no allocation handed out and blocks of a span that is
    /// already wholly free.  Written only while the span has no live
    /// blocks, so a valid free never races the writes.
    /// @{
    bool
    in_free_window(std::uintptr_t addr) const
    {
        return addr - window_lo_ < window_bytes_;
    }

    void
    open_free_window()
    {
        window_bytes_ = std::size_t{capacity_} * block_bytes_;
    }

    void close_free_window() { window_bytes_ = 0; }

    /** True when @p addr is the object a huge span last held and the
        span's window has closed: the span sits freed in the span cache,
        so freeing @p addr again is a double free. */
    bool
    freed_huge_object(std::uintptr_t addr) const
    {
        return window_bytes_ == 0 && addr == window_lo_;
    }
    /// @}

    /** First byte available for blocks. */
    char*
    payload_begin() const
    {
        return const_cast<char*>(reinterpret_cast<const char*>(this)) +
               header_bytes();
    }

    /** Usable payload given the header. */
    std::size_t payload_bytes() const { return span_bytes_ - header_bytes(); }

    /** Header size: one cache line multiple, keeps blocks 16-aligned. */
    static constexpr std::size_t
    header_bytes()
    {
        return detail::align_up(sizeof(Superblock),
                                detail::kCacheLineBytes);
    }

    /** Payload bytes for a given S (used to build the size-class table). */
    static constexpr std::size_t
    payload_bytes_for(std::size_t superblock_bytes)
    {
        return superblock_bytes - header_bytes();
    }

    /** Intrusive hook: which fullness-group list this superblock is on. */
    detail::ListNode list_hook;

    /**
     * Link used by the lock-free empty-superblock reuse cache
     * (core/superblock_cache.h).  Deliberately distinct from both
     * free_list_ (an empty superblock keeps its freed-block chain
     * intact so a same-class refetch skips the re-carve) and list_hook
     * (a cached superblock is on no fullness-group list).  Atomic
     * because a concurrent popper may read it while a pusher installs
     * it; the cache's head CAS publishes the store.
     */
    std::atomic<Superblock*> cache_next{nullptr};

  private:
    Superblock() = default;

    static constexpr std::uint32_t kMagic = 0x48524442;  // "HRDB"

    bool
    has_magic() const
    {
        return static_cast<std::uint32_t>(tag_) == kMagic;
    }
    static constexpr int kHugeClass = -2;

    /// Magic word (low half) and owning allocator instance id (high
    /// half); see tag_for.
    std::uint64_t tag_ = kMagic;
    int size_class_ = 0;
    std::uint32_t block_bytes_ = 0;
    std::uint32_t capacity_ = 0;
    std::uint32_t used_ = 0;
    std::uint32_t bump_ = 0;          ///< next never-allocated block index
    std::uint32_t resident_bytes_ = 0;  ///< medium spans; in the padding
    void* free_list_ = nullptr;       ///< LIFO of freed blocks
    std::atomic<void*> owner_{nullptr};
    std::atomic<std::uint32_t> sampled_{0};  ///< live profiler samples
    std::size_t span_bytes_ = 0;
    std::size_t huge_user_bytes_ = 0;
    std::size_t purged_bytes_ = 0;    ///< payload bytes decommitted by purge
    std::uint64_t retire_tick_ = 0;   ///< policy time the span went idle
    std::uintptr_t window_lo_ = 0;    ///< free window start address
    std::size_t window_bytes_ = 0;    ///< free window length; 0 = closed
};

using SuperblockList =
    detail::IntrusiveList<Superblock, &Superblock::list_hook>;

}  // namespace hoard

#endif  // HOARD_CORE_SUPERBLOCK_H_
