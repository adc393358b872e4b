/**
 * @file
 * Virtual-memory-first page substrate: large PROT_NONE reservations,
 * lock-free span carving, lazy commit, and madvise-based decommit.
 *
 * The mmap provider pays one syscall pair per superblock and gives the
 * address space back on every release, so a spike-then-idle workload
 * keeps nothing warm and a steady workload churns the kernel's VMA
 * tree.  This provider does what scalloc's span pools and every modern
 * production allocator do instead:
 *
 *   - **Reserve** address space in large arenas (default 1 GiB,
 *     PROT_NONE + MAP_NORESERVE): buys naturally-aligned carving and a
 *     contiguous hull for pennies — reserved_bytes is the only thing
 *     that grows.
 *   - **Carve** power-of-two spans from an arena with a lock-free bump
 *     cursor (one fetch_add per max-order chunk) plus per-order Treiber
 *     free stacks; a miss at one order splits a larger span buddy-style,
 *     pushing the unused halves onto their order stacks.  Spans are
 *     naturally aligned (an order-k span sits on a 2^k boundary) because
 *     arenas are max-span aligned and splitting preserves alignment.
 *   - **Commit lazily**: a span is mprotect'ed READ|WRITE the first
 *     time it is carved; recycled spans are already READ|WRITE and cost
 *     *zero syscalls* to hand out again (their pages were returned via
 *     MADV_DONTNEED, so they refault zeroed on first touch).
 *   - **Decommit instead of unmap**: unmap() gives the physical pages
 *     back with MADV_DONTNEED and parks the span on its free stack; the
 *     virtual range stays reserved and mapped, so mapped_bytes (the
 *     committed/RSS gauge) falls while reserved_bytes does not.
 *
 * Requests too large for the span machinery (beyond max_span_bytes)
 * fall back to a plain over-map-and-trim mmap, accounted in both
 * gauges, so huge allocations keep working unchanged.
 *
 * The ABA-prone Treiber stacks use 16-bit tags packed into the unused
 * high bits of the head word (user pointers fit in 48 bits on every
 * platform this tree targets); span metadata lives in a side node pool
 * (never handed to callers, never unmapped before the destructor), so
 * free spans hold **no committed pages at all**.
 *
 * The actual syscalls are behind protected virtual hooks (os_reserve /
 * os_commit / os_decommit / os_release / os_map_rw) so fault-injection
 * tests can fail reservation, commit, or decommit deterministically
 * and prove the layers above survive.
 */

#ifndef HOARD_OS_RESERVED_ARENA_H_
#define HOARD_OS_RESERVED_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "common/stats.h"
#include "os/page_provider.h"

namespace hoard {
namespace os {

/** Reserve-then-commit provider; see the file comment. */
class ReservedArenaProvider : public PageProvider
{
  public:
    struct Options
    {
        /** Virtual bytes reserved per arena (rounded up to a multiple
            of max_span_bytes).  HOARD_ARENA_BYTES under the facade. */
        std::size_t arena_bytes = std::size_t{1} << 30;

        /** Largest span the arena machinery serves; bigger requests
            fall back to plain mmap.  Power of two >= the page size.
            Also the bump-carve granularity.  HOARD_ARENA_SPAN. */
        std::size_t max_span_bytes = std::size_t{4} << 20;

        /** Apply MADV_HUGEPAGE to each arena reservation so the kernel
            may back superblock spans with transparent huge pages.
            HOARD_HUGEPAGE=1. */
        bool huge_pages = false;
    };

    ReservedArenaProvider();  ///< default Options
    explicit ReservedArenaProvider(Options options);
    ~ReservedArenaProvider() override;

    ReservedArenaProvider(const ReservedArenaProvider&) = delete;
    ReservedArenaProvider& operator=(const ReservedArenaProvider&) =
        delete;

    void* map(std::size_t bytes, std::size_t align) override;
    void unmap(void* p, std::size_t bytes) override;
    std::size_t mapped_bytes() const override
    {
        return committed_.current();
    }
    std::size_t peak_mapped_bytes() const override
    {
        return committed_.peak();
    }
    std::size_t reserved_bytes() const override
    {
        return reserved_.current();
    }
    std::size_t peak_reserved_bytes() const override
    {
        return reserved_.peak();
    }
    bool purge(void* p, std::size_t bytes) override;
    void unpurge(void* p, std::size_t bytes) override;

    /// @name Telemetry (diagnostics; not part of any reconciliation).
    /// @{
    std::uint64_t reservations() const { return reservations_.get(); }
    std::uint64_t commit_calls() const { return commit_calls_.get(); }
    std::uint64_t decommit_calls() const
    {
        return decommit_calls_.get();
    }
    std::uint64_t decommit_failures() const
    {
        return decommit_failures_.get();
    }
    std::uint64_t span_recycles() const { return span_recycles_.get(); }
    std::uint64_t span_carves() const { return span_carves_.get(); }
    std::uint64_t fallback_maps() const { return fallback_maps_.get(); }
    /// @}

    const Options& options() const { return options_; }

  protected:
    /// @name Syscall seams, overridable for fault injection.
    /// Each default implementation is exactly one syscall.
    /// @{

    /** Reserves @p bytes of PROT_NONE address space; nullptr on
        failure. */
    virtual void* os_reserve(std::size_t bytes);

    /** Makes [@p p, @p p + @p bytes) readable/writable. */
    virtual bool os_commit(void* p, std::size_t bytes);

    /** Returns the physical pages behind [@p p, @p p + @p bytes) while
        keeping the mapping; the next touch refaults zero pages. */
    virtual bool os_decommit(void* p, std::size_t bytes);

    /** Unmaps [@p p, @p p + @p bytes) outright. */
    virtual void os_release(void* p, std::size_t bytes);

    /** Plain committed mapping for the over-max-span fallback path. */
    virtual void* os_map_rw(std::size_t bytes);

    /// @}

  private:
    /// Side metadata for one free span.  Nodes are pooled and never
    /// unmapped before the destructor, so a stale Treiber traversal can
    /// always dereference them; the head tags make stale CASes fail.
    struct SpanNode
    {
        std::uintptr_t base = 0;
        /// False until the span's first commit: a span carved fresh
        /// from the PROT_NONE bump region needs an mprotect before it
        /// can be handed out; recycled spans are already READ|WRITE.
        bool rw = false;
        std::atomic<SpanNode*> next{nullptr};
    };

    /// One reserved region.  `bump` may overshoot `bytes`; carvers
    /// treat any offset past the end as exhaustion.
    struct ArenaChunk
    {
        std::uintptr_t base = 0;
        std::size_t bytes = 0;
        std::atomic<std::size_t> bump{0};
    };

    static constexpr int kMaxOrders = 32;
    static constexpr std::size_t kMaxChunks = 64;
    static constexpr std::size_t kMaxNodeChunks = 256;
    static constexpr std::size_t kNodeChunkBytes = std::size_t{256}
                                                   << 10;
    /// User-space pointers fit in 48 bits on the platforms this tree
    /// targets; the 16 bits above them hold the ABA tag.
    static constexpr std::uintptr_t kPtrMask =
        (std::uintptr_t{1} << 48) - 1;

    static SpanNode* node_of(std::uintptr_t head)
    {
        return reinterpret_cast<SpanNode*>(head & kPtrMask);
    }
    static std::uintptr_t pack(SpanNode* node, std::uintptr_t old_head)
    {
        return reinterpret_cast<std::uintptr_t>(node) |
               ((old_head + (std::uintptr_t{1} << 48)) & ~kPtrMask);
    }

    /** Lock-free tagged push of @p node onto @p head. */
    void push_node(std::atomic<std::uintptr_t>& head, SpanNode* node);

    /** Lock-free tagged pop from @p head; nullptr when empty. */
    SpanNode* pop_node(std::atomic<std::uintptr_t>& head);

    /** Pops or bump-allocates a metadata node; nullptr only when the
        pool cannot grow (then the caller releases the span outright). */
    SpanNode* alloc_node();

    /** Returns @p node to the pool's free stack. */
    void free_node(SpanNode* node);

    /** Parks a free span on its order stack; falls back to releasing
        the span (a permanent VA hole) if no metadata node is available. */
    void park_span(std::uintptr_t base, int order, bool rw);

    /**
     * Produces one span of exactly @p order: order stack first, then
     * larger orders split down, then a fresh bump carve (growing the
     * arena set if every chunk is exhausted).  Returns 0 on exhaustion.
     */
    std::uintptr_t take_span(int order, bool* rw);

    /** Bump-carves one max-order span; 0 when reservation fails. */
    std::uintptr_t carve_max_span();

    /** Reserves and registers one more arena chunk (caller holds
        grow_mutex_); false when the OS refuses. */
    bool grow_arena();

    /** True when @p p lies inside a registered arena chunk. */
    bool in_arena(const void* p) const;

    /** Over-map-and-trim path for requests the arena cannot serve. */
    void* map_fallback(std::size_t bytes, std::size_t align);

    /** Order serving a request of @p bytes aligned to @p align, or -1
        when it exceeds the span machinery. */
    int order_for(std::size_t bytes, std::size_t align) const;

    const Options options_;
    const std::size_t page_bytes_;
    const int min_order_;
    const int max_order_;

    /// Per-order Treiber stacks of free spans (tagged heads).
    std::atomic<std::uintptr_t> free_spans_[kMaxOrders] = {};
    /// Free metadata nodes (tagged head).
    std::atomic<std::uintptr_t> free_nodes_{0};

    /// Registered reservations; append-only, count published with
    /// release so lock-free readers see initialized entries.
    ArenaChunk chunks_[kMaxChunks];
    std::atomic<std::size_t> chunk_count_{0};
    std::mutex grow_mutex_;

    /// Node-pool backing chunks (plain RW mappings).  node_bump_ is a
    /// monotonic global node index — chunk = idx / nodes-per-chunk —
    /// so appending a chunk never races with concurrent claims.
    void* node_chunks_[kMaxNodeChunks] = {};
    std::atomic<std::size_t> node_chunk_count_{0};
    std::atomic<std::size_t> node_bump_{0};
    std::mutex node_mutex_;

    detail::Gauge committed_;
    detail::Gauge reserved_;
    detail::Counter reservations_;
    detail::Counter commit_calls_;
    detail::Counter decommit_calls_;
    detail::Counter decommit_failures_;
    detail::Counter span_recycles_;
    detail::Counter span_carves_;
    detail::Counter fallback_maps_;
};

}  // namespace os
}  // namespace hoard

#endif  // HOARD_OS_RESERVED_ARENA_H_
