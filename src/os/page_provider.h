/**
 * @file
 * OS page substrate: aligned chunk mapping with a virtual-memory-first
 * accounting model.
 *
 * Every superblock in this system lives at an S-aligned address so that
 * `block -> superblock` is a single mask (paper §4.1 stores a pointer per
 * block; alignment gives us the same lookup with zero per-block header).
 * The provider maps chunks with that alignment guarantee and accounts
 * two footprints separately:
 *
 *   - reserved_bytes: virtual address space this provider holds from
 *     the OS (PROT_NONE arenas included).  Cheap; never the number a
 *     production deployment is judged on.
 *   - mapped_bytes, a.k.a. *committed* bytes: memory the provider has
 *     actually handed out readable/writable — the RSS ground truth the
 *     allocator's committed_bytes gauge mirrors.
 *
 * A plain mmap provider reserves exactly what it commits, so the two
 * gauges coincide; the reserved-arena provider (os/reserved_arena.h)
 * is where they diverge.  Providers may additionally support purge():
 * returning the physical pages behind a committed range to the OS
 * (madvise) while keeping the range mapped, so a later touch revives it
 * as zero-fill-on-demand with no syscall.
 */

#ifndef HOARD_OS_PAGE_PROVIDER_H_
#define HOARD_OS_PAGE_PROVIDER_H_

#include <cstddef>

#include "common/stats.h"

namespace hoard {
namespace os {

/** Host page size in bytes (cached sysconf). */
std::size_t page_bytes();

/** Abstract source of aligned memory chunks. */
class PageProvider
{
  public:
    virtual ~PageProvider() = default;

    /**
     * Maps @p bytes of zeroed memory aligned to @p align (a power of two).
     * @return the chunk, or nullptr when the system is out of memory.
     */
    virtual void* map(std::size_t bytes, std::size_t align) = 0;

    /** Returns a chunk previously obtained from map() with same size. */
    virtual void unmap(void* p, std::size_t bytes) = 0;

    /** Committed bytes currently handed out through this provider —
        the RSS ground truth. */
    virtual std::size_t mapped_bytes() const = 0;

    /** High-water mark of mapped_bytes(). */
    virtual std::size_t peak_mapped_bytes() const = 0;

    /**
     * Virtual address space held from the OS, committed or not.  A
     * provider with no reservation machinery reserves exactly what it
     * commits, hence the default.
     */
    virtual std::size_t reserved_bytes() const { return mapped_bytes(); }

    /** High-water mark of reserved_bytes(). */
    virtual std::size_t
    peak_reserved_bytes() const
    {
        return peak_mapped_bytes();
    }

    /**
     * Decommits the page-aligned range [@p p, @p p + @p bytes) inside a
     * chunk this provider mapped: physical pages go back to the OS, the
     * range stays mapped read/write, and the next touch refaults zeroed
     * pages.  On success the committed gauge drops by @p bytes.  Returns
     * false when the provider does not support purging or the kernel
     * refused (the range then stays committed and accounted — callers
     * must treat failure as "nothing happened").
     */
    virtual bool
    purge(void* /* p */, std::size_t /* bytes */)
    {
        return false;
    }

    /**
     * Re-accounts a previously purged range as committed again (the
     * pages themselves revive lazily on touch; no syscall happens
     * here).  Callers pair every successful purge() with either an
     * unpurge() before reuse or an unpurge() before unmap(), so the
     * committed gauge never double-counts.
     */
    virtual void unpurge(void* /* p */, std::size_t /* bytes */) {}

    /**
     * Optional pre-commit hint: a provider may make up to @p count
     * recyclable spans of @p bytes mappable ahead of demand.  The
     * allocator never calls it; the no-op default stays because
     * perfbench/traced_main.cc overrides it.  Returns the number of
     * spans transitioned.
     */
    virtual std::size_t
    prewarm(std::size_t /* bytes */, std::size_t /* count */)
    {
        return 0;
    }
};

/**
 * mmap-backed provider.  Alignment is produced by over-mapping by
 * align-1 bytes and trimming the misaligned head/tail, so no memory is
 * wasted beyond the request.  Purge is supported (anonymous private
 * mappings take MADV_DONTNEED), so the allocator's purge pass works
 * even without the reserved-arena layer.
 */
class MmapPageProvider final : public PageProvider
{
  public:
    void* map(std::size_t bytes, std::size_t align) override;
    void unmap(void* p, std::size_t bytes) override;
    std::size_t mapped_bytes() const override { return gauge_.current(); }
    std::size_t peak_mapped_bytes() const override { return gauge_.peak(); }
    bool purge(void* p, std::size_t bytes) override;
    void unpurge(void* p, std::size_t bytes) override;

  private:
    detail::Gauge gauge_;
};

/**
 * Process-wide default provider: the reserved-arena provider from
 * os/reserved_arena.h (env-tunable via HOARD_ARENA_BYTES /
 * HOARD_ARENA_SPAN / HOARD_HUGEPAGE), constructed on first use in
 * preallocated storage — no heap allocation, so the call is safe from
 * inside malloc bootstrap — and never destroyed, so allocators with
 * static storage duration can release memory during process teardown.
 */
PageProvider& default_page_provider();

}  // namespace os
}  // namespace hoard

#endif  // HOARD_OS_PAGE_PROVIDER_H_
