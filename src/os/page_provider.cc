#include "os/page_provider.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <limits>
#include <new>

#include "common/env.h"
#include "common/failure.h"
#include "common/mathutil.h"
#include "os/reserved_arena.h"

namespace hoard {
namespace os {

namespace {

std::size_t
page_size()
{
    static const std::size_t ps =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return ps;
}

}  // namespace

std::size_t
page_bytes()
{
    return page_size();
}

void*
MmapPageProvider::map(std::size_t bytes, std::size_t align)
{
    HOARD_CHECK(bytes > 0);
    HOARD_CHECK(detail::is_pow2(align));

    const std::size_t ps = page_size();
    // Absurd requests (page rounding or the alignment over-map would
    // overflow size_t) are exhaustion, not caller error: they arise
    // from legitimate huge allocation sizes, so report OOM rather than
    // aborting.
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    if (bytes > kMax - (ps - 1))
        return nullptr;
    bytes = detail::align_up(bytes, ps);
    if (align < ps)
        align = ps;
    if (bytes > kMax - (align - ps))
        return nullptr;

    // Over-map so an aligned sub-range of the right size must exist,
    // then trim the misaligned head and surplus tail slices in one
    // pass.  Each munmap is checked: a silently failed trim would
    // leak live PROT_READ|WRITE pages outside every gauge.
    const std::size_t span = bytes + align - ps;
    void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED)
        return nullptr;

    auto base = reinterpret_cast<std::uintptr_t>(raw);
    std::uintptr_t aligned = detail::align_up(base, align);

    const struct
    {
        std::uintptr_t start;
        std::size_t bytes;
    } slices[2] = {
        {base, aligned - base},
        {aligned + bytes, (base + span) - (aligned + bytes)},
    };
    for (const auto& slice : slices) {
        if (slice.bytes == 0)
            continue;
        int rc = ::munmap(reinterpret_cast<void*>(slice.start),
                          slice.bytes);
        HOARD_CHECK(rc == 0);
    }

    gauge_.add(bytes);
    return reinterpret_cast<void*>(aligned);
}

void
MmapPageProvider::unmap(void* p, std::size_t bytes)
{
    HOARD_CHECK(p != nullptr);
    bytes = detail::align_up(bytes, page_size());
    int rc = ::munmap(p, bytes);
    HOARD_CHECK(rc == 0);
    gauge_.sub(bytes);
}

bool
MmapPageProvider::purge(void* p, std::size_t bytes)
{
    HOARD_CHECK(p != nullptr);
    HOARD_CHECK(detail::is_aligned(p, page_size()));
    bytes = detail::align_up(bytes, page_size());
    if (::madvise(p, bytes, MADV_DONTNEED) != 0)
        return false;
    gauge_.sub(bytes);
    return true;
}

void
MmapPageProvider::unpurge(void* /* p */, std::size_t bytes)
{
    gauge_.add(detail::align_up(bytes, page_size()));
}

PageProvider&
default_page_provider()
{
    // Constructed in static storage with placement new: the first call
    // can arrive from inside malloc bootstrap (the LD_PRELOAD shim's
    // global allocator), where an operator-new recursion would
    // deadlock static initialization.  Deliberately never destroyed —
    // allocator singletons unmap through it during process teardown.
    alignas(ReservedArenaProvider) static unsigned char
        storage[sizeof(ReservedArenaProvider)];
    static ReservedArenaProvider* provider = [] {
        // The arena normalizes both sizes onto its grid (power-of-two
        // spans of at most 2 GiB, whole spans per arena).
        ReservedArenaProvider::Options opt;
        detail::env_number("HOARD_ARENA_BYTES", &opt.arena_bytes, 0,
                           std::size_t{1} << 40);
        detail::env_number("HOARD_ARENA_SPAN", &opt.max_span_bytes, 0,
                           std::size_t{1} << 31);
        detail::env_flag("HOARD_HUGEPAGE", &opt.huge_pages);
        return new (storage) ReservedArenaProvider(opt);
    }();
    return *provider;
}

}  // namespace os
}  // namespace hoard
