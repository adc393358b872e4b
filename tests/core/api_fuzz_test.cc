/**
 * @file
 * The C API differential fuzzer (tests/preload/api_fuzz.h) in process,
 * over the facade.  The calls the facade has no entry for are built
 * from it the way the shim builds them.  The same fuzzer runs through
 * the LD_PRELOAD shim as ctest Preload.ApiFuzz.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>

#include "core/facade.h"
#include "tests/preload/api_fuzz.h"

namespace hoard {
namespace {

struct FacadeApi
{
    static void* malloc(std::size_t n) { return hoard_malloc(n); }
    static void free(void* p) { hoard_free(p); }
    static void*
    calloc(std::size_t c, std::size_t n)
    {
        return hoard_calloc(c, n);
    }
    static void* realloc(void* p, std::size_t n) { return hoard_realloc(p, n); }
    static void*
    reallocarray(void* p, std::size_t c, std::size_t n)
    {
        if (n != 0 && c > SIZE_MAX / n) {
            errno = ENOMEM;
            return nullptr;
        }
        return hoard_realloc(p, c * n);
    }
    static void*
    aligned_alloc(std::size_t a, std::size_t n)
    {
        return hoard_aligned_alloc(a, n);
    }
    static int
    posix_memalign(void** out, std::size_t a, std::size_t n)
    {
        return hoard_posix_memalign(out, a, n);
    }
    static void*
    memalign(std::size_t a, std::size_t n)
    {
        return hoard_aligned_alloc(a, n);
    }
    static void*
    valloc(std::size_t n)
    {
        return hoard_aligned_alloc(fuzz::kPage, n);
    }
    static void*
    pvalloc(std::size_t n)
    {
        return hoard_aligned_alloc(
            fuzz::kPage, (n + fuzz::kPage - 1) / fuzz::kPage * fuzz::kPage);
    }
    static std::size_t usable_size(void* p) { return hoard_usable_size(p); }
};

TEST(ApiFuzz, FacadeMatchesShadowModel)
{
    const std::uint64_t reuses = hoard_stats().medium_reuses.get();
    for (std::uint64_t seed : {1u, 2u, 3u})
        EXPECT_EQ(fuzz::Fuzzer<FacadeApi>(seed, 2000).run(), 0)
            << "seed " << seed;
    // The streams did reach recycled medium spans.
    EXPECT_GT(hoard_stats().medium_reuses.get(), reuses);
}

}  // namespace
}  // namespace hoard
