/**
 * @file
 * Test helper: puts the span cache in a state where the next medium
 * free parks its span.  A fresh allocator decommits every medium free,
 * because parking is bounded by the medium in-use high-water mark
 * (Û - U - M must leave room for the span).
 */

#ifndef HOARD_TESTS_CORE_SPAN_CACHE_UTIL_H_
#define HOARD_TESTS_CORE_SPAN_CACHE_UTIL_H_

#include <cstddef>
#include <vector>

namespace hoard {
namespace testing_util {

/** 16 live and 8 freed 128 KiB buffers: U about 2 MiB, Û about 3 MiB. */
constexpr std::size_t kPrimeBytes = std::size_t{128} << 10;
constexpr int kPrimeLive = 16;
constexpr int kPrimeBurst = 8;

/**
 * Keeps kPrimeLive medium buffers live (returned; the caller frees
 * them), maps a burst on top to raise the high-water mark, frees it,
 * and calls @p reclaim to decommit whatever the burst parked.  From
 * then on a freed medium span of at most 256 KiB parks: U stays about
 * 2 MiB, so the invariant term allows about 0.7 MiB, and Û - U - M
 * about 0.75 MiB.
 */
template <class Alloc, class Free, class Reclaim>
std::vector<void*>
prime_span_cache(Alloc&& alloc, Free&& free, Reclaim&& reclaim)
{
    std::vector<void*> live;
    for (int i = 0; i < kPrimeLive; ++i)
        live.push_back(alloc(kPrimeBytes));
    std::vector<void*> burst;
    for (int i = 0; i < kPrimeBurst; ++i)
        burst.push_back(alloc(kPrimeBytes));
    for (void* p : burst)
        free(p);
    reclaim();
    return live;
}

}  // namespace testing_util
}  // namespace hoard

#endif  // HOARD_TESTS_CORE_SPAN_CACHE_UTIL_H_
