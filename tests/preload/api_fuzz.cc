/**
 * @file
 * The C API differential fuzzer (api_fuzz.h) over the process's own
 * malloc family.  Run it under the shim:
 *
 *     LD_PRELOAD=build/src/shim/libhoard.so \
 *         build/tests/preload_api_fuzz [seed] [rounds]
 *
 * Exits 0 when the shadow model saw no failure.
 */

#include <malloc.h>
#include <stdlib.h>

#include <cstdio>
#include <cstdlib>
#include <cstdint>

#include "tests/preload/api_fuzz.h"

namespace {

struct LibcApi
{
    static void* malloc(std::size_t n) { return ::malloc(n); }
    static void free(void* p) { ::free(p); }
    static void*
    calloc(std::size_t c, std::size_t n)
    {
        return ::calloc(c, n);
    }
    static void* realloc(void* p, std::size_t n) { return ::realloc(p, n); }
    static void*
    reallocarray(void* p, std::size_t c, std::size_t n)
    {
        return ::reallocarray(p, c, n);
    }
    static void*
    aligned_alloc(std::size_t a, std::size_t n)
    {
        return ::aligned_alloc(a, n);
    }
    static int
    posix_memalign(void** out, std::size_t a, std::size_t n)
    {
        return ::posix_memalign(out, a, n);
    }
    static void*
    memalign(std::size_t a, std::size_t n)
    {
        return ::memalign(a, n);
    }
    static void* valloc(std::size_t n) { return ::valloc(n); }
    static void* pvalloc(std::size_t n) { return ::pvalloc(n); }
    static std::size_t usable_size(void* p) { return ::malloc_usable_size(p); }
};

}  // namespace

int
main(int argc, char** argv)
{
    const std::uint64_t seed =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
    const int rounds = argc > 2 ? std::atoi(argv[2]) : 4000;
    const int failures = hoard::fuzz::Fuzzer<LibcApi>(seed, rounds).run();
    std::printf("api_fuzz: seed %llu, %d threads x %d rounds, %d failures\n",
                static_cast<unsigned long long>(seed), hoard::fuzz::kThreads,
                rounds, failures);
    return failures == 0 ? 0 : 1;
}
