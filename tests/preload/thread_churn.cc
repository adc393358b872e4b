/**
 * @file
 * Thread churn under the LD_PRELOAD shim: creates and joins threads one
 * at a time, each allocating, checking and freeing a few small blocks.
 * Every new thread's allocator metadata is allocated inside a shim call
 * and so comes from the shim's never-reused bootstrap arena; the
 * program passes only if exited threads' metadata is reused, so the
 * arena does not run out however many threads come and go.
 *
 *   LD_PRELOAD=build/src/shim/libhoard.so \
 *       build/tests/preload_thread_churn 100000
 *
 * Exits 0 and prints the thread count on success, 1 on any failure.
 */

#include <pthread.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

int g_failed;  // its address is a failing thread's result

void*
body(void* arg)
{
    const auto seed = static_cast<unsigned char>(
        reinterpret_cast<std::uintptr_t>(arg));
    void* blocks[8];
    for (int i = 0; i < 8; ++i) {
        const std::size_t size = 16 + 40 * static_cast<std::size_t>(i);
        blocks[i] = std::malloc(size);
        if (blocks[i] == nullptr)
            return &g_failed;
        std::memset(blocks[i], seed, size);
    }
    for (void* p : blocks) {
        if (*static_cast<unsigned char*>(p) != seed)
            return &g_failed;
        std::free(p);
    }
    return nullptr;
}

}  // namespace

int
main(int argc, char** argv)
{
    const long threads = argc > 1 ? std::strtol(argv[1], nullptr, 10)
                                  : 100000;
    for (long i = 0; i < threads; ++i) {
        pthread_t thread;
        int rc = pthread_create(&thread, nullptr, &body,
                                reinterpret_cast<void*>(i));
        if (rc != 0) {
            std::fprintf(stderr, "thread %ld: pthread_create: %s\n", i,
                         std::strerror(rc));
            return 1;
        }
        void* failed = nullptr;
        pthread_join(thread, &failed);
        if (failed != nullptr) {
            std::fprintf(stderr, "thread %ld: bad block\n", i);
            return 1;
        }
    }
    std::printf("%ld threads\n", threads);
    return 0;
}
