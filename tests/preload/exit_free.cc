/**
 * @file
 * Allocator calls from exit-time destructors, under the LD_PRELOAD
 * shim.  Each destructor frees a block it was handed and allocates and
 * frees another:
 *
 *  - a static object's destructor, run by exit() after main returns
 *    (a gtest binary's UnitTest is one);
 *  - a thread_local object's destructor, on the main thread and on a
 *    worker;
 *  - a pthread key destructor on a worker, created after the shim's
 *    own key so it runs after the allocator's per-thread exit hook.
 *
 *   LD_PRELOAD=build/src/shim/libhoard.so build/tests/preload_exit_free
 *
 * Exits 0 when every destructor ran and found its block intact.
 */

#include <pthread.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace {

constexpr std::size_t kBytes = 48;
constexpr unsigned char kStamp = 0x5a;

int g_destructors_run = 0;  // touched by one thread at a time

void*
stamped_block()
{
    void* p = std::malloc(kBytes);
    if (p == nullptr)
        std::abort();
    std::memset(p, kStamp, kBytes);
    return p;
}

/** Frees its block (checking the stamp) and churns one more. */
void
free_late(void* block)
{
    if (block == nullptr)
        return;
    if (static_cast<unsigned char*>(block)[kBytes - 1] != kStamp)
        std::abort();
    std::free(block);
    std::free(stamped_block());
    ++g_destructors_run;
}

struct FreeAtExit
{
    void* block = nullptr;
    ~FreeAtExit()
    {
        free_late(block);
        block = nullptr;
    }
};

thread_local FreeAtExit t_local;

pthread_key_t g_late_key;

void
late_key_destructor(void* block)
{
    free_late(block);
}

/** Exit handler registered before main's static was constructed, so
    it runs after that static's destructor: checks every one ran. */
void
check_count()
{
    // main's thread_local and static, the worker's thread_local and
    // the worker's key destructor.
    if (g_destructors_run != 4) {
        std::fprintf(stderr, "%d of 4 exit-time frees ran\n",
                     g_destructors_run);
        std::_Exit(1);
    }
    std::printf("4 exit-time frees ran\n");
}

}  // namespace

int
main()
{
    if (pthread_key_create(&g_late_key, &late_key_destructor) != 0)
        return 1;
    std::atexit(&check_count);
    std::thread([] {
        t_local.block = stamped_block();
        pthread_setspecific(g_late_key, stamped_block());
    }).join();
    t_local.block = stamped_block();
    static FreeAtExit at_exit;
    at_exit.block = stamped_block();
    return 0;
}
