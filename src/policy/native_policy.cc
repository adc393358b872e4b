#include "policy/native_policy.h"

#include <atomic>
#include <cstdint>

namespace hoard {

namespace {

std::atomic<int> g_next_index{0};

}  // namespace

__attribute__((noinline)) int
NativePolicy::profile_backtrace(std::uintptr_t* frames, int max)
{
    // Frame layout with -fno-omit-frame-pointer: *fp is the caller's
    // fp, *(fp+1) the return address.  Every step is sanity-checked —
    // the chain ends at a foreign frame (ld.so, a thread trampoline,
    // JIT code) whose saved "fp" is garbage, and a wild read here
    // would crash the very tool meant to diagnose crashes.
    struct Frame
    {
        Frame* next;
        std::uintptr_t ret;
    };

    const Frame* fp =
        static_cast<const Frame*>(__builtin_frame_address(0));
    int n = 0;
    // 1 MiB cap per step: stack frames larger than that are not real,
    // they are a corrupt chain about to walk off the stack.
    constexpr std::uintptr_t kMaxStep = std::uintptr_t{1} << 20;
    while (fp != nullptr && n < max) {
        const std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(fp);
        if (addr % alignof(void*) != 0)
            break;
        const std::uintptr_t ret = fp->ret;
        // A return address must look like code: the low 64 KiB is
        // never mapped (mmap_min_addr) and x86-64/AArch64 user space
        // tops out at 2^48.  Foreign frames whose "ret" slot holds
        // loop counters or flags fail this and end the walk — without
        // it, that garbage varies per call and every sample mints a
        // brand-new site until the table fills.
        if (ret < 0x10000 || ret >= (std::uintptr_t{1} << 48))
            break;
        frames[n++] = ret;
        const Frame* next = fp->next;
        const std::uintptr_t next_addr =
            reinterpret_cast<std::uintptr_t>(next);
        // Stacks grow down, so the caller's frame sits strictly above.
        if (next_addr <= addr || next_addr - addr > kMaxStep)
            break;
        fp = next;
    }
    return n;
}

int
ThreadRegistry::assign_index()
{
    t_index = g_next_index.fetch_add(1, std::memory_order_relaxed);
    return t_index;
}

void
ThreadRegistry::rebind(int index)
{
    t_index = index;
    // Keep count() an upper bound over every index ever bound.
    int seen = g_next_index.load(std::memory_order_relaxed);
    while (index >= seen &&
           !g_next_index.compare_exchange_weak(seen, index + 1,
                                               std::memory_order_relaxed)) {
    }
}

int
ThreadRegistry::count()
{
    return g_next_index.load(std::memory_order_relaxed);
}

}  // namespace hoard
