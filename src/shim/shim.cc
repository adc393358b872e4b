/**
 * @file
 * libhoard.so: the LD_PRELOAD drop-in shim (ROADMAP item 1).
 *
 * Replaces the C allocation API for the whole process by *symbol
 * interposition*: this library defines malloc/free/calloc/... itself,
 * so the dynamic linker binds every PLT reference in the executable
 * and every shared library (glibc's own strdup/getline/asprintf
 * included) to these definitions.  No dlsym(RTLD_NEXT) chaining is
 * needed — every pointer the process frees was handed out here.  C++
 * operator new/delete are NOT defined here: libstdc++'s defaults call
 * malloc/free, which already land in this shim, and defining them in
 * a preloaded library would shadow programs that replace operator new
 * themselves.
 *
 * Robustness layers (docs/SHIM.md):
 *
 *  - **Bootstrap safety.**  The global Hoard instance is a leaked
 *    magic-static (core/facade.cc); constructing it allocates (heap
 *    tables, size-class tables) through operator new, which calls the
 *    malloc defined *here*.  Re-entering global_allocator() from
 *    inside its own construction would deadlock the magic-static
 *    guard, so every wrapper brackets its facade call with a
 *    per-thread depth counter, and any allocation arriving at depth
 *    > 0 is served from a static, lock-free bump arena instead.  Each
 *    arena block carries a small header recording its size, so
 *    realloc and malloc_usable_size work on bootstrap pointers; frees
 *    of arena pointers are recognized by address range and no-op'd
 *    (the arena is never reused, which also keeps it calloc-safe:
 *    every block is untouched BSS zeros).  The depth counter's TLS is
 *    initial-exec — the dynamic TLS model can itself call malloc on
 *    first access, which would recurse before the guard exists.
 *
 *  - **Fork safety.**  A constructor forces the singleton into
 *    existence and installs the pthread_atfork handlers
 *    (hoard_install_atfork) before main() runs, so a fork() from any
 *    thread — even one taken while sibling threads are mid-malloc —
 *    yields a child whose allocator locks are released and whose
 *    gauges are repaired.
 *
 *  - **Hardened free.**  Arbitrary pointers from the host program hit
 *    the validating free path (Config::hardened_free, on by default);
 *    HOARD_BAD_FREE=warn switches the process from abort-with-
 *    diagnostic to count-and-leak without a rebuild.  Alignment
 *    arguments never abort either: the facade answers one that is not
 *    a power of two with EINVAL and one past S/2 with ENOMEM.
 *
 * Known bounds (documented, not bugs): allocator-internal metadata
 * allocated while a wrapper is on the stack also lands in the bump
 * arena and is never reclaimed.  Per thread that is one magazine node
 * (under 1 KiB), and an exited thread's node is reused by the next
 * thread (core/magazine.h); the exit hook is a pthread key, whose value
 * glibc keeps in the thread descriptor, not a thread_local destructor
 * record.  So the 8 MiB arena bounds the threads alive at once (several
 * thousand), not the threads ever created; past it, malloc fails
 * cleanly with ENOMEM.
 */

#include <cerrno>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <unistd.h>

#include "core/facade.h"

namespace {

/// Re-entrancy depth of the calling thread: > 0 while a facade call
/// (or the singleton's construction) is on the stack.
__thread int t_depth __attribute__((tls_model("initial-exec"))) = 0;

struct DepthGuard
{
    DepthGuard() { ++t_depth; }
    ~DepthGuard() { --t_depth; }
};

/// @name Bootstrap bump arena.
/// @{

constexpr std::size_t kArenaBytes = 8u << 20;

/// 16-byte per-block header so realloc/usable_size work on arena
/// pointers; sits immediately before the returned pointer.
struct BootHeader
{
    std::size_t size;
    std::size_t reserved;
};
static_assert(sizeof(BootHeader) == 16, "headers must keep 16-alignment");

alignas(16) unsigned char g_arena[kArenaBytes];
std::atomic<std::size_t> g_arena_cursor{0};

bool
boot_owns(const void* p)
{
    auto addr = reinterpret_cast<std::uintptr_t>(p);
    auto base = reinterpret_cast<std::uintptr_t>(g_arena);
    return addr >= base && addr < base + kArenaBytes;
}

void*
boot_alloc(std::size_t size, std::size_t align)
{
    if (align < 16)
        align = 16;
    std::size_t need =
        sizeof(BootHeader) + (align - 16) + ((size + 15) & ~std::size_t{15});
    std::size_t off =
        g_arena_cursor.fetch_add(need, std::memory_order_relaxed);
    if (off + need > kArenaBytes || off + need < off) {
        errno = ENOMEM;
        return nullptr;
    }
    auto base = reinterpret_cast<std::uintptr_t>(g_arena) + off +
                sizeof(BootHeader);
    auto user = (base + align - 1) & ~(align - 1);
    auto* header = reinterpret_cast<BootHeader*>(user) - 1;
    header->size = size;
    return reinterpret_cast<void*>(user);
}

std::size_t
boot_size(const void* p)
{
    return (reinterpret_cast<const BootHeader*>(p) - 1)->size;
}

/// @}

bool
is_pow2(std::size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

std::size_t
page_bytes()
{
    long page = ::sysconf(_SC_PAGESIZE);
    return page > 0 ? static_cast<std::size_t>(page) : 4096;
}

void*
aligned_impl(std::size_t align, std::size_t size)
{
    if (!is_pow2(align)) {
        errno = EINVAL;
        return nullptr;
    }
    if (t_depth > 0)
        return boot_alloc(size == 0 ? 1 : size, align);
    // The facade decides what it can serve and sets errno (ENOMEM past
    // S/2, docs/SHIM.md).
    DepthGuard guard;
    return hoard::hoard_aligned_alloc(align, size);
}

/// @name Heap-profile dumping (docs/PROFILING.md).
/// Armed when HOARD_PROFILE_RATE enables the profiler: SIGUSR2 dumps
/// a pprof profile on demand, and HOARD_PROFILE_DUMP=<prefix> adds an
/// exit-time dump plus a leak report.  Every dump body runs under a
/// DepthGuard so its own allocations (ofstream buffers, the pprof
/// string) land in the bootstrap arena and never re-enter the
/// allocator being profiled — which is also what makes the SIGUSR2
/// handler safe against the "signal arrived inside malloc" case.
/// @{

char g_profile_prefix[224];
std::atomic<int> g_profile_seq{0};

/** Writes profile (and optionally the leak report) under @p prefix;
    filenames carry the pid so forked children never collide. */
void
profile_dump(bool with_leak_report)
{
    DepthGuard guard;
    const int seq =
        g_profile_seq.fetch_add(1, std::memory_order_relaxed);
    const long pid = static_cast<long>(::getpid());
    char path[256];
    std::snprintf(path, sizeof path, "%s.%ld.%d.pb", g_profile_prefix,
                  pid, seq);
    {
        std::ofstream out(path, std::ios::binary);
        if (out)
            hoard::hoard_write_heap_profile(out);
    }
    if (with_leak_report) {
        std::snprintf(path, sizeof path, "%s.%ld.leaks.txt",
                      g_profile_prefix, pid);
        std::ofstream out(path);
        if (out)
            hoard::hoard_write_leak_report(out);
    }
}

void
profile_sigusr2(int /* signo */)
{
    // Not strictly async-signal-safe (file I/O), but re-entry into the
    // allocator — the actual deadlock risk — is routed to the arena by
    // the DepthGuard inside.  Same trade every sampling profiler makes
    // for an on-demand dump signal.
    profile_dump(/*with_leak_report=*/false);
}

void
profile_atexit()
{
    profile_dump(/*with_leak_report=*/true);
}

/// @}

/** Exit-time timeline dump (HOARD_TIMELINE=<path>): the ofstream's
    own allocations ride the DepthGuard into the bootstrap arena, so
    the dump never re-enters the allocator it is sampling. */
void
timeline_atexit()
{
    DepthGuard guard;
    const char* path = std::getenv("HOARD_TIMELINE");
    if (path == nullptr || path[0] == '\0')
        return;
    std::ofstream out(path);
    if (out)
        hoard::hoard_write_timeline(out);
}

/** Forces the singleton alive and registers the atfork handlers
    before main() — bootstrap allocations go to the arena. */
__attribute__((constructor)) void
shim_init()
{
    DepthGuard guard;
    hoard::hoard_install_atfork();
    if (hoard::hoard_profiler() != nullptr) {
        const char* prefix = std::getenv("HOARD_PROFILE_DUMP");
        std::snprintf(g_profile_prefix, sizeof g_profile_prefix, "%s",
                      prefix != nullptr && prefix[0] != '\0'
                          ? prefix
                          : "hoard-profile");
        struct sigaction sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sa_handler = &profile_sigusr2;
        sa.sa_flags = SA_RESTART;
        ::sigaction(SIGUSR2, &sa, nullptr);
        if (prefix != nullptr && prefix[0] != '\0')
            std::atexit(&profile_atexit);
    }
    const char* timeline = std::getenv("HOARD_TIMELINE");
    if (timeline != nullptr && timeline[0] != '\0')
        std::atexit(&timeline_atexit);
}

}  // namespace

extern "C" {

void*
malloc(std::size_t size) noexcept
{
    if (t_depth > 0)
        return boot_alloc(size, 16);
    DepthGuard guard;
    return hoard::hoard_malloc(size);
}

void
free(void* p) noexcept
{
    if (p == nullptr || boot_owns(p))
        return;
    DepthGuard guard;
    hoard::hoard_free(p);
}

void*
calloc(std::size_t count, std::size_t size) noexcept
{
    if (t_depth > 0) {
        if (size != 0 && count > SIZE_MAX / size) {
            errno = ENOMEM;
            return nullptr;
        }
        // Arena memory is untouched BSS — already zero, never reused.
        return boot_alloc(count * size, 16);
    }
    DepthGuard guard;
    return hoard::hoard_calloc(count, size);
}

void*
realloc(void* p, std::size_t size) noexcept
{
    if (p != nullptr && boot_owns(p)) {
        // Migrate out of the arena: copy, don't free (arena frees are
        // no-ops anyway).
        if (size == 0)
            return nullptr;
        void* fresh = malloc(size);
        if (fresh != nullptr) {
            std::size_t old = boot_size(p);
            std::memcpy(fresh, p, old < size ? old : size);
        }
        return fresh;
    }
    DepthGuard guard;
    return hoard::hoard_realloc(p, size);
}

void*
reallocarray(void* p, std::size_t count, std::size_t size) noexcept
{
    if (size != 0 && count > SIZE_MAX / size) {
        errno = ENOMEM;
        return nullptr;
    }
    return realloc(p, count * size);
}

void*
aligned_alloc(std::size_t align, std::size_t size) noexcept
{
    return aligned_impl(align, size);
}

void*
memalign(std::size_t align, std::size_t size) noexcept
{
    return aligned_impl(align, size);
}

int
posix_memalign(void** out, std::size_t align, std::size_t size) noexcept
{
    if (out == nullptr || !is_pow2(align) ||
        align % sizeof(void*) != 0)
        return EINVAL;
    void* p = aligned_impl(align, size);
    if (p == nullptr)
        return ENOMEM;
    *out = p;
    return 0;
}

void*
valloc(std::size_t size) noexcept
{
    return aligned_impl(page_bytes(), size);
}

void*
pvalloc(std::size_t size) noexcept
{
    std::size_t page = page_bytes();
    if (size > SIZE_MAX - (page - 1)) {
        errno = ENOMEM;
        return nullptr;
    }
    return aligned_impl(page, (size + page - 1) & ~(page - 1));
}

std::size_t
malloc_usable_size(void* p) noexcept
{
    if (p == nullptr)
        return 0;
    if (boot_owns(p))
        return boot_size(p);
    DepthGuard guard;
    return hoard::hoard_usable_size(p);
}

int
malloc_trim(std::size_t /* pad */) noexcept
{
    if (t_depth > 0)
        return 0;
    DepthGuard guard;
    return hoard::hoard_release_free_memory() > 0 ? 1 : 0;
}

}  // extern "C"
