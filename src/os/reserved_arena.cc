#include "os/reserved_arena.h"

#include <sys/mman.h>
#include <unistd.h>

#include <limits>
#include <mutex>
#include <new>

#include "common/failure.h"
#include "common/mathutil.h"

namespace hoard {
namespace os {

namespace {

std::size_t
runtime_page_size()
{
    static const std::size_t ps =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return ps;
}

/**
 * Snaps user-supplied knobs onto the grid the carver needs: a
 * power-of-two max span no smaller than a page, and arenas that are a
 * whole number of max spans so the bump cursor tiles them exactly.
 */
ReservedArenaProvider::Options
normalize(ReservedArenaProvider::Options o)
{
    const std::size_t ps = runtime_page_size();
    if (o.max_span_bytes < ps)
        o.max_span_bytes = ps;
    o.max_span_bytes = detail::next_pow2(o.max_span_bytes);
    if (o.arena_bytes < o.max_span_bytes)
        o.arena_bytes = o.max_span_bytes;
    o.arena_bytes = detail::align_up(o.arena_bytes, o.max_span_bytes);
    return o;
}

}  // namespace

ReservedArenaProvider::ReservedArenaProvider()
    : ReservedArenaProvider(Options())
{
}

ReservedArenaProvider::ReservedArenaProvider(Options options)
    : options_(normalize(options)),
      page_bytes_(runtime_page_size()),
      min_order_(static_cast<int>(detail::floor_log2(page_bytes_))),
      max_order_(
          static_cast<int>(detail::floor_log2(options_.max_span_bytes)))
{
    HOARD_CHECK(max_order_ < kMaxOrders);
    HOARD_CHECK(min_order_ <= max_order_);
}

ReservedArenaProvider::~ReservedArenaProvider()
{
    // Failed decommits punch munmap holes into arena chunks; munmap
    // over a range with holes still succeeds, so a whole-chunk unmap
    // is always the right teardown.
    const std::size_t n = chunk_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i)
        ::munmap(reinterpret_cast<void*>(chunks_[i].base),
                 chunks_[i].bytes);
    const std::size_t nc =
        node_chunk_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < nc; ++i)
        ::munmap(node_chunks_[i], kNodeChunkBytes);
}

// ---------------------------------------------------------------------------
// Syscall seams.

void*
ReservedArenaProvider::os_reserve(std::size_t bytes)
{
    void* p = ::mmap(nullptr, bytes, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    return p == MAP_FAILED ? nullptr : p;
}

bool
ReservedArenaProvider::os_commit(void* p, std::size_t bytes)
{
    return ::mprotect(p, bytes, PROT_READ | PROT_WRITE) == 0;
}

bool
ReservedArenaProvider::os_decommit(void* p, std::size_t bytes)
{
    return ::madvise(p, bytes, MADV_DONTNEED) == 0;
}

void
ReservedArenaProvider::os_release(void* p, std::size_t bytes)
{
    int rc = ::munmap(p, bytes);
    HOARD_CHECK(rc == 0);
}

void*
ReservedArenaProvider::os_map_rw(std::size_t bytes)
{
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? nullptr : p;
}

// ---------------------------------------------------------------------------
// Tagged Treiber stacks and the span-node pool.

void
ReservedArenaProvider::push_node(std::atomic<std::uintptr_t>& head,
                                 SpanNode* node)
{
    std::uintptr_t old = head.load(std::memory_order_relaxed);
    for (;;) {
        node->next.store(node_of(old), std::memory_order_relaxed);
        if (head.compare_exchange_weak(old, pack(node, old),
                                       std::memory_order_release,
                                       std::memory_order_relaxed))
            return;
    }
}

ReservedArenaProvider::SpanNode*
ReservedArenaProvider::pop_node(std::atomic<std::uintptr_t>& head)
{
    std::uintptr_t old = head.load(std::memory_order_acquire);
    for (;;) {
        SpanNode* node = node_of(old);
        if (node == nullptr)
            return nullptr;
        // Safe even if another thread pops and recycles `node` first:
        // pool nodes are never unmapped, and the tag in `old` makes the
        // CAS fail on any interleaving that changed the stack.
        SpanNode* next = node->next.load(std::memory_order_relaxed);
        if (head.compare_exchange_weak(old, pack(next, old),
                                       std::memory_order_acquire,
                                       std::memory_order_acquire))
            return node;
    }
}

ReservedArenaProvider::SpanNode*
ReservedArenaProvider::alloc_node()
{
    if (SpanNode* node = pop_node(free_nodes_))
        return node;

    constexpr std::size_t kPerChunk = kNodeChunkBytes / sizeof(SpanNode);
    const std::size_t idx =
        node_bump_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t chunk = idx / kPerChunk;
    if (chunk >= kMaxNodeChunks)
        return nullptr;
    if (chunk >= node_chunk_count_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(node_mutex_);
        while (chunk >=
               node_chunk_count_.load(std::memory_order_relaxed)) {
            // Raw mmap on purpose: pool metadata must stay alive even
            // when a fault-injecting subclass is failing the os_* seams.
            void* mem =
                ::mmap(nullptr, kNodeChunkBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (mem == MAP_FAILED)
                return nullptr;
            const std::size_t count =
                node_chunk_count_.load(std::memory_order_relaxed);
            node_chunks_[count] = mem;
            node_chunk_count_.store(count + 1,
                                    std::memory_order_release);
        }
    }
    char* mem = static_cast<char*>(node_chunks_[chunk]) +
                (idx % kPerChunk) * sizeof(SpanNode);
    return new (mem) SpanNode();
}

void
ReservedArenaProvider::free_node(SpanNode* node)
{
    push_node(free_nodes_, node);
}

void
ReservedArenaProvider::park_span(std::uintptr_t base, int order, bool rw)
{
    SpanNode* node = alloc_node();
    if (node == nullptr) {
        // Metadata pool exhausted: give the span back to the OS rather
        // than lose track of it.  The arena keeps a permanent VA hole.
        const std::size_t span = std::size_t{1} << order;
        os_release(reinterpret_cast<void*>(base), span);
        reserved_.sub(span);
        return;
    }
    node->base = base;
    node->rw = rw;
    push_node(free_spans_[order], node);
}

// ---------------------------------------------------------------------------
// Arena growth and span carving.

bool
ReservedArenaProvider::grow_arena()
{
    const std::size_t n = chunk_count_.load(std::memory_order_relaxed);
    if (n == kMaxChunks)
        return false;

    // Over-reserve by one max span so an aligned arena of the full
    // size must exist inside, then trim the PROT_NONE head/tail.
    const std::size_t want = options_.arena_bytes;
    const std::size_t span = options_.max_span_bytes;
    const std::size_t total = want + span - page_bytes_;
    void* raw = os_reserve(total);
    if (raw == nullptr)
        return false;
    reservations_.add();

    const auto base = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned = detail::align_up(base, span);
    if (aligned != base)
        os_release(raw, aligned - base);
    if (aligned + want != base + total)
        os_release(reinterpret_cast<void*>(aligned + want),
                   (base + total) - (aligned + want));

#ifdef MADV_HUGEPAGE
    if (options_.huge_pages)
        (void)::madvise(reinterpret_cast<void*>(aligned), want,
                        MADV_HUGEPAGE);
#endif

    chunks_[n].base = aligned;
    chunks_[n].bytes = want;
    chunks_[n].bump.store(0, std::memory_order_relaxed);
    chunk_count_.store(n + 1, std::memory_order_release);
    reserved_.add(want);
    return true;
}

std::uintptr_t
ReservedArenaProvider::carve_max_span()
{
    const std::size_t span = options_.max_span_bytes;
    for (;;) {
        const std::size_t n =
            chunk_count_.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < n; ++i) {
            ArenaChunk& chunk = chunks_[i];
            // Losing racers overshoot the cursor and move on; the
            // chunk is then permanently exhausted, which is fine —
            // at most one max span per chunk is at stake.
            const std::size_t off =
                chunk.bump.fetch_add(span, std::memory_order_relaxed);
            if (off + span <= chunk.bytes)
                return chunk.base + off;
        }
        std::lock_guard<std::mutex> lock(grow_mutex_);
        if (chunk_count_.load(std::memory_order_acquire) != n)
            continue;  // another thread grew the set; retry the carve
        if (!grow_arena())
            return 0;
    }
}

std::uintptr_t
ReservedArenaProvider::take_span(int order, bool* rw)
{
    // Exact-order recycle: the hot path for steady-state superblock
    // traffic, one tagged pop and zero syscalls.
    if (SpanNode* node = pop_node(free_spans_[order])) {
        const std::uintptr_t base = node->base;
        *rw = node->rw;
        free_node(node);
        span_recycles_.add();
        return base;
    }

    // Split a larger free span buddy-style, parking the upper halves.
    for (int o = order + 1; o <= max_order_; ++o) {
        SpanNode* node = pop_node(free_spans_[o]);
        if (node == nullptr)
            continue;
        const std::uintptr_t base = node->base;
        const bool committed = node->rw;
        free_node(node);
        for (int cur = o; cur > order; --cur)
            park_span(base + (std::uintptr_t{1} << (cur - 1)), cur - 1,
                      committed);
        span_recycles_.add();
        *rw = committed;
        return base;
    }

    // Bump-carve fresh reservation (still PROT_NONE → rw = false).
    const std::uintptr_t base = carve_max_span();
    if (base == 0)
        return 0;
    span_carves_.add();
    for (int cur = max_order_; cur > order; --cur)
        park_span(base + (std::uintptr_t{1} << (cur - 1)), cur - 1,
                  false);
    *rw = false;
    return base;
}

int
ReservedArenaProvider::order_for(std::size_t bytes,
                                 std::size_t align) const
{
    if (bytes > options_.max_span_bytes)
        return -1;
    const std::size_t span = detail::next_pow2(
        bytes < page_bytes_ ? page_bytes_ : bytes);
    if (span > options_.max_span_bytes)
        return -1;
    // The span size must be derivable from `bytes` alone so unmap()
    // can recompute it; an alignment stricter than the natural span
    // therefore goes to the fallback path.
    if (align > span)
        return -1;
    return static_cast<int>(detail::floor_log2(span));
}

// ---------------------------------------------------------------------------
// Public interface.

void*
ReservedArenaProvider::map(std::size_t bytes, std::size_t align)
{
    HOARD_CHECK(bytes > 0);
    HOARD_CHECK(detail::is_pow2(align));

    const int order = order_for(bytes, align);
    if (order < 0)
        return map_fallback(bytes, align);

    bool rw = false;
    const std::uintptr_t base = take_span(order, &rw);
    if (base == 0)
        return map_fallback(bytes, align);  // every arena exhausted

    const std::size_t span = std::size_t{1} << order;
    if (!rw) {
        commit_calls_.add();
        if (!os_commit(reinterpret_cast<void*>(base), span)) {
            // Commit failure is memory pressure (page tables or commit
            // charge); park the span for a later retry and report OOM
            // so the allocator's reclaim path can kick in.
            park_span(base, order, false);
            return nullptr;
        }
    }
    committed_.add(span);
    return reinterpret_cast<void*>(base);
}

void*
ReservedArenaProvider::map_fallback(std::size_t bytes, std::size_t align)
{
    const std::size_t ps = page_bytes_;
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    if (bytes > kMax - (ps - 1))
        return nullptr;
    bytes = detail::align_up(bytes, ps);
    if (align < ps)
        align = ps;
    if (bytes > kMax - (align - ps))
        return nullptr;

    const std::size_t span = bytes + align - ps;
    void* raw = os_map_rw(span);
    if (raw == nullptr)
        return nullptr;
    fallback_maps_.add();

    const auto base = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned = detail::align_up(base, align);
    if (aligned != base)
        os_release(raw, aligned - base);
    if (aligned + bytes != base + span)
        os_release(reinterpret_cast<void*>(aligned + bytes),
                   (base + span) - (aligned + bytes));

    committed_.add(bytes);
    reserved_.add(bytes);
    return reinterpret_cast<void*>(aligned);
}

void
ReservedArenaProvider::unmap(void* p, std::size_t bytes)
{
    HOARD_CHECK(p != nullptr);

    if (!in_arena(p)) {
        bytes = detail::align_up(bytes, page_bytes_);
        os_release(p, bytes);
        committed_.sub(bytes);
        reserved_.sub(bytes);
        return;
    }

    const int order = order_for(bytes, 1);
    HOARD_CHECK(order >= 0);
    const std::size_t span = std::size_t{1} << order;
    decommit_calls_.add();
    if (os_decommit(p, span)) {
        committed_.sub(span);
        park_span(reinterpret_cast<std::uintptr_t>(p), order, true);
    } else {
        // Decommit refused: unmapping instead still upholds the
        // map()-returns-zeroed contract (the span just cannot be
        // recycled — a permanent VA hole in the arena).
        decommit_failures_.add();
        os_release(p, span);
        committed_.sub(span);
        reserved_.sub(span);
    }
}

bool
ReservedArenaProvider::purge(void* p, std::size_t bytes)
{
    HOARD_CHECK(p != nullptr);
    HOARD_CHECK(detail::is_aligned(p, page_bytes_));
    bytes = detail::align_up(bytes, page_bytes_);
    decommit_calls_.add();
    if (!os_decommit(p, bytes)) {
        decommit_failures_.add();
        return false;
    }
    committed_.sub(bytes);
    return true;
}

void
ReservedArenaProvider::unpurge(void* /* p */, std::size_t bytes)
{
    committed_.add(detail::align_up(bytes, page_bytes_));
}

bool
ReservedArenaProvider::in_arena(const void* p) const
{
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    const std::size_t n = chunk_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
        if (a >= chunks_[i].base && a < chunks_[i].base + chunks_[i].bytes)
            return true;
    }
    return false;
}

}  // namespace os
}  // namespace hoard
