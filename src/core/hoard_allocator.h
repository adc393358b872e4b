/**
 * @file
 * The Hoard allocator (paper §3, Figures 2-3).
 *
 * Structure: P per-processor heaps plus one global heap (heap 0).  A
 * thread allocates from heap `1 + (tid mod P)`.  Each heap tracks the
 * bytes it holds (a_i) and the bytes in use by the program (u_i) and
 * maintains the emptiness invariant
 *
 *     u_i >= a_i - K*S   or   u_i >= (1 - f) * a_i
 *
 * by transferring a superblock that is at least f empty to the global
 * heap whenever a free leaves both conditions violated.  That invariant
 * is the paper's central device: it bounds blowup to O(1) and makes the
 * expected synchronization per operation constant.
 *
 * The global heap itself is *sharded* (the scalloc direction — global
 * structures must scale too, PAPERS.md): one GlobalBin per size class,
 * each with its own lock and an approximate occupancy counter so
 * fetchers skip empty classes without locking; a lock-free Treiber
 * cache (superblock_cache.h) holds the completely-empty superblocks
 * any class may claim; transfers and fetches move superblocks in
 * batches (Config::global_fetch_batch) so one lock round trip lands or
 * pulls several; and the huge-object list is striped across
 * kHugeStripes locks.  Together heap 0 is a logical construct — u_0 /
 * a_0 are sums over the bins plus the cache — and no single mutex
 * serializes the slow path.
 *
 * The class is templated on an execution policy (NativePolicy /
 * SimPolicy) so the identical algorithm runs under real threads and on
 * the virtual-time multiprocessor that regenerates the paper's figures.
 *
 * Fast path (extension over the paper, see docs/ARCHITECTURE.md): with
 * Config::thread_cache_blocks > 0 (the shipped default is 16) each
 * logical thread keeps per-class *magazines* of free blocks
 * (magazine.h).  malloc/free on a warm magazine takes no lock and makes
 * no atomic read-modify-write; magazines refill and spill in batches of
 * Config::thread_cache_batch blocks under a single heap-lock
 * acquisition, and the cached-bytes gauge is synced once per batch.
 * Each heap additionally owns a lock-free MPSC remote-free queue: a
 * free whose owning heap's lock is busy is pushed there instead of
 * blocking, and the owner settles the whole chain with one exchange
 * the next time it holds its lock.
 *
 * Statistics: the counters every malloc/free bumps (allocs, frees,
 * in_use_bytes, remote_frees) are per-thread shards (common/stats.h).
 * Each live OS thread owns one that no other live thread writes and
 * updates it with plain loads and stores, so a magazine hit writes only
 * lines its own thread owns, and a locked small-object operation
 * writes no shared line beyond its heap's.  Exited threads' shards are
 * recycled; only while more than kStatShards - 1 threads are alive do
 * the latecomers share an overflow shard, with atomic read-modify-
 * writes.  Only the slow paths (fetch, transfer, map, purge) move
 * shared gauges.
 *
 * Huge objects (> S/2) get a dedicated span.  Medium ones, whose span
 * is at most SpanCache::kCeilingBytes, round up to one of four classes
 * per octave, and a freed medium span stays committed in the span cache
 * (span_cache.h) as far as the emptiness invariant and the medium
 * in-use high-water mark allow; the next request of its class takes it
 * back with no syscall and no page fault.  A span that maps afresh first
 * gives back the reuse cache's surplus empty superblocks, up to the
 * span's size, so a program that drops a small-object working set and
 * then maps large buffers does not hold both.  Surplus is what lies
 * above a reserve that grows each time a small class has to map afresh
 * after such a give-back, so small classes that cycle empties through
 * the cache keep them.
 */

#ifndef HOARD_CORE_HOARD_ALLOCATOR_H_
#define HOARD_CORE_HOARD_ALLOCATOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/failure.h"
#include "common/mathutil.h"
#include "common/memutil.h"
#include "common/stats.h"
#include "core/allocator.h"
#include "core/config.h"
#include "core/heap.h"
#include "core/magazine.h"
#include "core/size_classes.h"
#include "core/span_cache.h"
#include "core/superblock.h"
#include "core/superblock_cache.h"
#include "obs/event_ring.h"
#include "obs/gating.h"
#include "obs/heap_profiler.h"
#include "obs/latency.h"
#include "obs/snapshot.h"
#include "obs/timeseries.h"
#include "os/page_provider.h"
#include "policy/cost_kind.h"

namespace hoard {
namespace detail {

/**
 * Process-unique id stamped into every superblock an allocator
 * instance formats, so the hardened free path can tell "this span
 * belongs to a *different* HoardAllocator" apart from "this span is
 * not a superblock at all".  Shared across policy instantiations (one
 * counter for the process, not one per template), starting at 1 so the
 * default Superblock arena 0 never matches a hardened allocator.
 */
inline std::uint32_t
next_arena_id()
{
    static std::atomic<std::uint32_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

/** Hoard allocator, parameterized by execution policy. */
template <typename Policy>
class HoardAllocator final : public Allocator
{
  public:
    using Heap = HoardHeap<Policy>;
    using Base = HeapBase<Policy>;
    using Bin = GlobalBin<Policy>;

    /** Lock stripes for the huge-object list. Power of two. */
    static constexpr std::size_t kHugeStripes = 8;

    explicit HoardAllocator(
        const Config& config = Config(),
        os::PageProvider& provider = os::default_page_provider())
        : config_(validated(config)),
          provider_(provider),
          classes_(config_,
                   Superblock::payload_bytes_for(config_.superblock_bytes)),
          reuse_cache_(config_.superblock_bytes,
                       static_cast<std::size_t>(classes_.count()))
    {
        // heaps_[i] is per-processor heap i+1; the global heap (0) is
        // the bins + reuse cache, not a Heap object.
        heaps_.reserve(static_cast<std::size_t>(config_.heap_count));
        for (int i = 1; i <= config_.heap_count; ++i)
            heaps_.push_back(std::make_unique<Heap>(i, classes_.count()));
        global_bins_.reserve(static_cast<std::size_t>(classes_.count()));
        for (int cls = 0; cls < classes_.count(); ++cls)
            global_bins_.push_back(std::make_unique<Bin>(cls));
        if (config_.thread_cache_blocks > 0) {
            batch_blocks_ =
                config_.thread_cache_batch != 0
                    ? config_.thread_cache_batch
                    : std::max(1u, config_.thread_cache_blocks / 2);
            magazine_id_ = detail::magazine_register_allocator();
            if (magazine_id_ != 0)
                Policy::set_thread_exit_hook(
                    &detail::magazine_thread_exit);
        }
        if constexpr (Policy::kObsEnabled) {
            if (config_.observability || obs::env_enabled()) {
                recorder_ = std::make_unique<obs::EventRecorder>(
                    config_.obs_ring_events);
                for (auto& heap : heaps_)
                    heap->mutex.set_profiled(true);
                for (auto& bin : global_bins_)
                    bin->mutex.set_profiled(true);
                if (config_.obs_sample_interval > 0) {
                    sampler_ = std::make_unique<obs::TimeSeriesSampler>(
                        config_.obs_sample_slots, heaps_.size() + 1,
                        config_.obs_sample_interval);
                }
            }
        }
        // The latency histograms gate independently of observability,
        // like the profiler: disarmed leaves latency_ null, so the hot
        // paths keep one never-taken null check on the same read-mostly
        // cache line as the profiler pointer.
        if constexpr (Policy::kObsEnabled) {
            if (config_.latency_histograms ||
                obs::latency_env_enabled()) {
                latency_ = std::make_unique<obs::LatencyCollector>(
                    config_.latency_sample_period,
                    config_.latency_outlier_cycles);
            }
        }
        // The profiler gates independently of observability: a
        // production process can attribute its heap without paying for
        // event tracing.  rate 0 leaves profiler_ null, so the hot
        // paths keep a single never-taken null check.
        if constexpr (Policy::kProfilerEnabled) {
            if (config_.profile_sample_rate > 0) {
                profiler_ = std::make_unique<obs::HeapProfiler>(
                    config_.profile_sample_rate,
                    config_.profile_site_slots,
                    config_.profile_live_slots,
                    config_.profile_max_frames,
                    static_cast<std::uint32_t>(classes_.count()));
            }
        }
    }

    ~HoardAllocator() override
    {
        // Unregister first: it blocks until any in-flight thread-exit
        // flush drains, and afterwards no exit hook will call back
        // into this allocator.  Surviving threads' nodes for it stay
        // on their chains until the thread next registers a node with
        // an allocator or exits; either parks them for reuse (the dead
        // id skips the flush).
        detail::magazine_unregister_allocator(magazine_id_);
        release_everything();
    }

    HoardAllocator(const HoardAllocator&) = delete;
    HoardAllocator& operator=(const HoardAllocator&) = delete;

    /// @name Allocator interface
    /// @{

    void*
    allocate(std::size_t size) override
    {
        Policy::work(CostKind::malloc_base);
        int cls = classes_.class_for(size);
        if (cls == SizeClasses::kHuge)
            return allocate_huge(size, /*align=*/16);
        void* block = nullptr;
        if (detail::MagazineNode* node = my_magazines())
            block = magazine_pop(node, cls);
        if (block == nullptr)
            block = allocate_from_class(cls);
        if (block == nullptr)
            return nullptr;
        stats_.allocs.add();
        stats_.in_use_bytes.add(classes_.block_size(cls));
        profile_alloc(block, size, classes_.block_size(cls),
                      static_cast<std::uint32_t>(cls));
        return block;
    }

    void
    deallocate(void* p) override
    {
        if (p == nullptr)
            return;
        Policy::work(CostKind::free_base);
        Superblock* sb;
        if (config_.hardened_free) [[likely]] {
            sb = resolve_for_free(p);
            if (sb == nullptr)
                return;  // rejected and reported (warn policy leaks it)
        } else {
            sb = Superblock::from_pointer(p, config_.superblock_bytes);
        }
        // Pair a sampled free once the pointer is known good; covers
        // the huge path too.  The superblock's sampled count — on the
        // header line this path already reads — gates the live-map
        // probe, so the common unsampled free touches no profiler
        // memory at all.  Only the guard stays inline: the probe
        // itself is out of line so this branch costs deallocate no
        // inlining budget (the helpers below must keep inlining
        // identically to a kProfilerEnabled=false instantiation).
        // The superblock test comes first: its header line is already
        // hot from the resolve above, so an unsampled free decides
        // without even loading profiler_.
        if constexpr (Policy::kProfilerEnabled) {
            if ((sb->huge() || sb->has_sampled()) &&
                profiler_ != nullptr) [[unlikely]]
                profile_free_slow(sb, p);
        }
        if (sb->huge()) {
            deallocate_huge(sb);
            return;
        }
        // Read before freeing: once free_block lands the block, the
        // emptied superblock can be unmapped (empty_cache_limit) and
        // sb must not be dereferenced again.
        const std::size_t block_bytes = sb->block_bytes();
        if (detail::MagazineNode* node = my_magazines()) {
            void* block = sb->block_start(p);
            const int cls = sb->size_class();
            // A block that already heads its class's magazine was
            // freed twice since it was last handed out; parking it
            // again would link it to itself.  As strong as the locked
            // path's free-list-head probe, and checked before any
            // gauge moves.
            if (config_.hardened_free &&
                block == node->mags[static_cast<std::size_t>(cls)].head)
                [[unlikely]] {
                report_bad_free(stats_.bad_free_double, "double", p, cls);
            } else {
                // Magazine blocks are trusted on re-allocation, so the
                // gauges settle up front.
                stats_.frees.add();
                stats_.in_use_bytes.sub(block_bytes);
                magazine_push(node, sb, cls, block);
            }
        } else if (free_block(sb, p)) {
            // Gauges settle only after the locked path accepted the
            // block: the under-lock double-free probe may still reject
            // it, and decrementing first would wrap in_use.
            stats_.frees.add();
            stats_.in_use_bytes.sub(block_bytes);
        }
        // Tail position: no locks held here, so a due sample or purge
        // pass may take heap/bin locks without self-deadlock risk.
        maybe_sample();
        maybe_purge();
    }

    std::size_t
    usable_size(const void* p) const override
    {
        const Superblock* sb =
            Superblock::from_pointer(p, config_.superblock_bytes);
        if (sb->huge())
            return sb->huge_user_bytes();
        // The usable span runs from the given pointer to the block end
        // (aligned allocations hand out interior pointers).
        auto addr = reinterpret_cast<std::uintptr_t>(p);
        auto begin = reinterpret_cast<std::uintptr_t>(sb->block_start(p));
        return sb->block_bytes() - (addr - begin);
    }

    const detail::AllocatorStats& stats() const override { return stats_; }
    const char* name() const override { return "hoard"; }

    /// @}

    /**
     * calloc's allocation: allocate() plus zeroing.  A small block is
     * cleared whole.  A freshly mapped huge span is zero already, and a
     * recycled medium span is cleared only as far as its earlier
     * requests can have dirtied it, so untouched pages stay untouched.
     */
    void*
    allocate_zeroed(std::size_t size)
    {
        if (classes_.class_for(size) == SizeClasses::kHuge) {
            Policy::work(CostKind::malloc_base);
            return allocate_huge(size, /*align=*/16, /*zero=*/true);
        }
        void* p = allocate(size);
        if (p != nullptr)
            std::memset(p, 0, size);
        return p;
    }

    /**
     * Allocates @p size bytes aligned to @p align (power of two, at most
     * S/2).  Alignments up to 16 cost at most a 16-byte class; larger
     * ones may return an interior pointer of a larger block, which
     * deallocate() handles.
     */
    void*
    allocate_aligned(std::size_t size, std::size_t align)
    {
        if (!detail::is_pow2(align))
            HOARD_FATAL("alignment %zu is not a power of two", align);
        if (align > config_.superblock_bytes / 2) {
            HOARD_FATAL("alignment %zu exceeds S/2 = %zu", align,
                        config_.superblock_bytes / 2);
        }
        // Classes of 16 B and up are 16-aligned; smaller ones only 8.
        if (align <= 16)
            return allocate(std::max(size, align));

        Policy::work(CostKind::malloc_base);
        // Find a class big enough that an aligned point with `size`
        // bytes after it must exist inside the block.
        std::size_t need = size + align;
        int cls = classes_.class_for(need);
        void* block;
        if (cls == SizeClasses::kHuge) {
            return allocate_huge(size, align);
        }
        block = allocate_from_class(cls);
        if (block == nullptr)
            return nullptr;
        stats_.allocs.add();
        stats_.in_use_bytes.add(classes_.block_size(cls));
        auto addr = reinterpret_cast<std::uintptr_t>(block);
        // Profile with the *returned* (interior) pointer: that is the
        // one the program frees, so it is the live-map key.
        void* out = reinterpret_cast<void*>(detail::align_up(addr, align));
        profile_alloc(out, size, classes_.block_size(cls),
                      static_cast<std::uint32_t>(cls));
        return out;
    }

    const Config& config() const { return config_; }
    const SizeClasses& size_classes() const { return classes_; }
    int heap_count() const { return config_.heap_count; }

    /**
     * Best-effort memory release back to the OS: flushes the calling
     * thread's own magazines, settles every remote-free queue, then
     * unmaps every completely-empty superblock from every heap
     * (including the global heap's empty cache) and decommits every
     * parked medium span.  Returns the bytes given back.  This is the
     * reclaim step of the OOM retry path and doubles as a
     * malloc_trim-style API for long-running servers
     * reacting to memory pressure.  Takes no lock on entry; heap locks
     * are taken one at a time, so concurrent allocation stays safe
     * (and may legitimately race fresh memory in).  Foreign threads'
     * magazines stay parked — emptying them would race their owners'
     * lock-free fast paths; use flush_thread_caches() when quiesced.
     */
    std::size_t
    release_free_memory()
    {
        if (detail::MagazineNode* node = my_magazines()) {
            std::lock_guard<typename Policy::Mutex> guard(cache_mutex_);
            flush_node_locked(node);
        }
        drain_all_remote();
        std::size_t released = 0;
        for (auto& heap_ptr : heaps_) {
            Heap& heap = *heap_ptr;
            std::lock_guard<typename Heap::Mutex> guard(heap.mutex);
            for (auto& bin : heap.bins) {
                // Only band 0 can hold used == 0 superblocks.
                auto& group = bin.groups[0];
                Superblock* sb = group.front();
                while (sb != nullptr) {
                    Superblock* next = group.next(sb);
                    if (sb->empty()) {
                        group.remove(sb);
                        heap.held -= sb->span_bytes();
                        released += release_to_provider(sb);
                    }
                    sb = next;
                }
            }
        }
        // Global bins retain their own class's empties in band 0;
        // scavenge those before draining the cross-class cache.
        for (auto& bin_ptr : global_bins_) {
            Bin& bin = *bin_ptr;
            std::lock_guard<typename Bin::Mutex> guard(bin.mutex);
            auto& group = bin.groups[0];
            Superblock* sb = group.front();
            while (sb != nullptr) {
                Superblock* next = group.next(sb);
                if (sb->empty()) {
                    bin.unlink(sb, 0);
                    bin.held -= sb->span_bytes();
                    bin_empties_.fetch_sub(1,
                                           std::memory_order_relaxed);
                    released += release_to_provider(sb);
                }
                sb = next;
            }
        }
        Superblock* chain = reuse_cache_.drain();
        while (chain != nullptr) {
            Superblock* next =
                chain->cache_next.load(std::memory_order_relaxed);
            released += release_to_provider(chain);
            chain = next;
        }
        while (Superblock* sb = spans_.take_oldest_if(
                   [](const Superblock*) { return true; }))
            released += decommit_span(sb);
        return released;
    }

    /**
     * Purge pass: decommits the payload pages of idle completely-empty
     * superblocks (the reuse cache plus the global bins' retained
     * band-0 empties) via the provider's purge(), keeping each span
     * mapped and its header formatted for O(1) revival, and decommits
     * eligible parked medium spans outright, oldest first.  Milder than
     * release_free_memory() — nothing is unmapped, the next same-class
     * fetch costs one unpurge() gauge move instead of a map syscall.
     * Eligibility: @p force takes everything; otherwise a superblock
     * must have sat idle for Config::purge_age_ticks, or
     * committed_bytes must still exceed Config::rss_target_bytes
     * (re-read per superblock, so targeting stops at the line).
     * Serialized by purge_mutex_; safe against concurrent allocation
     * (cache entries are detached while marked, bin entries are marked
     * under their bin's lock).  Returns the bytes decommitted.
     */
    std::size_t
    purge(bool force = false)
    {
        std::lock_guard<typename Policy::Mutex> guard(purge_mutex_);
        const std::uint64_t now = force ? 0 : Policy::timestamp();
        auto eligible = [&](Superblock* sb) {
            if (sb->purged())
                return false;
            if (force)
                return true;
            if (config_.purge_age_ticks != 0 &&
                now >= sb->retire_tick() + config_.purge_age_ticks)
                return true;
            return config_.rss_target_bytes != 0 &&
                   stats_.committed_bytes.current() >
                       config_.rss_target_bytes;
        };
        std::size_t released = 0;
        // The cross-class reuse cache: detach everything (so no popper
        // can adopt a half-purged span), purge the eligible, push all
        // back.  Pushing re-publishes purged spans; the fetch path
        // revives them before first use.
        Superblock* chain = reuse_cache_.drain();
        while (chain != nullptr) {
            Superblock* next =
                chain->cache_next.load(std::memory_order_relaxed);
            if (eligible(chain))
                released += purge_superblock(chain);
            reuse_cache_.push(chain);
            chain = next;
        }
        // Class-retentive empties inside the global bins: band 0 only
        // (the one band that can hold used == 0 spans), under each
        // bin's own lock.
        for (auto& bin_ptr : global_bins_) {
            Bin& bin = *bin_ptr;
            std::lock_guard<typename Bin::Mutex> bguard(bin.mutex);
            auto& group = bin.groups[0];
            for (Superblock* sb = group.front(); sb != nullptr;
                 sb = group.next(sb)) {
                if (sb->empty() && eligible(sb))
                    released += purge_superblock(sb);
            }
        }
        // Parked medium spans, oldest first: a span leaves the cache
        // whole, so its purge is the decommit a free would have made.
        while (Superblock* sb = spans_.take_oldest_if(eligible))
            released += decommit_span(sb);
        stats_.purge_passes.add();
        return released;
    }

    /**
     * Drains every thread's magazines back to the owning heaps and
     * settles every remote-free queue (no-op when thread caching is
     * disabled and no remote frees are pending).  Call when quiescing
     * — e.g. before reading footprint gauges or asserting leak-freedom
     * in tests.  Must not race the owning threads' fast paths: a
     * magazine is lock-free for its owner, so emptying a node under
     * cache_mutex_ is only safe once that owner has stopped mutating
     * (joined, or provably idle).
     */
    void
    flush_thread_caches()
    {
        if (magazine_id_ != 0) {
            std::lock_guard<typename Policy::Mutex> guard(cache_mutex_);
            for (detail::MagazineNode* node = cache_nodes_;
                 node != nullptr; node = node->next_in_set)
                flush_node_locked(node);
        }
        // The flush itself can remote-push (a busy owner lock); settle
        // the queues after the magazines so nothing stays in flight.
        drain_all_remote();
    }

    /// @name Introspection for tests and tables.
    /// @{

    /**
     * Writes a human-readable report of every heap: u_i/a_i, the
     * superblock population per size class with its fullness-group
     * histogram, the global empty cache, and thread-cache occupancy.
     * Takes each heap's lock briefly; intended for quiesced moments or
     * operator diagnostics, not hot paths.
     */
    void
    dump(std::ostream& os)
    {
        os << "HoardAllocator S=" << config_.superblock_bytes
           << " f=" << config_.empty_fraction
           << " K=" << config_.slack_superblocks
           << " t=" << config_.release_threshold
           << " P=" << config_.heap_count << "\n";
        os << "  heap 0 (global): in-use " << heap_in_use(0) << " held "
           << heap_held(0) << " empty-cached " << reuse_cache_.size()
           << "\n";
        for (auto& bin_ptr : global_bins_) {
            Bin& bin = *bin_ptr;
            std::lock_guard<typename Bin::Mutex> guard(bin.mutex);
            std::size_t count = 0;
            for (auto& group : bin.groups)
                count += group.size();
            if (count == 0)
                continue;
            os << "    bin " << bin.size_class << " ("
               << classes_.block_size(bin.size_class) << " B): " << count
               << " superblock(s), groups [";
            for (int g = 0; g < Superblock::kGroupCount; ++g) {
                if (g != 0)
                    os << ' ';
                os << bin.groups[g].size();
            }
            os << "]\n";
        }
        for (auto& heap_ptr : heaps_) {
            Heap& heap = *heap_ptr;
            std::lock_guard<typename Heap::Mutex> guard(heap.mutex);
            os << "  heap " << heap.index << ": in-use " << heap.in_use
               << " held " << heap.held << "\n";
            for (std::size_t cls = 0; cls < heap.bins.size(); ++cls) {
                auto& bin = heap.bins[cls];
                std::size_t count = 0;
                for (auto& group : bin.groups)
                    count += group.size();
                if (count == 0)
                    continue;
                os << "    class " << cls << " ("
                   << classes_.block_size(static_cast<int>(cls))
                   << " B): " << count << " superblock(s), groups [";
                for (int g = 0; g < Superblock::kGroupCount; ++g) {
                    if (g != 0)
                        os << ' ';
                    os << bin.groups[g].size();
                }
                os << "]\n";
            }
        }
        if (magazine_id_ != 0) {
            std::size_t cached_blocks = 0;
            std::size_t cached_bytes = 0;
            {
                std::lock_guard<typename Policy::Mutex> guard(
                    cache_mutex_);
                for (detail::MagazineNode* node = cache_nodes_;
                     node != nullptr; node = node->next_in_set) {
                    for (std::uint32_t c = 0; c < node->num_classes;
                         ++c)
                        cached_blocks += node->mags[c].count;
                    cached_bytes += node->occupancy_bytes.load(
                        std::memory_order_relaxed);
                }
            }
            os << "  thread caches: " << cached_blocks << " block(s), "
               << cached_bytes << " B\n";
        }
        os.flush();
    }

    /** u_i of heap @p i (0 = global: summed over the per-class bins). */
    std::size_t
    heap_in_use(int i)
    {
        if (i == 0) {
            std::size_t sum = 0;
            for (auto& bin : global_bins_) {
                std::lock_guard<typename Bin::Mutex> guard(bin->mutex);
                sum += bin->in_use;
            }
            return sum;
        }
        Heap& h = *heaps_[static_cast<std::size_t>(i - 1)];
        std::lock_guard<typename Heap::Mutex> guard(h.mutex);
        return h.in_use;
    }

    /** a_i of heap @p i (0 = global: bins plus the reuse cache). */
    std::size_t
    heap_held(int i)
    {
        if (i == 0) {
            std::size_t sum =
                reuse_cache_.size() * config_.superblock_bytes;
            for (auto& bin : global_bins_) {
                std::lock_guard<typename Bin::Mutex> guard(bin->mutex);
                sum += bin->held;
            }
            return sum;
        }
        Heap& h = *heaps_[static_cast<std::size_t>(i - 1)];
        std::lock_guard<typename Heap::Mutex> guard(h.mutex);
        return h.held;
    }

    /** The medium span cache (parked spans, U, Û). */
    const SpanCache<Policy>& span_cache() const { return spans_; }

    /** Heap index the calling thread allocates from. */
    int
    my_heap_index() const
    {
        return 1 + Policy::thread_index() % config_.heap_count;
    }

    /**
     * Walks every heap verifying counter consistency and the emptiness
     * invariant (allowing the one-superblock transient and per-header
     * slack discussed in DESIGN.md).  Aborts on violation; returns true
     * so it can sit inside EXPECT_TRUE.
     */
    bool
    check_invariants()
    {
        // Settle pending remote frees first: they have left the in_use
        // gauge but not yet the owning heap's u_i, and the emptiness
        // invariant is only enforced when the owner visits its lock.
        drain_all_remote();
        for (auto& heap : heaps_)
            check_heap(*heap);
        std::size_t bin_empties = 0;
        for (auto& bin : global_bins_)
            bin_empties += check_bin(*bin);
        HOARD_CHECK(bin_empties ==
                    bin_empties_.load(std::memory_order_relaxed));
        return true;
    }

    /**
     * Structured snapshot of every heap: u_i/a_i, superblock population
     * per size class and fullness group, lock-contention profiles, the
     * huge list, the parked medium spans, and a copy of the global
     * counters.  Available whether or not event tracing is enabled.
     * Takes each heap's lock briefly (one at a time, so concurrent
     * allocation stays safe); exact
     * reconciliation against the gauges needs a quiesced allocator.
     * Under SimPolicy this must run inside a simulated thread, like any
     * other lock-taking introspection.
     */
    obs::AllocatorSnapshot
    take_snapshot()
    {
        // Phase 1: allocate every byte the snapshot will ever need.
        // In whole-process deployments (global_new.h) these
        // allocations come back through this very allocator, so they
        // must land (a) outside any heap lock — allocating under one
        // self-deadlocks — and (b) *before* the gauges are copied:
        // an allocation between the gauge copy and the heap walk is
        // seen by one side but not the other and breaks exact
        // reconciliation.
        obs::AllocatorSnapshot snap;
        snap.allocator_name = name();
        snap.superblock_bytes = config_.superblock_bytes;
        snap.empty_fraction = config_.empty_fraction;
        snap.release_threshold = config_.release_threshold;
        snap.slack_superblocks = config_.slack_superblocks;
        snap.heap_count = config_.heap_count;
        snap.global_fetch_batch = config_.global_fetch_batch;
        // heaps[0] is the synthesized global heap (the per-class bins
        // plus the reuse cache); heaps[i], i >= 1, per-processor heap i.
        snap.heaps.resize(heaps_.size() + 1);
        for (obs::HeapSnapshot& hs : snap.heaps) {
            hs.classes.resize(
                static_cast<std::size_t>(classes_.count()));
            for (std::size_t cls = 0; cls < hs.classes.size(); ++cls) {
                hs.classes[cls].size_class = static_cast<int>(cls);
                hs.classes[cls].block_bytes =
                    static_cast<std::uint32_t>(
                        classes_.block_size(static_cast<int>(cls)));
                hs.classes[cls].group_counts.assign(
                    Superblock::kGroupCount, 0);
            }
        }

        // Phase 2a: settle the remote-free queues (drain-and-
        // attribute).  Those frees already left the in_use gauge at
        // deallocate() time but not yet the owning heap's u_i;
        // draining before the gauge copy is what keeps quiesced
        // reconciliation byte-exact with remote queues in play.
        snap.remote_drained_blocks = drain_all_remote();

        // Phase 2b: thread-cache occupancy, summed from the magazine
        // nodes themselves.  The global cached-bytes gauge is synced
        // only at batch boundaries and may lag by a partial batch; the
        // per-node occupancy is exact whenever the owners are idle.
        if (magazine_id_ != 0) {
            std::lock_guard<typename Policy::Mutex> guard(cache_mutex_);
            for (detail::MagazineNode* node = cache_nodes_;
                 node != nullptr; node = node->next_in_set)
                snap.cached_bytes += node->occupancy_bytes.load(
                    std::memory_order_relaxed);
        }

        // Phase 2c: copy the gauges, then walk — allocation-free.
        snap.stats.allocs = stats_.allocs.get();
        snap.stats.frees = stats_.frees.get();
        snap.stats.in_use_bytes = stats_.in_use_bytes.current();
        snap.stats.held_bytes = stats_.held_bytes.current();
        snap.stats.committed_bytes = stats_.committed_bytes.current();
        snap.stats.purged_bytes = stats_.purged_bytes.current();
        snap.stats.reserved_bytes = provider_.reserved_bytes();
        snap.stats.cached_bytes = stats_.cached_bytes.current();
        snap.stats.superblock_allocs = stats_.superblock_allocs.get();
        snap.stats.superblock_transfers =
            stats_.superblock_transfers.get();
        snap.stats.global_fetches = stats_.global_fetches.get();
        snap.stats.huge_allocs = stats_.huge_allocs.get();
        snap.stats.huge_cache_releases = stats_.huge_cache_releases.get();
        snap.stats.medium_reuses = stats_.medium_reuses.get();
        snap.stats.medium_decommits = stats_.medium_decommits.get();
        snap.stats.oom_reclaims = stats_.oom_reclaims.get();
        snap.stats.oom_failures = stats_.oom_failures.get();
        snap.stats.remote_frees = stats_.remote_frees.get();
        snap.stats.remote_drains = stats_.remote_drains.get();
        snap.stats.batch_refills = stats_.batch_refills.get();
        snap.stats.batch_flushes = stats_.batch_flushes.get();
        snap.stats.global_bin_hits = stats_.global_bin_hits.get();
        snap.stats.global_bin_misses = stats_.global_bin_misses.get();
        snap.stats.cache_pushes = stats_.cache_pushes.get();
        snap.stats.cache_pops = stats_.cache_pops.get();
        snap.stats.purge_passes = stats_.purge_passes.get();
        snap.stats.purged_superblocks = stats_.purged_superblocks.get();
        snap.stats.revived_superblocks =
            stats_.revived_superblocks.get();
        snap.stats.bad_free_wild = stats_.bad_free_wild.get();
        snap.stats.bad_free_foreign = stats_.bad_free_foreign.get();
        snap.stats.bad_free_interior = stats_.bad_free_interior.get();
        snap.stats.bad_free_double = stats_.bad_free_double.get();
        if constexpr (Policy::kObsEnabled) {
            // Merged per-path latency histograms: fixed arrays, so no
            // allocation here either; exact at quiescence like the
            // counters above.
            if (latency_ != nullptr) {
                snap.latency = latency_->snapshot();
                snap.latency_armed = true;
            }
        }
        fill_global_snapshot(snap.heaps[0]);
        for (std::size_t i = 0; i < heaps_.size(); ++i)
            fill_heap_snapshot(*heaps_[i], snap.heaps[i + 1]);
        for (auto& stripe : huge_stripes_) {
            std::lock_guard<typename Policy::Mutex> guard(stripe.mutex);
            for (Superblock* sb = stripe.list.front(); sb != nullptr;
                 sb = stripe.list.next(sb)) {
                ++snap.huge_count;
                snap.huge_user_bytes += sb->huge_user_bytes();
                snap.huge_span_bytes += sb->span_bytes();
            }
        }
        spans_.for_each_parked([&snap](const Superblock* sb) {
            ++snap.parked_count;
            snap.parked_span_bytes += sb->span_bytes();
        });

        // Phase 3: prune empty classes.  erase() only moves and
        // destroys — still no allocation.
        for (obs::HeapSnapshot& hs : snap.heaps) {
            hs.classes.erase(
                std::remove_if(hs.classes.begin(), hs.classes.end(),
                               [](const obs::ClassSnapshot& cs) {
                                   return cs.superblocks == 0;
                               }),
                hs.classes.end());
            hs.active_classes =
                static_cast<std::uint32_t>(hs.classes.size());
        }
        return snap;
    }

    /**
     * The event recorder, or nullptr when tracing is off (runtime flag
     * unset, or observability compiled out).
     */
    const obs::EventRecorder* recorder() const { return recorder_.get(); }

    /** The page substrate this instance maps through. */
    const os::PageProvider& provider() const { return provider_; }

    /** True when event tracing and lock profiling are active. */
    bool observability_enabled() const { return recorder_ != nullptr; }

    /**
     * The time-series sampler, or nullptr when sampling is off
     * (observability disabled, obs_sample_interval == 0, or
     * observability compiled out).
     */
    const obs::TimeSeriesSampler* sampler() const
    {
        return sampler_.get();
    }

    /**
     * Forces one sample at the current policy time, ignoring the
     * cadence.  For end-of-run timeline flushes and
     * gauge-reconciliation tests; must not be called with any heap
     * lock held.  Returns false only when sampling is off.  Under
     * SimPolicy this must run inside a simulated thread, like
     * take_snapshot(); a fresh checker machine's clock restarts at
     * zero, so the sample is stamped no earlier than the last
     * in-run sample (claim_flush clamps forward).
     */
    bool
    sample_now()
    {
        if constexpr (Policy::kObsEnabled) {
            if (sampler_ == nullptr)
                return false;
            take_sample(sampler_->claim_flush(Policy::timestamp()));
            return true;
        } else {
            return false;
        }
    }

    /// @}

    /// @name Fork support (pthread_atfork; see docs/SHIM.md).
    /// @{

    /**
     * Acquires every lock this allocator owns, in a fixed total order
     * (cache mutex, then the purge mutex, then per-processor heaps by
     * index, then global bins by class, then huge stripes by slot,
     * then the span cache), so fork() snapshots no lock in a half-held
     * state and no heap
     * structure mid-mutation.  The magazine registry's own lock is
     * taken by the caller (hoard_install_atfork) *before* this, since
     * flushes can hold it while waiting on heap locks.
     * MmapPageProvider and the reuse cache are lock-free and need no
     * quiescing here.
     */
    void
    prepare_fork()
    {
        cache_mutex_.lock();
        purge_mutex_.lock();
        for (auto& heap : heaps_)
            heap->mutex.lock();
        for (auto& bin : global_bins_)
            bin->mutex.lock();
        for (auto& stripe : huge_stripes_)
            stripe.mutex.lock();
        spans_.lock();
    }

    /** Releases every lock prepare_fork() took, in reverse order. */
    void
    parent_after_fork()
    {
        spans_.unlock();
        for (std::size_t i = kHugeStripes; i-- > 0;)
            huge_stripes_[i].mutex.unlock();
        for (std::size_t i = global_bins_.size(); i-- > 0;)
            global_bins_[i]->mutex.unlock();
        for (std::size_t i = heaps_.size(); i-- > 0;)
            heaps_[i]->mutex.unlock();
        purge_mutex_.unlock();
        cache_mutex_.unlock();
    }

    /**
     * Child-side recovery: the forking thread (the only one alive)
     * still owns every lock prepare_fork() took, so release them with
     * the parent's sweep, then repair the pieces of state fork() can
     * tear:
     *
     *  - the reuse cache's popper count may include parent threads
     *    that no longer exist; a nonzero count would make the next
     *    release_to_provider() spin in await_poppers() forever;
     *  - the process-wide gauges are updated *outside* the heap locks
     *    (deallocate settles them after free_block returns), so a
     *    parent thread caught between its heap update and its gauge
     *    update leaves them torn.  Per-heap counters cannot tear —
     *    every mutation happens under a lock the prepare handler held
     *    across the fork — so the gauges are recounted from them.
     *
     * Dead parent threads' magazines are flushed back to the heaps
     * (their owners cannot race: they do not exist in the child), so
     * their blocks are reusable immediately; the node metadata itself
     * stays on the set list and is reused if a same-index thread
     * re-registers, else idles at a few hundred bytes per dead thread.
     */
    void
    child_after_fork()
    {
        parent_after_fork();
        reuse_cache_.reset_poppers();
        if constexpr (Policy::kObsEnabled) {
            // A dead parent thread may have held the sampler's append
            // ordering lock at the fork instant.
            if (sampler_ != nullptr)
                sampler_->child_after_fork();
        }
        flush_thread_caches();
        repair_after_fork();
    }

    /// @}

    /**
     * The sampling heap profiler, or null when disabled
     * (profile_sample_rate == 0 or HOARD_PROFILER compiled out).
     * Lock-free throughout, so it is safe to export from any thread at
     * any time; counters are exact only at quiescence.
     */
    const obs::HeapProfiler* profiler() const { return profiler_.get(); }

    /**
     * The latency collector, or null when disarmed
     * (Config::latency_histograms off and HOARD_LATENCY unset, or
     * observability compiled out).  Lock-free throughout; snapshots
     * are exact at quiescence.
     */
    const obs::LatencyCollector* latency() const { return latency_.get(); }

  private:
    static const Config&
    validated(const Config& config)
    {
        config.validate();
        return config;
    }

    /**
     * Sampling hook shared by every allocation path.  With the
     * profiler disarmed this is one predicted null check; armed, it
     * adds the byte countdown (load, subtract, store, branch), and
     * only a triggered sample pays for a backtrace and table insert.
     * Charges @p rounded bytes so exact mode (rate 1) samples every
     * allocation — requested can legally be 0.
     */
    void
    profile_alloc(void* block, std::size_t requested, std::size_t rounded,
                  std::uint32_t cls)
    {
        if constexpr (Policy::kProfilerEnabled) {
            if (profiler_ == nullptr) [[likely]]
                return;
            if (!profiler_->tick(Policy::thread_index(), rounded))
                [[likely]]
                return;
            profile_alloc_slow(block, requested, rounded, cls);
        } else {
            (void)block;
            (void)requested;
            (void)rounded;
            (void)cls;
        }
    }

    /**
     * The triggered-sample tail of profile_alloc: backtrace, table
     * insert, and the superblock's sampled-count bump that lets the
     * free path skip live-map probes.  Out of line and cold so the
     * 512-byte frame scratch and the record plumbing stay off the
     * malloc hot path — only the countdown and a predicted branch
     * remain inline.
     */
    __attribute__((noinline, cold)) void
    profile_alloc_slow(void* block, std::size_t requested,
                       std::size_t rounded, std::uint32_t cls)
    {
        std::uintptr_t frames[obs::HeapProfiler::kMaxFrames];
        const int depth = Policy::profile_backtrace(
            frames, config_.profile_max_frames);
        const bool live = profiler_->record_alloc(
            block, requested, rounded, cls, frames, depth,
            Policy::timestamp());
        // Count the live entry on its superblock (huge spans always
        // probe — rare).  Incremented before allocate() returns, so
        // any legal free of this pointer observes it.
        if (live && cls != obs::HeapProfiler::kHugeClass)
            Superblock::from_pointer(block, config_.superblock_bytes)
                ->sampled_inc();
    }

    /**
     * Free-side pairing for a superblock that holds sampled live
     * objects (or a huge span, which always probes).  Out of line and
     * cold for the same reason as profile_alloc_slow: deallocate
     * keeps only the armed-and-sampled guard inline.  The timestamp
     * lambda runs only on a live-map hit, so a miss never reads the
     * clock.
     */
    __attribute__((noinline, cold)) void
    profile_free_slow(Superblock* sb, void* p)
    {
        if (profiler_->on_free(p, [] { return Policy::timestamp(); }) &&
            !sb->huge())
            sb->sampled_dec();
    }

    /// @name Thread-local magazines (extension; layout in magazine.h).
    /// @{

    /**
     * The calling logical thread's magazine node for this allocator,
     * or nullptr when caching is disabled, the thread's exit hook has
     * already run, or malloc refused the metadata (the caller then
     * falls through to the locked path).  The fast path is one TLS-slot
     * read plus a short chain walk kept effectively O(1) by move-to-
     * front: a thread touching one allocator — the common case —
     * matches on the first node.
     */
    detail::MagazineNode*
    my_magazines()
    {
        if (magazine_id_ == 0)
            return nullptr;
        void*& slot = Policy::thread_cache_slot();
        auto* first = static_cast<detail::MagazineNode*>(slot);
        detail::MagazineNode* prev = nullptr;
        for (detail::MagazineNode* node = first; node != nullptr;
             prev = node, node = node->next_in_thread) {
            if (node->allocator_id != magazine_id_)
                continue;
            if (prev != nullptr) {  // move-to-front
                prev->next_in_thread = node->next_in_thread;
                node->next_in_thread = first;
                slot = node;
            }
            return node;
        }
        return register_thread_node(slot);
    }

    /** Cold path of my_magazines(): creates and links this thread's
        node for this allocator (thread chain + allocator set), unless
        the thread has already run its exit hook.  First parks the
        chain's nodes of destroyed allocators, so a thread that keeps
        creating and destroying allocators keeps a short chain. */
    __attribute__((noinline)) detail::MagazineNode*
    register_thread_node(void*& slot)
    {
        if (!Policy::arm_thread_exit_hook())
            return nullptr;
        slot = detail::magazine_drop_dead(
            static_cast<detail::MagazineNode*>(slot));
        detail::MagazineNode* node = detail::magazine_node_new(
            static_cast<std::uint32_t>(classes_.count()));
        if (node == nullptr)
            return nullptr;
        node->allocator = this;
        node->allocator_id = magazine_id_;
        node->flush_fn = &HoardAllocator::exit_flush_node;
        node->next_in_thread = static_cast<detail::MagazineNode*>(slot);
        slot = node;
        {
            std::lock_guard<typename Policy::Mutex> guard(cache_mutex_);
            node->next_in_set = cache_nodes_;
            cache_nodes_ = node;
        }
        return node;
    }

    /** node->flush_fn target: a thread's exit hook flushing its node
        back into this (registry-pinned, still live) allocator. */
    static void
    exit_flush_node(void* allocator, detail::MagazineNode* node)
    {
        auto* self = static_cast<HoardAllocator*>(allocator);
        std::lock_guard<typename Policy::Mutex> guard(
            self->cache_mutex_);
        self->unlink_node_locked(node);
        self->flush_node_locked(node);
    }

    /**
     * Pops a block from the calling thread's magazine: two pointer
     * moves and one owner-only occupancy update — no lock, no atomic
     * read-modify-write, no shared-gauge write.  An empty magazine
     * refills one batch under a single heap-lock acquisition; nullptr
     * means the OS refused memory and the caller takes the reclaiming
     * slow path.
     */
    void*
    magazine_pop(detail::MagazineNode* node, int cls)
    {
        auto& mag = node->mags[static_cast<std::size_t>(cls)];
        if (mag.head == nullptr) [[unlikely]]
            return magazine_pop_slow(node, cls);
        if (tracing()) {
            record_event(obs::EventKind::cache_hit, my_heap_index(),
                         cls, classes_.block_size(cls));
        }
        if constexpr (Policy::kObsEnabled) {
            if (latency_ != nullptr && lat_tick(node)) [[unlikely]]
                return magazine_pop_timed(node, cls);
        }
        return magazine_pop_take(node, mag, cls);
    }

    /** The magazine-hit pop tail: two pointer moves and one owner-
        only occupancy update — no lock, no shared-gauge write. */
    void*
    magazine_pop_take(detail::MagazineNode* node,
                      detail::MagazineNode::Magazine& mag, int cls)
    {
        void* block = mag.head;
        Policy::touch(block, sizeof(void*), false);
        mag.head = *static_cast<void**>(block);
        --mag.count;
        node->occupancy_sub(classes_.block_size(cls));
        return block;
    }

    /** A sampled magazine hit: the same pop tail bracketed by the
        cycle clock.  noinline: one in latency_sample_period ops, and
        keeping it out of line holds magazine_pop to its unarmed size
        (see refill_magazine on inlining parity). */
    __attribute__((noinline)) void*
    magazine_pop_timed(detail::MagazineNode* node, int cls)
    {
        auto& mag = node->mags[static_cast<std::size_t>(cls)];
        const std::uint64_t t0 = Policy::cycle_timestamp();
        void* block = magazine_pop_take(node, mag, cls);
        latency_commit(obs::LatencyPath::malloc_fast, t0);
        return block;
    }

    /** The magazine-miss path: refill one batch, then pop.  Always
        timed when armed — this is a slow-path op, and the refill tags
        the deepest stage it reached (local carve, global fetch, or
        fresh map).  nullptr means the OS refused memory; the caller
        takes the reclaiming slow path (which does its own timing), so
        nothing is recorded here for a failed op.  noinline: see
        refill_magazine. */
    __attribute__((noinline)) void*
    magazine_pop_slow(detail::MagazineNode* node, int cls)
    {
        if (tracing()) {
            record_event(obs::EventKind::cache_miss, my_heap_index(),
                         cls, classes_.block_size(cls));
        }
        obs::LatencyPath stage = obs::LatencyPath::malloc_refill;
        [[maybe_unused]] std::uint64_t t0 = 0;
        if constexpr (Policy::kObsEnabled) {
            if (latency_ != nullptr)
                t0 = Policy::cycle_timestamp();
        }
        if (refill_magazine(node, cls, &stage) == 0)
            return nullptr;
        auto& mag = node->mags[static_cast<std::size_t>(cls)];
        void* block = magazine_pop_take(node, mag, cls);
        if constexpr (Policy::kObsEnabled) {
            if (latency_ != nullptr)
                latency_commit(stage, t0);
        }
        return block;
    }

    /**
     * Parks the (whole, free) @p block of class @p cls in the calling
     * thread's magazine; a full magazine first spills one batch back
     * to the owning heaps through the bulk-return path.
     */
    void
    magazine_push(detail::MagazineNode* node, Superblock* sb, int cls,
                  void* block)
    {
        auto& mag = node->mags[static_cast<std::size_t>(cls)];
        if (mag.count >= config_.thread_cache_blocks) [[unlikely]] {
            magazine_push_spill(node, sb, cls, block);
            return;
        }
        if constexpr (Policy::kObsEnabled) {
            if (latency_ != nullptr && lat_tick(node)) [[unlikely]] {
                magazine_push_timed(node, sb, cls, block);
                return;
            }
        }
        magazine_park(node, mag, sb, block);
    }

    /** The magazine-park tail: link the block, bump the counts. */
    void
    magazine_park(detail::MagazineNode* node,
                  detail::MagazineNode::Magazine& mag, Superblock* sb,
                  void* block)
    {
        Policy::touch(block, sizeof(void*), true);
        *static_cast<void**>(block) = mag.head;
        mag.head = block;
        ++mag.count;
        node->occupancy_add(sb->block_bytes());
    }

    /** A sampled magazine park (free fast path).  noinline: see
        magazine_pop_timed. */
    __attribute__((noinline)) void
    magazine_push_timed(detail::MagazineNode* node, Superblock* sb,
                        int cls, void* block)
    {
        auto& mag = node->mags[static_cast<std::size_t>(cls)];
        const std::uint64_t t0 = Policy::cycle_timestamp();
        magazine_park(node, mag, sb, block);
        latency_commit(obs::LatencyPath::free_fast, t0);
    }

    /** A full magazine: spill one batch, then park.  Always timed
        when armed (slow-path op).  noinline: see refill_magazine. */
    __attribute__((noinline)) void
    magazine_push_spill(detail::MagazineNode* node, Superblock* sb,
                        int cls, void* block)
    {
        [[maybe_unused]] std::uint64_t t0 = 0;
        if constexpr (Policy::kObsEnabled) {
            if (latency_ != nullptr)
                t0 = Policy::cycle_timestamp();
        }
        spill_magazine(node, cls);
        auto& mag = node->mags[static_cast<std::size_t>(cls)];
        magazine_park(node, mag, sb, block);
        if constexpr (Policy::kObsEnabled) {
            if (latency_ != nullptr)
                latency_commit(obs::LatencyPath::free_spill, t0);
        }
    }

    /**
     * Refills @p node's magazine of @p cls with one batch carved under
     * a single acquisition of the caller's heap lock — N blocks per
     * lock round trip instead of one.  Pending remote frees are
     * settled first (the owner is visiting its lock anyway, so the
     * drain costs no extra acquisition); the emptiness invariant is
     * enforced after the carve if the drain moved anything.  Returns
     * the number of blocks parked; 0 means the OS refused memory.
     *
     * noinline: once-per-batch, and keeping it (and spill_magazine /
     * free_block) out of line holds magazine_pop/push to their
     * two-pointer-move size in every policy instantiation — otherwise
     * instrumentation growth tips GCC's inlining budget differently
     * per variant and the overhead gate compares unlike hot paths.
     *
     * @p stage is raised to the deepest stage the refill reached
     * (global fetch, fresh map) for latency attribution; may be null.
     */
    __attribute__((noinline)) std::uint32_t
    refill_magazine(detail::MagazineNode* node, int cls,
                    obs::LatencyPath* stage = nullptr)
    {
        const std::size_t block_bytes = classes_.block_size(cls);
        Heap& heap = my_heap();
        heap.mutex.lock();
        std::size_t drained = drain_remote_locked(heap);
        void* chain = nullptr;
        std::uint32_t got = 0;
        while (got < batch_blocks_) {
            int probes = 0;
            Superblock* sb = heap.find_allocatable(cls, &probes);
            for (int i = 0; i < probes; ++i)
                Policy::work(CostKind::list_op);
            if (sb == nullptr) {
                sb = fetch_from_global(cls, heap);
                if (sb != nullptr) {
                    if (stage != nullptr &&
                        *stage < obs::LatencyPath::malloc_global_fetch)
                        *stage = obs::LatencyPath::malloc_global_fetch;
                } else {
                    if (got > 0)
                        break;  // have blocks; don't map just to top up
                    sb = fresh_superblock(cls);
                    if (sb == nullptr)
                        break;  // OS exhausted; caller reclaims
                    if (stage != nullptr)
                        *stage = obs::LatencyPath::malloc_fresh_map;
                    adopt(heap, sb);
                    record_event(obs::EventKind::class_refill,
                                 heap.index, cls, sb->span_bytes());
                }
            }
            int old_group = sb->fullness_group();
            Policy::touch(sb, sizeof(Superblock), true);
            std::uint32_t n =
                sb->allocate_batch(batch_blocks_ - got, &chain);
            heap.relink(sb, old_group);
            for (std::uint32_t i = 0; i < n; ++i)
                Policy::work(CostKind::list_op);
            got += n;
        }
        heap.in_use += static_cast<std::size_t>(got) * block_bytes;
        if (drained > 0)
            maybe_release_superblock(heap);
        heap.mutex.unlock();
        if (got == 0)
            return 0;
        auto& mag = node->mags[static_cast<std::size_t>(cls)];
        HOARD_DCHECK(mag.head == nullptr && mag.count == 0);
        mag.head = chain;
        mag.count = got;
        node->occupancy_add(static_cast<std::size_t>(got) * block_bytes);
        sync_node_gauge(node);
        stats_.batch_refills.add();
        record_event(obs::EventKind::batch_refill, heap.index, cls,
                     static_cast<std::uint64_t>(got) * block_bytes);
        return got;
    }

    /**
     * Spills one batch (the most recently freed blocks) from @p
     * node's magazine of @p cls back to the owning heaps via the
     * bulk-return path: one gauge sync and one stats bump for the
     * whole batch.  noinline: see refill_magazine.
     */
    __attribute__((noinline)) void
    spill_magazine(detail::MagazineNode* node, int cls)
    {
        auto& mag = node->mags[static_cast<std::size_t>(cls)];
        std::uint32_t n = std::min(batch_blocks_, mag.count);
        if (n == 0)
            return;
        void* chain = mag.head;
        void* tail = chain;
        for (std::uint32_t i = 1; i < n; ++i) {
            Policy::touch(tail, sizeof(void*), false);
            tail = *static_cast<void**>(tail);
        }
        mag.head = *static_cast<void**>(tail);
        *static_cast<void**>(tail) = nullptr;
        mag.count -= n;
        node->occupancy_sub(static_cast<std::size_t>(n) *
                            classes_.block_size(cls));
        sync_node_gauge(node);
        stats_.batch_flushes.add();
        record_event(obs::EventKind::batch_flush, my_heap_index(), cls,
                     static_cast<std::uint64_t>(n) *
                         classes_.block_size(cls));
        return_chain(chain);
    }

    /**
     * Empties every magazine of @p node back to the owning heaps and
     * settles the node's share of the cached-bytes gauge.  Caller
     * holds cache_mutex_ and guarantees the node's owner is not
     * concurrently on its fast path (exit hook, quiesced flush, or
     * the owner itself).
     */
    void
    flush_node_locked(detail::MagazineNode* node)
    {
        void* chain = nullptr;
        std::uint64_t blocks = 0;
        std::size_t bytes = 0;
        for (std::uint32_t cls = 0; cls < node->num_classes; ++cls) {
            auto& mag = node->mags[cls];
            blocks += mag.count;
            bytes += static_cast<std::size_t>(mag.count) *
                     classes_.block_size(static_cast<int>(cls));
            while (mag.head != nullptr) {
                void* block = mag.head;
                mag.head = *static_cast<void**>(block);
                *static_cast<void**>(block) = chain;
                chain = block;
            }
            mag.count = 0;
        }
        node->occupancy_sub(bytes);
        sync_node_gauge(node);
        if (blocks != 0) {
            stats_.batch_flushes.add();
            record_event(obs::EventKind::batch_flush, 0, -1, bytes);
            return_chain(chain);
        }
    }

    /** Removes @p node from this allocator's set list.  Caller holds
        cache_mutex_. */
    void
    unlink_node_locked(detail::MagazineNode* node)
    {
        for (detail::MagazineNode** p = &cache_nodes_; *p != nullptr;
             p = &(*p)->next_in_set) {
            if (*p == node) {
                *p = node->next_in_set;
                node->next_in_set = nullptr;
                return;
            }
        }
    }

    /**
     * Brings the global cached-bytes gauge in line with @p node's
     * exact occupancy — the only place the gauge is written, so batch
     * boundaries are the only fast-path writes to shared statistics.
     * Caller is the node's owner at a batch boundary, or a flusher
     * holding cache_mutex_ with the owner quiesced.
     */
    void
    sync_node_gauge(detail::MagazineNode* node)
    {
        std::size_t occ =
            node->occupancy_bytes.load(std::memory_order_relaxed);
        if (occ > node->synced_bytes)
            stats_.cached_bytes.add(occ - node->synced_bytes);
        else if (occ < node->synced_bytes)
            stats_.cached_bytes.sub(node->synced_bytes - occ);
        node->synced_bytes = occ;
    }

    /// @}

    /// @name Remote-free queues and bulk block return.
    /// @{

    /**
     * Returns a chain of free blocks (threaded through first words,
     * any mix of classes) to their owning heaps.  Consecutive blocks
     * of one heap reuse a single lock acquisition — the batched flush
     * that replaces a one-lock-per-victim spill loop.  A busy owner is
     * never waited on: the block goes to its lock-free remote queue
     * instead.  Each heap is settled (remote drain plus invariant
     * enforcement) once, as its lock is released.
     */
    void
    return_chain(void* chain)
    {
        Base* locked = nullptr;
        while (chain != nullptr) {
            void* block = chain;
            Policy::touch(block, sizeof(void*), false);
            chain = *static_cast<void**>(block);
            Superblock* sb = Superblock::from_pointer(
                block, config_.superblock_bytes);
            for (;;) {
                Base* owner = static_cast<Base*>(sb->owner());
                if (owner == locked) {
                    // Stable: transfers require the lock we hold.
                    free_into_locked(*locked, sb, block);
                    Policy::work(CostKind::list_op);
                    break;
                }
                if (locked != nullptr) {
                    settle_and_unlock(*locked);
                    locked = nullptr;
                }
                if (owner->mutex.is_locked_hint()) {
                    remote_free(*owner, sb, block);
                    break;
                }
                owner->mutex.lock();
                if (static_cast<Base*>(sb->owner()) == owner) {
                    locked = owner;
                    continue;
                }
                owner->mutex.unlock();
                continue;  // raced an ownership change; retry
            }
        }
        if (locked != nullptr)
            settle_and_unlock(*locked);
    }

    /** Lock-free handoff of a (whole, free) block to busy @p owner's
        remote queue (Treiber push; the owner settles it later). */
    void
    remote_free(Base& owner, Superblock* sb, void* block)
    {
        Policy::touch(block, sizeof(void*), true);
        // Capture event fields before the push publishes the block:
        // the owner may drain it, empty the superblock, and retire it
        // into the reuse cache, where a concurrent fetch reformats.
        const int cls = sb->size_class();
        const std::uint32_t bytes = sb->block_bytes();
        owner.remote_push(block);
        Policy::work(CostKind::list_op);
        stats_.remote_frees.add();
        record_event(obs::EventKind::remote_free, owner.index, cls,
                     bytes);
    }

    /**
     * Settles every block pending on @p home's remote queue; the
     * caller holds the lock.  A block whose superblock changed owner
     * while queued is re-routed (lock-free) to the current owner's
     * queue.  Returns the number of blocks settled here.  A queued
     * block has left the in_use gauge but not its superblock's used
     * count, so the superblock cannot have been retired to the reuse
     * cache — the owner read never sees null.
     */
    std::size_t
    drain_remote_locked(Base& home)
    {
        if (!home.remote_pending())
            return 0;
        // Always timed when armed (the pending probe above keeps the
        // no-work case clock-free): the owner settling its remote
        // queue is a distinct slow-path stage, nested inside whichever
        // op visited the lock.
        [[maybe_unused]] std::uint64_t t0 = 0;
        if constexpr (Policy::kObsEnabled) {
            if (latency_ != nullptr)
                t0 = Policy::cycle_timestamp();
        }
        void* chain = home.remote_drain();
        std::size_t drained = 0;
        while (chain != nullptr) {
            void* block = chain;
            Policy::touch(block, sizeof(void*), false);
            chain = *static_cast<void**>(block);
            Superblock* sb = Superblock::from_pointer(
                block, config_.superblock_bytes);
            Base* owner = static_cast<Base*>(sb->owner());
            if (owner != &home) {
                owner->remote_push(block);
                continue;
            }
            free_into_locked(home, sb, block);
            Policy::work(CostKind::list_op);
            ++drained;
        }
        if (drained != 0) {
            stats_.remote_drains.add(drained);
            if constexpr (Policy::kObsEnabled) {
                if (latency_ != nullptr)
                    latency_commit(obs::LatencyPath::owner_drain, t0);
            }
        }
        return drained;
    }

    /**
     * Drains every remote queue, enforcing the emptiness invariant on
     * each per-processor heap it settles.  Per-processor heaps first,
     * the global bins last: on a quiesced allocator the only re-routes
     * a drain can generate point global-ward (the drain's own
     * enforcement is the only thing moving ownership, heap to bin;
     * bin-to-heap moves only happen in fetches, none of which are in
     * flight), so this order leaves every queue empty.  Returns the
     * total blocks settled.
     */
    std::uint64_t
    drain_all_remote()
    {
        std::uint64_t drained = 0;
        for (auto& heap : heaps_)
            drained += drain_home_remote(*heap);
        for (auto& bin : global_bins_)
            drained += drain_home_remote(*bin);
        return drained;
    }

    /** One home's share of drain_all_remote(); takes the lock only
        when the cheap pending probe says there is work. */
    std::uint64_t
    drain_home_remote(Base& home)
    {
        if (!home.remote_pending())
            return 0;
        std::lock_guard<typename Base::Mutex> guard(home.mutex);
        std::size_t n = drain_remote_locked(home);
        if (home.index != 0 && n != 0)
            maybe_release_superblock(static_cast<Heap&>(home));
        return n;
    }

    /** Drains pending remote frees, enforces the emptiness invariant
        (per-processor heaps only), and releases @p home's lock. */
    void
    settle_and_unlock(Base& home)
    {
        drain_remote_locked(home);
        if (home.index != 0)
            maybe_release_superblock(static_cast<Heap&>(home));
        home.mutex.unlock();
    }

    /// @}

    /**
     * True when events should be recorded.  A constant false when
     * observability is compiled out, so `if (tracing())` folds away
     * along with its argument computations.
     */
    bool
    tracing() const
    {
        if constexpr (Policy::kObsEnabled)
            return recorder_ != nullptr;
        else
            return false;
    }

    /**
     * Records one trace event.  Compiles to nothing when observability
     * is off at build time; costs one predicted branch when tracing is
     * off at run time.  Safe to call with or without heap locks held
     * (the ring is lock-free).
     */
    void
    record_event(obs::EventKind kind, int heap, int size_class,
                 std::uint64_t bytes)
    {
        if constexpr (Policy::kObsEnabled) {
            if (recorder_ != nullptr) {
                recorder_->record(Policy::timestamp(),
                                  Policy::thread_index(), kind, heap,
                                  size_class, bytes);
            }
        } else {
            (void)kind;
            (void)heap;
            (void)size_class;
            (void)bytes;
        }
    }

    /// @name Latency instrumentation (obs/latency.h).
    ///
    /// Timing discipline: *slow-path* operations (magazine refill and
    /// anything deeper, spills, huge allocs/frees, owner drains) are
    /// always timed when armed — they are rare and they are where the
    /// tail lives.  *Fast-path* operations (magazine hit/park, locked
    /// local alloc/free) are timed one in Config::latency_sample_period
    /// per thread, so the armed overhead of an untimed fast op is one
    /// null check plus one in-cache countdown decrement (on the
    /// magazine node when there is one, a thread_local otherwise;
    /// lat_tick below).  Period 1
    /// times everything: histogram counts then reconcile exactly with
    /// the allocator's op counters (the integration tests' mode).
    /// Every record is made at most once per operation, and only for
    /// operations the op counters count (an OOM-null allocation or a
    /// rejected bad free records nothing).
    /// @{

    /**
     * Fast-path sampling countdown for magazine ops.  Same cadence as
     * LatencyCollector::tick() but the counter lives on the caller's
     * magazine node — the node pointer is already in a register and
     * its cache line already dirty, so the untimed armed cost is one
     * L1 RMW plus a predicted branch (a thread_local would add a GOT
     * load and a %fs-relative access).  Caller has checked latency_.
     */
    bool
    lat_tick(detail::MagazineNode* node)
    {
        if (--node->lat_countdown != 0) [[likely]]
            return false;
        node->lat_countdown = latency_->sample_period();
        return true;
    }

    /**
     * Records one timed op ending now.  Caller has checked latency_.
     * The outlier test rides the same branch misprediction budget:
     * with the knob unset is_outlier is one always-false compare.
     */
    void
    latency_commit(obs::LatencyPath path, std::uint64_t t0)
    {
        if constexpr (Policy::kObsEnabled) {
            const std::uint64_t elapsed =
                Policy::cycle_timestamp() - t0;
            latency_->record(Policy::thread_index(), path, elapsed);
            if (latency_->is_outlier(elapsed)) [[unlikely]]
                latency_outlier_slow(path, elapsed);
        } else {
            (void)path;
            (void)t0;
        }
    }

    /**
     * Outlier capture: an event-ring trace record (stage in the
     * size_class field, cycles in bytes) plus a collector-ring entry
     * with a frame-pointer backtrace.  noinline+cold: never on the
     * non-outlier path's inlining budget.
     */
    __attribute__((noinline, cold)) void
    latency_outlier_slow(obs::LatencyPath path, std::uint64_t elapsed)
    {
        if constexpr (Policy::kObsEnabled) {
            std::uintptr_t
                frames[obs::LatencyCollector::kMaxOutlierFrames];
            int n = Policy::profile_backtrace(
                frames, obs::LatencyCollector::kMaxOutlierFrames);
            latency_->record_outlier(Policy::timestamp(),
                                     Policy::thread_index(), path,
                                     elapsed, frames, n);
            record_event(obs::EventKind::latency_outlier,
                         my_heap_index(), static_cast<int>(path),
                         elapsed);
        } else {
            (void)path;
            (void)elapsed;
        }
    }

    /// @}

    /// Frees between cadence checks.  The residue rides only on
    /// deallocate() (one thread_local decrement per free, a clock read
    /// every kSampleCheckPeriod frees) to stay inside the
    /// micro_obs_overhead --check idle budget; frees track churn, and
    /// alloc-only growth phases are covered by the sample_now() flush.
    static constexpr unsigned kSampleCheckPeriod = 256;

    /**
     * Takes a time-series sample if one is due.  Called only at the
     * tail of deallocate(), where no locks are held — take_sample()
     * acquires each heap's lock one at a time, which would
     * self-deadlock from inside a locked region in whole-process
     * deployments (global_new.h).  Compiles to nothing when
     * observability is off at build time; when sampling is off at run
     * time the cost is one null check per free.
     */
    void
    maybe_sample()
    {
        if constexpr (Policy::kObsEnabled) {
            if (sampler_ == nullptr)
                return;
            thread_local unsigned countdown = kSampleCheckPeriod;
            if (--countdown != 0)
                return;
            countdown = kSampleCheckPeriod;
            std::uint64_t now = Policy::timestamp();
            if (!sampler_->claim_due(now))
                return;
            take_sample(now);
        }
    }

    /**
     * Records one sample stamped @p now: global gauges and counters
     * first, then every heap's u_i/a_i under its lock (one lock at a
     * time; nothing here allocates, so this is safe in whole-process
     * deployments).  A racing reader may see the sample half-filled —
     * same relaxed-atomic contract as the event rings.
     */
    void
    take_sample(std::uint64_t now)
    {
        if constexpr (Policy::kObsEnabled) {
            // Drain-and-attribute, like take_snapshot(): settle pending
            // remote frees so per-heap u_i matches the gauges, and sum
            // cached bytes from the magazine nodes (the global gauge
            // lags by up to a partial batch per thread).
            drain_all_remote();
            std::uint64_t cached = 0;
            if (magazine_id_ != 0) {
                std::lock_guard<typename Policy::Mutex> guard(
                    cache_mutex_);
                for (detail::MagazineNode* node = cache_nodes_;
                     node != nullptr; node = node->next_in_set)
                    cached += node->occupancy_bytes.load(
                        std::memory_order_relaxed);
            }
            obs::TimeSeriesSampler::Writer writer =
                sampler_->begin_sample(now);
            writer.set_gauges(stats_.in_use_bytes.current(),
                              stats_.held_bytes.current(),
                              stats_.committed_bytes.current(), cached);
            writer.set_vm(provider_.reserved_bytes(),
                          stats_.purged_bytes.current());
            writer.set_counters(stats_.allocs.get(), stats_.frees.get(),
                                stats_.superblock_transfers.get(),
                                stats_.global_fetches.get());
            writer.set_slowpath(stats_.global_bin_hits.get(),
                                stats_.global_bin_misses.get(),
                                stats_.cache_pushes.get(),
                                stats_.cache_pops.get());
            writer.set_bad_frees(stats_.bad_free_wild.get(),
                                 stats_.bad_free_foreign.get(),
                                 stats_.bad_free_interior.get(),
                                 stats_.bad_free_double.get());
            if constexpr (Policy::kProfilerEnabled) {
                if (profiler_ != nullptr) {
                    const obs::ProfilerTotals pt = profiler_->totals();
                    writer.set_profiler(pt.sampled_requested,
                                        pt.sampled_rounded);
                }
            }
            if (latency_ != nullptr) {
                // LatencySnapshot is fixed-size arrays on the stack —
                // no allocation, so the no-alloc contract above holds.
                const obs::LatencySnapshot lat = latency_->snapshot();
                for (int p = 0; p < obs::kLatencyPathCount; ++p)
                    writer.set_latency(
                        p, lat.paths[static_cast<std::size_t>(p)].count(),
                        static_cast<std::uint64_t>(
                            lat.paths[static_cast<std::size_t>(p)]
                                .percentile(99.0)));
            }
            writer.set_heap(0, heap_in_use(0), heap_held(0));
            for (std::size_t i = 0; i < heaps_.size(); ++i) {
                Heap& heap = *heaps_[i];
                std::lock_guard<typename Heap::Mutex> guard(heap.mutex);
                writer.set_heap(i + 1, heap.in_use, heap.held);
            }
        } else {
            (void)now;
        }
    }

    /**
     * Fills one heap's snapshot in place; takes and releases the
     * heap's lock.  @p hs arrives with every vector pre-sized by
     * take_snapshot() — nothing here may allocate.  Allocating under
     * the heap lock would self-deadlock whole-process deployments
     * (global_new.h), and allocating at all between the gauge copy and
     * this walk would break exact reconciliation.  LockStats is safe
     * to copy under the lock: its histogram is a fixed std::array.
     */
    void
    fill_heap_snapshot(Heap& heap, obs::HeapSnapshot& hs)
    {
        std::lock_guard<typename Heap::Mutex> guard(heap.mutex);
        hs.index = heap.index;
        hs.in_use = heap.in_use;
        hs.held = heap.held;
        hs.empty_cached = 0;  // per-proc heaps cache no empties
        for (std::size_t cls = 0; cls < heap.bins.size(); ++cls) {
            auto& bin = heap.bins[cls];
            obs::ClassSnapshot& cs = hs.classes[cls];
            for (int g = 0; g < Superblock::kGroupCount; ++g) {
                for (Superblock* sb = bin.groups[g].front();
                     sb != nullptr; sb = bin.groups[g].next(sb)) {
                    ++cs.group_counts[static_cast<std::size_t>(g)];
                    ++cs.superblocks;
                    cs.used_blocks += sb->used();
                    cs.capacity_blocks += sb->capacity();
                    hs.uncarved +=
                        sb->span_bytes() -
                        static_cast<std::size_t>(sb->capacity()) *
                            sb->block_bytes();
                }
            }
        }
        if constexpr (Policy::kObsEnabled)
            hs.lock = heap.mutex.stats_locked();
    }

    /**
     * Synthesizes heap 0's snapshot from the per-class bins and the
     * reuse cache, one bin lock at a time.  Lock profiles are summed
     * across the bins (histogram merge) so the heap-0 contention row
     * keeps meaning "the global heap" after the sharding.  Same
     * no-allocation contract as fill_heap_snapshot().
     */
    void
    fill_global_snapshot(obs::HeapSnapshot& hs)
    {
        hs.index = 0;
        for (auto& bin_ptr : global_bins_) {
            Bin& bin = *bin_ptr;
            std::lock_guard<typename Bin::Mutex> guard(bin.mutex);
            hs.in_use += bin.in_use;
            hs.held += bin.held;
            obs::ClassSnapshot& cs =
                hs.classes[static_cast<std::size_t>(bin.size_class)];
            for (int g = 0; g < Superblock::kGroupCount; ++g) {
                for (Superblock* sb = bin.groups[g].front();
                     sb != nullptr; sb = bin.groups[g].next(sb)) {
                    ++cs.group_counts[static_cast<std::size_t>(g)];
                    ++cs.superblocks;
                    cs.used_blocks += sb->used();
                    cs.capacity_blocks += sb->capacity();
                    hs.uncarved +=
                        sb->span_bytes() -
                        static_cast<std::size_t>(sb->capacity()) *
                            sb->block_bytes();
                }
            }
            if constexpr (Policy::kObsEnabled) {
                obs::LockStats ls = bin.mutex.stats_locked();
                hs.lock.acquires += ls.acquires;
                hs.lock.contended += ls.contended;
                hs.lock.wait.merge(ls.wait);
            }
        }
        hs.empty_cached = reuse_cache_.size();
        hs.held += hs.empty_cached * config_.superblock_bytes;
    }

    Heap&
    my_heap()
    {
        return *heaps_[static_cast<std::size_t>(my_heap_index() - 1)];
    }

    /**
     * Graceful-degradation wrapper around the class allocation path:
     * when the provider refuses memory, reclaim everything reclaimable
     * (thread caches, empty superblocks across all heaps) and retry
     * exactly once before reporting OOM to the caller.  All heap
     * accounting is already settled when the try-path reports failure,
     * so the retry observes a consistent allocator.
     */
    void*
    allocate_from_class(int cls)
    {
        if constexpr (Policy::kObsEnabled) {
            if (latency_ != nullptr) [[unlikely]]
                return allocate_from_class_timed(cls);
        }
        void* block = try_allocate_from_class(cls);
        if (block == nullptr) {
            stats_.oom_reclaims.add();
            record_event(obs::EventKind::oom_reclaim, my_heap_index(),
                         cls, classes_.block_size(cls));
            release_free_memory();
            block = try_allocate_from_class(cls);
            if (block == nullptr)
                stats_.oom_failures.add();
        }
        return block;
    }

    /**
     * allocate_from_class with the latency probe threaded through.
     * With magazines off this is malloc's per-op path, so the local
     * hit is *sampled* (tick); the probe self-arms at slow-path entry
     * regardless, so refills/fetches/maps are always timed — from op
     * start when the countdown selected the op, from slow-path entry
     * otherwise (exact mode, period 1, always times from the start).
     * Records only ops that return a block, like the counters.
     * noinline: armed-only, off the disarmed comparison's budget.
     */
    __attribute__((noinline)) void*
    allocate_from_class_timed(int cls)
    {
        obs::LatencyProbe probe;
        if (latency_->tick())
            probe.begin(Policy::cycle_timestamp());
        void* block = try_allocate_from_class(cls, &probe);
        if (block == nullptr) {
            stats_.oom_reclaims.add();
            record_event(obs::EventKind::oom_reclaim, my_heap_index(),
                         cls, classes_.block_size(cls));
            release_free_memory();
            block = try_allocate_from_class(cls, &probe);
            if (block == nullptr)
                stats_.oom_failures.add();
        }
        if (block != nullptr && probe.active)
            latency_commit(probe.stage, probe.t0);
        return block;
    }

    /** malloc slow+fast path for a non-huge class (paper Figure 2).
        @p probe, when non-null, is armed at slow-path entry and
        raised to the deepest stage reached. */
    void*
    try_allocate_from_class(int cls, obs::LatencyProbe* probe = nullptr)
    {
        const std::size_t block_bytes = classes_.block_size(cls);
        Heap& heap = my_heap();
        std::lock_guard<typename Heap::Mutex> guard(heap.mutex);

        int probes = 0;
        Superblock* sb = heap.find_allocatable(cls, &probes);
        for (int i = 0; i < probes; ++i)
            Policy::work(CostKind::list_op);

        if (sb == nullptr) {
            if constexpr (Policy::kObsEnabled) {
                if (probe != nullptr)
                    probe->begin(Policy::cycle_timestamp());
            }
            sb = fetch_from_global(cls, heap);
            if (sb != nullptr) {
                if constexpr (Policy::kObsEnabled) {
                    if (probe != nullptr)
                        probe->raise(
                            obs::LatencyPath::malloc_global_fetch);
                }
            } else {
                sb = fresh_superblock(cls);
                if (sb == nullptr)
                    return nullptr;  // OS exhausted
                if constexpr (Policy::kObsEnabled) {
                    if (probe != nullptr)
                        probe->raise(obs::LatencyPath::malloc_fresh_map);
                }
                // A fresh superblock is invisible to other threads (no
                // block of it has escaped), so adopting it outside the
                // global lock is race-free.
                adopt(heap, sb);
                record_event(obs::EventKind::class_refill, heap.index,
                             cls, sb->span_bytes());
            }
        }

        int old_group = sb->fullness_group();
        Policy::touch(sb, sizeof(Superblock), true);
        void* block = sb->allocate();
        heap.in_use += block_bytes;
        heap.relink(sb, old_group);
        Policy::work(CostKind::list_op);
        return block;
    }

    /**
     * free path for a non-huge block (paper Figure 3, with the remote
     * queue replacing the paper's blocking lock).  The owner may change
     * between the read and the lock (another thread can transfer the
     * superblock), so re-check under the lock and retry on a mismatch
     * (paper §3.4).  An owner observed *busy* (is_locked_hint, a
     * relaxed probe — cheaper than a failed try_lock) is not waited
     * on: the block goes to its lock-free remote queue and the owner
     * settles it at its next lock visit.
     *
     * Returns false when the hardened under-lock double-free probe
     * rejected the block (reported; nothing was freed) — the caller
     * then leaves the gauges untouched.  The remote-queue path skips
     * the probe (best-effort: the owner's state can't be examined
     * without its lock) and always reports success.
     *
     * noinline: lock-bound, and see refill_magazine.
     */
    __attribute__((noinline)) bool
    free_block(Superblock* sb, void* p)
    {
        // Sampled timing: with magazines off this is free's per-op
        // path.  The countdown decides up front; the stage is whichever
        // branch the op takes (owner-locked accept = free_fast, busy
        // owner = free_remote_push).  A rejected double free records
        // nothing, matching the untouched op counters.
        [[maybe_unused]] std::uint64_t t0 = 0;
        [[maybe_unused]] bool timed = false;
        if constexpr (Policy::kObsEnabled) {
            if (latency_ != nullptr && latency_->tick()) [[unlikely]] {
                timed = true;
                t0 = Policy::cycle_timestamp();
            }
        }
        void* block = sb->block_start(p);
        for (;;) {
            Base* home = static_cast<Base*>(sb->owner());
            if (home->mutex.is_locked_hint()) {
                remote_free(*home, sb, block);
                if constexpr (Policy::kObsEnabled) {
                    if (timed)
                        latency_commit(
                            obs::LatencyPath::free_remote_push, t0);
                }
                return true;
            }
            // The hint can go stale before the acquire; then we block
            // briefly (the paper's behavior), which is still correct.
            home->mutex.lock();
            if (static_cast<Base*>(sb->owner()) != home) {
                home->mutex.unlock();
                continue;
            }
            if (config_.hardened_free &&
                (sb->used() == 0 || sb->free_list_head() == block)) {
                // Stable under the owner's lock: a used_ of zero or
                // the block already heading the free list is a double
                // free.  Deeper list scans are deliberately skipped —
                // O(1) keeps the check inside the overhead gate.
                home->mutex.unlock();
                report_bad_free(stats_.bad_free_double, "double", p,
                                sb->size_class());
                return false;
            }
            free_into_locked(*home, sb, block);
            Policy::work(CostKind::list_op);
            settle_and_unlock(*home);
            if constexpr (Policy::kObsEnabled) {
                if (timed)
                    latency_commit(obs::LatencyPath::free_fast, t0);
            }
            return true;
        }
    }

    /**
     * Hardened free path (Config::hardened_free): classifies @p p
     * before any heap structure is touched.  Returns the superblock
     * when the pointer is plausible, nullptr when it was rejected and
     * reported (the fatal policy never returns).  Every probe is a
     * lock-free read of memory free() touches anyway:
     *
     *  1. range: outside the hull of every span this process ever
     *     mapped -> wild.  The bounds are relaxed atomics, but a valid
     *     pointer crossing threads implies an app-level happens-before
     *     edge that publishes the bound stores sequenced before
     *     allocate() returned it, so a valid free never false-fires.
     *  2. header tag: one compare of the magic word and arena id
     *     against this allocator's; on a mismatch, a wrong magic ->
     *     wild (not a superblock), else -> foreign (another
     *     allocator's span).
     *  3. free window (Superblock::in_free_window): one compare.  A
     *     miss on a huge span is its last object's start while the
     *     span sits parked in the span cache -> double, else anything
     *     but the exact pointer handed out -> interior; on a small one,
     *     outside the carved payload -> interior (header or tail
     *     remainder), else the window is closed because the span sits
     *     empty in the reuse cache, so the block was already freed ->
     *     double.
     *
     * A pointer *interior to a block* is legitimate (aligned
     * allocations hand those out) and passes; only pointers no
     * allocation path can have produced are rejected.  A free into a
     * magazine adds an O(1) double probe against the magazine's head
     * (deallocate); blocks parked in thread magazines are re-handed out
     * without these checks, and the remote-free path skips the
     * under-lock double probe — the hardening is best-effort by design
     * (docs/SHIM.md).
     *
     * always_inline: this is deallocate's hot prefix under the
     * default hardened_free, and the accept path is a handful of
     * header compares against data the free path loads anyway.  Left
     * to the heuristics, instrumented instantiations outline it (a
     * call per free) while uninstrumented ones inline it, and the
     * overhead gate ends up comparing unlike free paths.
     */
    inline __attribute__((always_inline)) Superblock*
    resolve_for_free(void* p)
    {
        auto addr = reinterpret_cast<std::uintptr_t>(p);
        if (addr < mapped_lo_.load(std::memory_order_relaxed) ||
            addr >= mapped_hi_.load(std::memory_order_relaxed)) {
            return report_bad_free(stats_.bad_free_wild, "wild", p, -1);
        }
        auto* sb = reinterpret_cast<Superblock*>(
            detail::align_down(addr, config_.superblock_bytes));
        if (sb->tag() != header_tag_) [[unlikely]]
            return reject_header(p);
        if (!sb->in_free_window(addr)) [[unlikely]]
            return reject_window(sb, p);
        return sb;
    }

    /** Probe 2's mismatch: a span that is not a superblock (wild), or
        another allocator's (foreign).  Cold, like report_bad_free. */
    __attribute__((noinline, cold)) Superblock*
    reject_header(void* p)
    {
        const Superblock* sb =
            Superblock::from_pointer_checked(p, config_.superblock_bytes);
        if (sb == nullptr)
            return report_bad_free(stats_.bad_free_wild, "wild", p, -1);
        return report_bad_free(stats_.bad_free_foreign, "foreign", p,
                               sb->size_class());
    }

    /** Probe 3's miss, classified.  Cold, like report_bad_free. */
    __attribute__((noinline, cold)) Superblock*
    reject_window(const Superblock* sb, void* p)
    {
        auto addr = reinterpret_cast<std::uintptr_t>(p);
        if (sb->huge()) {
            if (sb->freed_huge_object(addr)) {
                return report_bad_free(stats_.bad_free_double, "double", p,
                                       SizeClasses::kHuge);
            }
            return report_bad_free(stats_.bad_free_interior, "interior",
                                   p, SizeClasses::kHuge);
        }
        auto base = reinterpret_cast<std::uintptr_t>(sb->payload_begin());
        if (addr - base >=
            static_cast<std::size_t>(sb->capacity()) * sb->block_bytes()) {
            return report_bad_free(stats_.bad_free_interior, "interior",
                                   p, sb->size_class());
        }
        return report_bad_free(stats_.bad_free_double, "double", p,
                               sb->size_class());
    }

    /**
     * Reports one rejected free per Config::on_bad_free: fatal aborts
     * with a diagnostic; warn bumps @p counter, records a trace event,
     * and leaks the block.  Returns nullptr so rejection sites can
     * `return report_bad_free(...)`.  noinline, cold: rejection is
     * the exceptional outcome, and compact call sites keep the
     * always-inlined resolve_for_free from bloating deallocate.
     */
    __attribute__((noinline, cold)) Superblock*
    report_bad_free(detail::Counter& counter, const char* kind,
                    const void* p, int size_class)
    {
        if (config_.on_bad_free == Config::BadFreePolicy::fatal) {
            HOARD_FATAL("bad free (%s) of pointer %p (size class %d)",
                        kind, p, size_class);
        }
        counter.add();
        record_event(obs::EventKind::bad_free, 0, size_class, 0);
        return nullptr;
    }

    /**
     * Widens the [mapped_lo_, mapped_hi_) hull to cover a span just
     * mapped from the provider.  The hull only grows (spans given back
     * are not carved out), so the range probe over-accepts and never
     * over-rejects; over-accepted pointers still face the magic and
     * arena checks.
     */
    void
    note_mapped_range(const void* p, std::size_t bytes)
    {
        auto lo = reinterpret_cast<std::uintptr_t>(p);
        auto hi = lo + bytes;
        std::uintptr_t seen = mapped_lo_.load(std::memory_order_relaxed);
        while (lo < seen &&
               !mapped_lo_.compare_exchange_weak(
                   seen, lo, std::memory_order_relaxed)) {
        }
        seen = mapped_hi_.load(std::memory_order_relaxed);
        while (hi > seen &&
               !mapped_hi_.compare_exchange_weak(
                   seen, hi, std::memory_order_relaxed)) {
        }
    }

    /**
     * Recounts the process-wide gauges from the per-heap ground truth
     * (child_after_fork documents why only the gauges can tear).  The
     * child is single-threaded here, magazines are already flushed and
     * remote queues settled, so the sums are exact: in_use is heap u_i
     * plus bin u_i plus huge user bytes; held adds the reuse cache's
     * and the span cache's spans, and the span cache's U is recounted
     * from the live medium spans; committed is held minus whatever the
     * purge pass has decommitted (summed span-by-span over the only two
     * places purged superblocks live).  Event counters are left alone
     * — they are diagnostics, not reconciled.
     */
    void
    repair_after_fork()
    {
        std::uint64_t in_use = 0;
        std::uint64_t held = 0;
        std::uint64_t purged = 0;
        for (auto& heap : heaps_) {
            in_use += heap->in_use;
            held += heap->held;
        }
        for (auto& bin : global_bins_) {
            in_use += bin->in_use;
            held += bin->held;
            // Only band 0 can hold purged (empty) superblocks.
            auto& group = bin->groups[0];
            for (Superblock* sb = group.front(); sb != nullptr;
                 sb = group.next(sb))
                purged += sb->purged_bytes();
        }
        // Walk the reuse cache (single-threaded child: the
        // drain/re-push pair cannot race anyone) so purged spans are
        // counted span-exactly, not just by cache size.
        Superblock* chain = reuse_cache_.drain();
        while (chain != nullptr) {
            Superblock* next =
                chain->cache_next.load(std::memory_order_relaxed);
            held += chain->span_bytes();
            purged += chain->purged_bytes();
            reuse_cache_.push(chain);
            chain = next;
        }
        std::size_t medium_in_use = 0;
        for (auto& stripe : huge_stripes_) {
            for (Superblock* sb = stripe.list.front(); sb != nullptr;
                 sb = stripe.list.next(sb)) {
                in_use += sb->huge_user_bytes();
                held += sb->span_bytes();
                medium_in_use += sb->resident_bytes();
            }
        }
        spans_.reset_in_use(medium_in_use);
        spans_.for_each_parked(
            [&held](const Superblock* sb) { held += sb->span_bytes(); });
        std::uint64_t cached = 0;
        for (detail::MagazineNode* node = cache_nodes_; node != nullptr;
             node = node->next_in_set) {
            std::size_t occ =
                node->occupancy_bytes.load(std::memory_order_relaxed);
            node->synced_bytes = occ;
            cached += occ;
        }
        // Heap u_i counts magazine-parked blocks; the gauge does not.
        stats_.in_use_bytes.set(in_use - cached);
        stats_.held_bytes.set(held);
        stats_.committed_bytes.set(held - purged);
        stats_.purged_bytes.set(purged);
        stats_.cached_bytes.set(cached);
    }

    /** Lands one free block in its home, dispatching on the home kind
        (index 0 = global bin).  Caller holds @p home's lock. */
    void
    free_into_locked(Base& home, Superblock* sb, void* block)
    {
        if (home.index == 0)
            free_into_bin_locked(static_cast<Bin&>(home), sb, block);
        else
            free_into_heap_locked(static_cast<Heap&>(home), sb, block);
    }

    /**
     * Lands one (whole) free block in per-processor @p heap, which owns
     * @p sb and whose lock the caller holds: superblock bookkeeping,
     * u_i, and the fullness-group move.  Invariant enforcement is the
     * caller's job (settle_and_unlock / drain paths), so chains can
     * land many blocks per enforcement pass.
     */
    void
    free_into_heap_locked(Heap& heap, Superblock* sb, void* block)
    {
        int old_group = sb->fullness_group();
        Policy::touch(block, sizeof(void*), true);
        Policy::touch(sb, sizeof(Superblock), true);
        sb->deallocate_block(block);
        heap.in_use -= sb->block_bytes();
        heap.relink(sb, old_group);
    }

    /**
     * Lands one (whole) free block in global bin @p bin, which owns
     * @p sb and whose lock the caller holds.  A superblock that empties
     * here *stays in the bin* (band 0), class-retentive: the next
     * same-class fetch takes it back formatted, with no re-carve.  Only
     * empties born in per-processor heaps — class-neutral capital —
     * go to the lock-free cross-class reuse cache.  Retained empties
     * count against Config::empty_cache_limit together with the cache;
     * past the limit the superblock is unmapped instead.
     */
    void
    free_into_bin_locked(Bin& bin, Superblock* sb, void* block)
    {
        int old_group = sb->fullness_group();
        Policy::touch(block, sizeof(void*), true);
        Policy::touch(sb, sizeof(Superblock), true);
        sb->deallocate_block(block);
        bin.in_use -= sb->block_bytes();
        if (sb->empty() &&
            reuse_cache_.size() +
                    bin_empties_.load(std::memory_order_relaxed) >=
                config_.empty_cache_limit) {
            bin.unlink(sb, old_group);
            bin.held -= sb->span_bytes();
            release_to_provider(sb);
            return;
        }
        if (sb->empty()) {
            bin_empties_.fetch_add(1, std::memory_order_relaxed);
            if (purge_armed_)
                sb->set_retire_tick(Policy::timestamp());
        }
        bin.relink(sb, old_group);
    }

    /**
     * Emptiness-invariant enforcement: while u_i < a_i - K*S and
     * u_i < (1-f) a_i, move at-least-f-empty superblocks to the global
     * heap.  The paper's Figure 3 transfers once per free; because we
     * pick the *emptiest* victim first, once is almost always enough —
     * but a victim sitting right at the f-empty boundary reduces the
     * deficit by less than one free added, so a single transfer does
     * not restore the invariant inductively.  Looping does, keeps the
     * amortized cost O(1) (every transferred superblock was paid for
     * by the frees that emptied it), and is what the invariant-based
     * blowup bound actually requires.  Caller holds the heap lock.
     *
     * Batched: the loop collects every victim first (the owner's lock
     * is already held; no global lock is touched while deciding), then
     * lands them — empties go to the lock-free reuse cache, partials
     * to their class bins with every same-class victim spliced in
     * under one bin-lock acquisition.  Between unlink and landing a
     * victim's owner still reads @p heap, whose lock we hold, so a
     * concurrent free remote-queues and is re-routed at the next
     * drain — the same transient the single-victim transfer had.
     */
    void
    maybe_release_superblock(Heap& heap)
    {
        const std::size_t slack =
            config_.slack_superblocks * config_.superblock_bytes;
        const double keep_fraction = 1.0 - config_.empty_fraction;

        SuperblockList victims;
        while (heap.in_use + slack < heap.held &&
               static_cast<double>(heap.in_use) <
                   keep_fraction * static_cast<double>(heap.held)) {
            Superblock* victim =
                heap.find_transfer_victim(config_.release_threshold);
            if (victim == nullptr)
                break;  // only header slack remains (rare)

            Policy::work(CostKind::transfer);
            heap.unlink(victim, victim->fullness_group());
            heap.held -= victim->span_bytes();
            heap.in_use -= victim->used_bytes();
            stats_.superblock_transfers.add();
            record_event(obs::EventKind::transfer_to_global, heap.index,
                         victim->size_class(), victim->span_bytes());
            victims.push_front(victim);
        }

        while (Superblock* sb = victims.pop_front()) {
            if (sb->empty()) {
                retire_empty(sb);
                continue;
            }
            Bin& bin = *global_bins_[
                static_cast<std::size_t>(sb->size_class())];
            std::lock_guard<typename Bin::Mutex> guard(bin.mutex);
            land_in_bin_locked(bin, sb);
            // Splice every remaining victim of this class under the
            // same acquisition — the batched transfer.
            Superblock* next = victims.front();
            while (next != nullptr) {
                Superblock* after = victims.next(next);
                if (!next->empty() &&
                    next->size_class() == bin.size_class) {
                    victims.remove(next);
                    land_in_bin_locked(bin, next);
                }
                next = after;
            }
        }
    }

    /** Hands unlinked non-empty @p sb to @p bin. Caller holds the bin
        lock; the owner store happens under it (escaped blocks may
        exist). */
    void
    land_in_bin_locked(Bin& bin, Superblock* sb)
    {
        sb->set_owner(static_cast<Base*>(&bin));
        bin.held += sb->span_bytes();
        bin.in_use += sb->used_bytes();
        bin.link(sb);
        Policy::work(CostKind::list_op);
    }

    /**
     * Pulls superblocks of @p cls from the global heap for @p dest,
     * whose lock the caller holds.  The class's bin is probed first —
     * without its lock, via the approximate occupancy counter — and a
     * hit pulls up to Config::global_fetch_batch superblocks (partials
     * fullest-first, then the bin's retained empties, all already
     * formatted for @p cls) under one bin-lock acquisition: the cold
     * heap is about to miss repeatedly, so batching amortizes the
     * round trip.  On a miss the lock-free reuse cache supplies a
     * recycled empty superblock, reformatted if its last class
     * differs.  Each handover happens
     * under the lock of the side that still owns escaped blocks (bin
     * for partials; an empty superblock has none), so a concurrent
     * free never sees a null or stale owner it could act on.  Returns
     * the fullest pulled superblock, or nullptr when the global heap
     * has nothing — the caller then maps fresh memory.
     */
    Superblock*
    fetch_from_global(int cls, Heap& dest)
    {
        Bin& bin = *global_bins_[static_cast<std::size_t>(cls)];
        Superblock* first = nullptr;
        if (bin.occupancy.load(std::memory_order_relaxed) != 0) {
            std::lock_guard<typename Bin::Mutex> guard(bin.mutex);
            drain_remote_locked(bin);
            for (std::size_t pulled = 0;
                 pulled < config_.global_fetch_batch; ++pulled) {
                int probes = 0;
                Superblock* sb = bin.find_allocatable(&probes);
                for (int i = 0; i < probes; ++i)
                    Policy::work(CostKind::list_op);
                if (sb == nullptr)
                    break;
                bin.unlink(sb, sb->fullness_group());
                bin.held -= sb->span_bytes();
                bin.in_use -= sb->used_bytes();
                if (sb->empty())
                    bin_empties_.fetch_sub(1,
                                           std::memory_order_relaxed);
                revive_superblock(sb);
                stats_.global_fetches.add();
                adopt(dest, sb);
                record_event(obs::EventKind::fetch_from_global,
                             dest.index, cls, sb->span_bytes());
                if (first == nullptr)
                    first = sb;  // fullest: pulled fullest-first
            }
        }
        if (first != nullptr) {
            stats_.global_bin_hits.add();
            return first;
        }
        stats_.global_bin_misses.add();

        Superblock* sb = reuse_cache_.pop(cls);
        if (sb == nullptr)
            return nullptr;
        stats_.cache_pops.add();
        record_event(obs::EventKind::cache_pop, dest.index,
                     sb->size_class(), sb->span_bytes());
        revive_superblock(sb);
        if (sb->size_class() != cls) {
            Policy::work(CostKind::superblock_init);
            sb->reformat(cls, static_cast<std::uint32_t>(
                                  classes_.block_size(cls)));
        }
        stats_.global_fetches.add();
        adopt(dest, sb);
        record_event(obs::EventKind::fetch_from_global, dest.index, cls,
                     sb->span_bytes());
        return sb;
    }

    /**
     * Maps and formats a brand-new superblock of @p cls.  While the
     * huge path has superblocks on loan, the map charges one of them
     * to the cache reserve (give_back_surplus_empties).
     */
    Superblock*
    fresh_superblock(int cls)
    {
        if (cache_loans_.load(std::memory_order_relaxed) > 0) {
            cache_loans_.fetch_sub(1, std::memory_order_relaxed);
            cache_reserve_.fetch_add(1, std::memory_order_relaxed);
        }
        Policy::work(CostKind::os_map);
        Policy::work(CostKind::superblock_init);
        void* memory = provider_.map(config_.superblock_bytes,
                                     config_.superblock_bytes);
        if (memory == nullptr)
            return nullptr;
        note_mapped_range(memory, config_.superblock_bytes);
        stats_.superblock_allocs.add();
        stats_.committed_bytes.add(config_.superblock_bytes);
        stats_.held_bytes.add(config_.superblock_bytes);
        return Superblock::create(
            memory, config_.superblock_bytes, cls,
            static_cast<std::uint32_t>(classes_.block_size(cls)),
            arena_id_);
    }

    /** Hands ownership of @p sb — fresh, from the reuse cache, or from
        a global bin — to @p heap.  Caller holds lock. */
    void
    adopt(Heap& heap, Superblock* sb)
    {
        // Fresh and reuse-cache spans have no owner and no live block;
        // a bin's span keeps its open window (its blocks may be live).
        if (sb->owner() == nullptr)
            sb->open_free_window();
        sb->set_owner(static_cast<Base*>(&heap));
        heap.held += sb->span_bytes();
        heap.in_use += sb->used_bytes();
        heap.link(sb);
    }

    /**
     * Retires unlinked, completely-empty @p sb: pushed onto the
     * lock-free reuse cache, or unmapped when the cache is over its
     * limit.  The owner is cleared and the free window closed first —
     * safe because an empty superblock has no escaped blocks, so no
     * valid free can race the stores.
     * Callers hold no particular lock (the push is lock-free).
     */
    void
    retire_empty(Superblock* sb)
    {
        if (reuse_cache_.size() >= config_.empty_cache_limit) {
            release_to_provider(sb);
            return;
        }
        sb->set_owner(nullptr);
        sb->close_free_window();
        if (purge_armed_)
            sb->set_retire_tick(Policy::timestamp());
        // Capture event fields before the push publishes the
        // superblock: a concurrent popper may reformat it immediately.
        const int cls = sb->size_class();
        const std::size_t span = sb->span_bytes();
        reuse_cache_.push(sb);
        stats_.cache_pushes.add();
        record_event(obs::EventKind::cache_push, 0, cls, span);
    }

    /**
     * Decommits one empty superblock's payload (everything past the
     * page-aligned header) through the provider, moving its bytes from
     * the committed gauge to the purged gauge.  The caller owns @p sb
     * exclusively (detached from the cache, or under its bin's lock).
     * Returns the bytes decommitted — 0 when the span is too small to
     * have a whole payload page or the provider refused (then nothing
     * changed and the superblock is whole again).
     */
    std::size_t
    purge_superblock(Superblock* sb)
    {
        Superblock::PurgeRegion region =
            sb->prepare_purge(os::page_bytes());
        if (region.bytes == 0)
            return 0;
        Policy::work(CostKind::os_purge);
        if (!provider_.purge(region.p, region.bytes)) {
            sb->revive();  // roll the mark back; no gauge moved yet
            return 0;
        }
        stats_.committed_bytes.sub(region.bytes);
        stats_.purged_bytes.add(region.bytes);
        stats_.purged_superblocks.add();
        return region.bytes;
    }

    /**
     * Moves a purged superblock's bytes back from the purged gauge to
     * committed and tells the provider (the pages themselves refault
     * zeroed on first touch — no syscall).  No-op on unpurged spans,
     * so every path that puts a superblock back to work calls this
     * unconditionally.  @p into_service distinguishes a real revival
     * (counted, costed as a commit) from the bookkeeping restore
     * release_to_provider does just before the span dies.
     */
    void
    revive_superblock(Superblock* sb, bool into_service = true)
    {
        const std::size_t bytes = sb->revive();
        if (bytes == 0)
            return;
        char* payload = reinterpret_cast<char*>(sb) +
                        (sb->span_bytes() - bytes);
        provider_.unpurge(payload, bytes);
        stats_.purged_bytes.sub(bytes);
        stats_.committed_bytes.add(bytes);
        if (into_service) {
            Policy::work(CostKind::os_commit);
            stats_.revived_superblocks.add();
        }
    }

    /// Frees between purge-cadence checks.  Coarser than the sampler's
    /// period: a due check still costs a timestamp, and a due pass
    /// takes bin locks and issues madvise.
    static constexpr unsigned kPurgeCheckPeriod = 1024;

    /**
     * Deallocate-tail hook: every kPurgeCheckPeriod frees per thread,
     * check whether a purge pass is due (policy time has passed
     * next_purge_tick_) and run one.  The CAS elects a single thread
     * per interval; losers — and winners — never block here beyond the
     * pass itself.  This election is the purge pass's only automatic
     * driver.  Compiled to a single predicted-not-taken branch when
     * the pass is disarmed.
     */
    void
    maybe_purge()
    {
        if (!purge_armed_) [[likely]]
            return;
        thread_local unsigned countdown = kPurgeCheckPeriod;
        if (--countdown != 0) [[likely]]
            return;
        countdown = kPurgeCheckPeriod;
        const std::uint64_t now = Policy::timestamp();
        std::uint64_t due =
            next_purge_tick_.load(std::memory_order_relaxed);
        if (now < due)
            return;
        if (!next_purge_tick_.compare_exchange_strong(
                due, now + config_.purge_interval_ticks,
                std::memory_order_relaxed))
            return;
        purge();
    }

    /**
     * Unmaps an unlinked superblock, settling the footprint gauges.
     * The caller has already removed @p sb from its home's lists and
     * held count.  Waits out any in-flight reuse-cache pop first: a
     * popper holding a stale head pointer may still dereference the
     * superblock's cache link (one relaxed load when no pop is in
     * flight — the overwhelmingly common case).  Returns the bytes
     * given back.
     */
    std::size_t
    release_to_provider(Superblock* sb)
    {
        reuse_cache_.await_poppers();
        // A purged span's committed accounting must be restored before
        // the unmap so the provider's whole-span decommit books
        // symmetrically (not a revival into service — the span dies).
        revive_superblock(sb, /*into_service=*/false);
        std::size_t bytes = sb->span_bytes();
        stats_.held_bytes.sub(bytes);
        stats_.committed_bytes.sub(bytes);
        Policy::work(CostKind::os_map);
        sb->~Superblock();
        provider_.unmap(sb, bytes);
        return bytes;
    }

    /** Huge path with the same reclaim-then-retry-once OOM handling.
        Always timed when armed, on its own path (malloc_huge); records
        on success only.  @p zero asks for calloc semantics. */
    void*
    allocate_huge(std::size_t size, std::size_t align, bool zero = false)
    {
        [[maybe_unused]] std::uint64_t t0 = 0;
        if constexpr (Policy::kObsEnabled) {
            if (latency_ != nullptr)
                t0 = Policy::cycle_timestamp();
        }
        void* p = try_allocate_huge(size, align, zero);
        if (p == nullptr) {
            stats_.oom_reclaims.add();
            record_event(obs::EventKind::oom_reclaim, 0,
                         SizeClasses::kHuge, size);
            release_free_memory();
            p = try_allocate_huge(size, align, zero);
            if (p == nullptr)
                stats_.oom_failures.add();
        }
        if constexpr (Policy::kObsEnabled) {
            if (p != nullptr && latency_ != nullptr)
                latency_commit(obs::LatencyPath::malloc_huge, t0);
        }
        return p;
    }

    /**
     * Reuse before map for the huge path, surplus empties only: unmaps
     * completely-empty superblocks from the reuse cache until @p bytes
     * have gone back or the cache is down to cache_reserve_, so a new
     * huge span replaces idle capital instead of adding to it.  Each
     * superblock given back is on loan (cache_loans_) until a small
     * class next maps a fresh superblock: that map shows the give-back
     * took working capital, so fresh_superblock() moves the loan into
     * the reserve and the cache keeps one more empty from then on.  A
     * dropped working set that is never rebuilt therefore goes back to
     * the OS, while small classes that cycle empties through the cache
     * pay for at most one working set's worth of fresh maps before the
     * reserve covers them.  An empty cache costs one relaxed load.
     */
    void
    give_back_surplus_empties(std::size_t bytes)
    {
        std::size_t cached = reuse_cache_.size();
        if (cached == 0)
            return;
        const std::size_t reserve =
            cache_reserve_.load(std::memory_order_relaxed);
        for (std::size_t given = 0; given < bytes && cached > reserve;
             --cached) {
            Superblock* sb = reuse_cache_.pop(0);
            if (sb == nullptr)
                break;
            given += release_to_provider(sb);
            stats_.huge_cache_releases.add();
            cache_loans_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    /**
     * Huge path: a dedicated span with a superblock header.  A span up
     * to the span cache's ceiling is medium: it rounds up to its class
     * and comes back from the cache when one is parked, with @p zero
     * clearing only what earlier requests can have dirtied.  Otherwise
     * the span is mapped, and mapped memory is zero.
     */
    void*
    try_allocate_huge(std::size_t size, std::size_t align, bool zero)
    {
        std::size_t header = Superblock::header_bytes();
        std::size_t offset =
            align <= header ? header : detail::align_up(header, align);
        if (size > std::numeric_limits<std::size_t>::max() - offset)
            return nullptr;  // span would overflow; report OOM
        const std::size_t need = offset + size;
        const int cls = spans_.class_for(need);
        const std::size_t span = cls < 0 ? need : spans_.class_bytes(cls);
        Superblock* parked = cls < 0 ? nullptr : spans_.acquire(cls, need);
        void* memory = parked;
        std::size_t resident = need;
        if (parked != nullptr) {
            Policy::work(CostKind::list_op);
            const std::size_t dirty = parked->resident_bytes();
            resident = std::max(need, dirty);
            if (zero && dirty > offset) {
                std::memset(static_cast<char*>(memory) + offset, 0,
                            std::min(size, dirty - offset));
            }
            stats_.medium_reuses.add();
        } else {
            Policy::work(CostKind::os_map);
            give_back_surplus_empties(span);
            memory = provider_.map(span, config_.superblock_bytes);
            if (memory == nullptr) {
                if (cls >= 0)
                    spans_.cancel(need);
                return nullptr;
            }
            note_mapped_range(memory, span);
            stats_.held_bytes.add(span);
            stats_.committed_bytes.add(span);
        }
        Superblock* sb =
            Superblock::create_huge(memory, span, offset, size, arena_id_);
        if (cls >= 0)
            sb->set_resident_bytes(resident);
        {
            HugeStripe& stripe = huge_stripe_for(memory);
            std::lock_guard<typename Policy::Mutex> guard(stripe.mutex);
            stripe.list.push_front(sb);
        }
        stats_.allocs.add();
        stats_.huge_allocs.add();
        stats_.in_use_bytes.add(size);
        record_event(obs::EventKind::huge_alloc, 0, SizeClasses::kHuge,
                     size);
        // Huge accounting charges the user size to in_use, so the
        // profiler's "rounded" is the user size too — that keeps the
        // live-bytes reconciliation exact across both paths.
        profile_alloc(static_cast<char*>(memory) + offset, size, size,
                      obs::HeapProfiler::kHugeClass);
        return static_cast<char*>(memory) + offset;
    }

    /**
     * Huge free, always timed when armed (free_huge).  A medium span
     * goes to the span cache, which parks it or hands it back, plus
     * any parked spans it sheds, to decommit here outside its lock; a
     * larger span is unmapped.
     */
    void
    deallocate_huge(Superblock* sb)
    {
        [[maybe_unused]] std::uint64_t t0 = 0;
        if constexpr (Policy::kObsEnabled) {
            if (latency_ != nullptr)
                t0 = Policy::cycle_timestamp();
        }
        const bool medium = sb->span_bytes() <= spans_.max_span_bytes();
        if (!medium)
            Policy::work(CostKind::os_map);
        {
            HugeStripe& stripe = huge_stripe_for(sb);
            std::lock_guard<typename Policy::Mutex> guard(stripe.mutex);
            stripe.list.remove(sb);
        }
        stats_.frees.add();
        stats_.in_use_bytes.sub(sb->huge_user_bytes());
        if (medium) {
            sb->close_free_window();
            const auto out = spans_.release(sb);
            if (out.freed == nullptr)
                Policy::work(CostKind::list_op);
            else
                decommit_span(out.freed);
            for (Superblock* victim = out.evicted; victim != nullptr;) {
                Superblock* next =
                    victim->cache_next.load(std::memory_order_relaxed);
                decommit_span(victim);
                victim = next;
            }
        } else {
            const std::size_t total = sb->span_bytes();
            stats_.held_bytes.sub(total);
            stats_.committed_bytes.sub(total);
            sb->~Superblock();
            provider_.unmap(sb, total);
        }
        if constexpr (Policy::kObsEnabled) {
            if (latency_ != nullptr)
                latency_commit(obs::LatencyPath::free_huge, t0);
        }
    }

    /** Decommits a medium span the span cache gave up: its pages go
        back to the OS and the provider may hand its range out again.
        Returns the span bytes. */
    std::size_t
    decommit_span(Superblock* sb)
    {
        Policy::work(CostKind::os_purge);
        const std::size_t bytes = sb->span_bytes();
        stats_.held_bytes.sub(bytes);
        stats_.committed_bytes.sub(bytes);
        stats_.medium_decommits.add();
        sb->~Superblock();
        provider_.unmap(sb, bytes);
        return bytes;
    }

    /** Destructor support: unmaps every superblock still held. */
    void
    release_everything()
    {
        for (auto& heap : heaps_) {
            for (auto& bin : heap->bins) {
                for (auto& group : bin.groups) {
                    while (Superblock* sb = group.pop_front())
                        unmap_superblock(sb);
                }
            }
        }
        for (auto& bin : global_bins_) {
            for (auto& group : bin->groups) {
                while (Superblock* sb = group.pop_front())
                    unmap_superblock(sb);
            }
        }
        Superblock* chain = reuse_cache_.drain();
        while (chain != nullptr) {
            Superblock* next =
                chain->cache_next.load(std::memory_order_relaxed);
            unmap_superblock(chain);
            chain = next;
        }
        for (auto& stripe : huge_stripes_) {
            while (Superblock* sb = stripe.list.pop_front())
                unmap_superblock(sb);
        }
        spans_.drain_unlocked(
            [this](Superblock* sb) { unmap_superblock(sb); });
    }

    void
    unmap_superblock(Superblock* sb)
    {
        revive_superblock(sb, /*into_service=*/false);
        std::size_t bytes = sb->span_bytes();
        sb->~Superblock();
        provider_.unmap(sb, bytes);
    }

    void
    check_heap(Heap& heap)
    {
        std::lock_guard<typename Heap::Mutex> guard(heap.mutex);
        std::size_t used_sum = 0;
        std::size_t held_sum = 0;
        std::size_t uncarved = 0;  // header + tail remainder per sb
        std::size_t active_classes = 0;
        for (std::size_t cls = 0; cls < heap.bins.size(); ++cls) {
            auto& bin = heap.bins[cls];
            bool any = false;
            for (int g = 0; g < Superblock::kGroupCount; ++g)
                any = any || !bin.groups[g].empty();
            if (any)
                ++active_classes;
            for (int g = 0; g < Superblock::kGroupCount; ++g) {
                for (Superblock* sb = bin.groups[g].front(); sb != nullptr;
                     sb = bin.groups[g].next(sb)) {
                    HOARD_CHECK(sb->size_class() ==
                                static_cast<int>(cls));
                    HOARD_CHECK(sb->fullness_group() == g);
                    HOARD_CHECK(sb->owner() == &heap);
                    HOARD_CHECK(sb->used() <= sb->capacity());
                    used_sum += sb->used_bytes();
                    held_sum += sb->span_bytes();
                    uncarved += sb->span_bytes() -
                                static_cast<std::size_t>(sb->capacity()) *
                                    sb->block_bytes();
                }
            }
        }
        HOARD_CHECK(used_sum == heap.in_use);
        HOARD_CHECK(held_sum == heap.held);

        // Emptiness invariant, in the form the algorithm actually
        // guarantees at an arbitrary instant:
        //
        //   u >= (1-t) * (a - allowance) - K*S
        //
        // with t the victim release threshold: the transfer loop
        // stops either restored (u >= (1-f)a, stronger since
        // t >= f) or because no superblock is t-empty, i.e. every
        // superblock has used > (1-t)*capacity.  The allowance
        // covers (a) bytes a superblock cannot carve into blocks
        // (header + tail remainder); (b) up to global_fetch_batch
        // *fetched* superblocks per active size class — enforcement
        // runs on free only (paper Figure 3), and an allocation may
        // batch-pull that many partial superblocks per class from the
        // global bins between frees; (c) one superblock of transient
        // for the free currently in flight on another thread.
        const double t = config_.release_threshold;
        const std::size_t S = config_.superblock_bytes;
        const std::size_t k_slack = config_.slack_superblocks * S + S;
        const std::size_t allowance =
            uncarved +
            (active_classes * config_.global_fetch_batch + 1) * S;
        bool ok =
            heap.in_use + k_slack >= heap.held ||
            static_cast<double>(heap.in_use) >=
                (1.0 - t) *
                        static_cast<double>(heap.held - std::min(
                                                allowance,
                                                heap.held)) -
                    static_cast<double>(k_slack);
        HOARD_CHECK(ok);
    }

    /** Counter/list consistency for one global bin; takes its lock.
        Bins hold superblocks of their own class only — partials plus
        retained empties (band 0) — and the lock-free occupancy hint
        is exact at quiescence.  Returns the retained-empty count so
        check_invariants can reconcile the bin_empties_ gauge. */
    std::size_t
    check_bin(Bin& bin)
    {
        std::lock_guard<typename Bin::Mutex> guard(bin.mutex);
        std::size_t used_sum = 0;
        std::size_t held_sum = 0;
        std::size_t empties = 0;
        std::uint32_t count = 0;
        for (int g = 0; g < Superblock::kGroupCount; ++g) {
            for (Superblock* sb = bin.groups[g].front(); sb != nullptr;
                 sb = bin.groups[g].next(sb)) {
                HOARD_CHECK(sb->size_class() == bin.size_class);
                HOARD_CHECK(sb->fullness_group() == g);
                HOARD_CHECK(sb->owner() == static_cast<Base*>(&bin));
                HOARD_CHECK(sb->used() <= sb->capacity());
                if (sb->empty())
                    ++empties;
                used_sum += sb->used_bytes();
                held_sum += sb->span_bytes();
                ++count;
            }
        }
        HOARD_CHECK(used_sum == bin.in_use);
        HOARD_CHECK(held_sum == bin.held);
        HOARD_CHECK(count ==
                    bin.occupancy.load(std::memory_order_relaxed));
        return empties;
    }

    /// One stripe of the huge-object list: huge registrations hash to
    /// a stripe by address, so concurrent huge allocations rarely
    /// share a lock.
    struct HugeStripe
    {
        typename Policy::Mutex mutex;
        SuperblockList list;
    };

    /** The stripe registering the huge span that starts at @p p. */
    HugeStripe&
    huge_stripe_for(const void* p)
    {
        auto addr = reinterpret_cast<std::uintptr_t>(p);
        return huge_stripes_[(addr / config_.superblock_bytes) &
                             (kHugeStripes - 1)];
    }

    const Config config_;
    os::PageProvider& provider_;
    SizeClasses classes_;
    /// Identity stamped into every superblock this instance formats
    /// (the hardened free path's foreign-span check).
    const std::uint32_t arena_id_ = detail::next_arena_id();
    /// Superblock::tag_for(arena_id_): what the hardened free path
    /// expects to find in a header this instance formatted.
    const std::uint64_t header_tag_ = Superblock::tag_for(arena_id_);
    /// Sampling heap profiler; non-null only when
    /// Config::profile_sample_rate > 0 (see profile_alloc).  Declared
    /// among the read-mostly members every allocation touches so the
    /// unarmed null check shares their cache line, and destroyed
    /// after the heaps (reverse declaration order) so teardown flushes
    /// can still pair sampled frees.
    std::unique_ptr<obs::HeapProfiler> profiler_;
    /// Per-path latency histograms; non-null only when armed
    /// (Config::latency_histograms or HOARD_LATENCY).  Read-mostly
    /// like profiler_, for the same disarmed-null-check reason.
    std::unique_ptr<obs::LatencyCollector> latency_;
    /// Hull of every span ever mapped for this instance; [max, 0)
    /// until the first map, so a fresh allocator rejects everything.
    std::atomic<std::uintptr_t> mapped_lo_{
        std::numeric_limits<std::uintptr_t>::max()};
    std::atomic<std::uintptr_t> mapped_hi_{0};
    /// Per-processor heaps; heaps_[i] is heap i + 1.  Heap 0 — the
    /// global heap — is the per-class bins plus the reuse cache below.
    std::vector<std::unique_ptr<Heap>> heaps_;
    /// The sharded global heap: one bin (own lock) per size class.
    std::vector<std::unique_ptr<Bin>> global_bins_;
    /// Lock-free cache of completely-empty superblocks: one Treiber
    /// stack per size class, so a same-class pop recycles a superblock
    /// already formatted for it; cross-class steals reformat.
    SuperblockCache<Policy> reuse_cache_;
    /// Empties the huge path leaves in the reuse cache, and the
    /// superblocks it gave back that no fresh small-class map has
    /// charged to the reserve yet (give_back_surplus_empties).  Signed
    /// so racing charges may dip below zero instead of wrapping.
    std::atomic<std::size_t> cache_reserve_{0};
    std::atomic<std::int64_t> cache_loans_{0};
    /// Empty superblocks retained inside global bins (class-local, so
    /// not in the cache).  Updated under the owning bin's lock but
    /// atomic because distinct bin locks do not order each other;
    /// together with the cache size it is bounded by
    /// Config::empty_cache_limit.
    std::atomic<std::size_t> bin_empties_{0};
    /// Guards cache_nodes_ and serializes magazine flushes against each
    /// other (never against the owners' lock-free fast paths).
    typename Policy::Mutex cache_mutex_;
    detail::MagazineNode* cache_nodes_ = nullptr;
    std::uint64_t magazine_id_ = 0;   ///< 0 = caching disabled
    std::uint32_t batch_blocks_ = 1;  ///< N of the batched fast path
    HugeStripe huge_stripes_[kHugeStripes];
    /// True when any purge trigger is configured; hoisted so the
    /// deallocate tail's maybe_purge() costs one predictable branch.
    const bool purge_armed_ = config_.purge_age_ticks != 0 ||
                              config_.rss_target_bytes != 0;
    /// Serializes purge passes (manual purge() vs. the cadence hook).
    typename Policy::Mutex purge_mutex_;
    /// Policy time before which no automatic pass runs; the CAS in
    /// maybe_purge() elects one thread per interval.
    std::atomic<std::uint64_t> next_purge_tick_{0};
    detail::AllocatorStats stats_;
    /// Event rings; non-null only while tracing is enabled.
    std::unique_ptr<obs::EventRecorder> recorder_;
    /// Gauge time series; non-null only when tracing is enabled and
    /// Config::obs_sample_interval > 0.
    std::unique_ptr<obs::TimeSeriesSampler> sampler_;
    /// Freed medium spans kept committed, and the bound on them.  Last,
    /// so the small-object members keep their offsets.
    SpanCache<Policy> spans_{
        config_.superblock_bytes, config_.empty_fraction,
        config_.slack_superblocks * config_.superblock_bytes};
};

}  // namespace hoard

#endif  // HOARD_CORE_HOARD_ALLOCATOR_H_
