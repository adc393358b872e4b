/**
 * @file
 * Lock-free binary event tracing for the allocator's rare-path events.
 *
 * The paper's scalability argument rests on events that are *rare* per
 * operation — superblock transfers to and from the global heap, fresh
 * superblock refills, OOM reclaims.  This module records exactly those
 * events (plus thread-cache hits/misses and huge allocations) into a
 * small set of overwrite rings so a run's recent history can be dumped
 * as a Chrome trace and correlated with per-heap snapshots.
 *
 * Design constraints, in order:
 *  - recording must never take a lock or allocate (it runs inside the
 *    allocator, sometimes under a heap lock);
 *  - a slow reader must never stall writers (rings overwrite);
 *  - concurrent writers must be well-defined C++ (every slot word is a
 *    relaxed atomic, so the worst interleaving yields a *mixed* event,
 *    never UB; readers that want exact streams read quiesced).
 *
 * The recorder shards events across kShards rings by thread index, so
 * the fetch_add on a ring head is rarely contended.
 */

#ifndef HOARD_OBS_EVENT_RING_H_
#define HOARD_OBS_EVENT_RING_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/failure.h"
#include "common/mathutil.h"

namespace hoard {
namespace obs {

/** Allocator events worth a trace entry (all off the per-op fast path). */
enum class EventKind : std::uint16_t
{
    transfer_to_global,   ///< emptiness invariant moved a superblock out
    fetch_from_global,    ///< allocation pulled a superblock from heap 0
    cache_hit,            ///< thread cache served an allocation
    cache_miss,           ///< thread cache empty; fell through to heap
    class_refill,         ///< fresh superblock mapped for a size class
    oom_reclaim,          ///< map failure answered by release_free_memory
    huge_alloc,           ///< > S/2 request served by a dedicated chunk
    remote_free,          ///< free pushed to a busy owner's remote queue
    batch_refill,         ///< magazine refilled N blocks under one lock
    batch_flush,          ///< magazine spilled/flushed a batch of blocks
    cache_push,           ///< empty superblock retired to the reuse cache
    cache_pop,            ///< reuse cache supplied a recycled superblock
    bad_free,             ///< hardened free path rejected a pointer
    latency_outlier,      ///< op exceeded Config::latency_outlier_cycles
    kCount
};

/** Stable short name (trace event name / test assertions). */
inline const char*
to_string(EventKind kind)
{
    switch (kind) {
      case EventKind::transfer_to_global:
        return "transfer_to_global";
      case EventKind::fetch_from_global:
        return "fetch_from_global";
      case EventKind::cache_hit:
        return "cache_hit";
      case EventKind::cache_miss:
        return "cache_miss";
      case EventKind::class_refill:
        return "class_refill";
      case EventKind::oom_reclaim:
        return "oom_reclaim";
      case EventKind::huge_alloc:
        return "huge_alloc";
      case EventKind::remote_free:
        return "remote_free";
      case EventKind::batch_refill:
        return "batch_refill";
      case EventKind::batch_flush:
        return "batch_flush";
      case EventKind::cache_push:
        return "cache_push";
      case EventKind::cache_pop:
        return "cache_pop";
      case EventKind::bad_free:
        return "bad_free";
      case EventKind::latency_outlier:
        return "latency_outlier";
      case EventKind::kCount:
        break;
    }
    return "?";
}

/**
 * One decoded trace event.  `timestamp` is Policy time: steady_clock
 * nanoseconds under NativePolicy, virtual cycles under SimPolicy.
 */
struct TraceEvent
{
    std::uint64_t timestamp = 0;
    std::uint64_t bytes = 0;    ///< payload size the event concerns
    std::int32_t tid = 0;       ///< logical thread index
    std::int32_t size_class = 0;
    std::uint16_t heap = 0;     ///< heap index (0 = global)
    EventKind kind = EventKind::kCount;
};

/**
 * Fixed-capacity overwrite ring of TraceEvents.  record() is lock-free
 * (one relaxed fetch_add plus four relaxed stores); when the ring is
 * full the oldest events are overwritten and counted as dropped.
 */
class EventRing
{
  public:
    /** @param capacity number of events retained; power of two >= 2. */
    explicit EventRing(std::size_t capacity)
        : capacity_(capacity),
          mask_(capacity - 1),
          slots_(new Slot[capacity]())
    {
        HOARD_CHECK(detail::is_pow2(capacity) && capacity >= 2);
    }

    EventRing(const EventRing&) = delete;
    EventRing& operator=(const EventRing&) = delete;

    /** Records @p ev; never blocks, never allocates. */
    void
    record(const TraceEvent& ev)
    {
        std::uint64_t i = head_.fetch_add(1, std::memory_order_relaxed);
        Slot& s = slots_[i & mask_];
        s.w0.store(ev.timestamp, std::memory_order_relaxed);
        s.w1.store(ev.bytes, std::memory_order_relaxed);
        s.w2.store((static_cast<std::uint64_t>(
                        static_cast<std::uint32_t>(ev.tid))
                    << 32) |
                       static_cast<std::uint32_t>(ev.size_class),
                   std::memory_order_relaxed);
        s.w3.store((static_cast<std::uint64_t>(ev.kind) << 16) | ev.heap,
                   std::memory_order_relaxed);
    }

    /** Events ever recorded (including overwritten ones). */
    std::uint64_t
    total_recorded() const
    {
        return head_.load(std::memory_order_relaxed);
    }

    /** Events lost to overwrite so far. */
    std::uint64_t
    dropped() const
    {
        std::uint64_t n = total_recorded();
        return n > capacity_ ? n - capacity_ : 0;
    }

    std::size_t capacity() const { return capacity_; }

    /**
     * Appends the retained events, oldest first, to @p out.  Intended
     * for quiesced readers; racing a writer is memory-safe but may see
     * events whose fields mix two writes.  Returns the count appended.
     */
    std::size_t
    collect(std::vector<TraceEvent>& out) const
    {
        std::uint64_t head = head_.load(std::memory_order_relaxed);
        std::uint64_t n = std::min<std::uint64_t>(head, capacity_);
        out.reserve(out.size() + n);
        for (std::uint64_t i = head - n; i != head; ++i) {
            const Slot& s = slots_[i & mask_];
            TraceEvent ev;
            ev.timestamp = s.w0.load(std::memory_order_relaxed);
            ev.bytes = s.w1.load(std::memory_order_relaxed);
            std::uint64_t w2 = s.w2.load(std::memory_order_relaxed);
            ev.tid = static_cast<std::int32_t>(w2 >> 32);
            ev.size_class =
                static_cast<std::int32_t>(w2 & 0xffffffffu);
            std::uint64_t w3 = s.w3.load(std::memory_order_relaxed);
            ev.kind = static_cast<EventKind>(w3 >> 16);
            ev.heap = static_cast<std::uint16_t>(w3 & 0xffffu);
            out.push_back(ev);
        }
        return static_cast<std::size_t>(n);
    }

  private:
    struct Slot
    {
        std::atomic<std::uint64_t> w0{0};
        std::atomic<std::uint64_t> w1{0};
        std::atomic<std::uint64_t> w2{0};
        std::atomic<std::uint64_t> w3{0};
    };

    const std::size_t capacity_;
    const std::uint64_t mask_;
    std::unique_ptr<Slot[]> slots_;
    std::atomic<std::uint64_t> head_{0};
};

/**
 * A set of event rings sharded by thread index.  One recorder serves
 * one allocator instance; the allocator owns it for its lifetime and
 * hands out a const reference for export.
 */
class EventRecorder
{
  public:
    /** Rings; power of two so `tid & (kShards-1)` shards evenly. */
    static constexpr std::size_t kShards = 16;

    /** @param ring_capacity events retained per shard (power of two). */
    explicit EventRecorder(std::size_t ring_capacity = 1024)
    {
        rings_.reserve(kShards);
        for (std::size_t i = 0; i < kShards; ++i)
            rings_.push_back(std::make_unique<EventRing>(ring_capacity));
    }

    /** Records one event, sharded by @p tid. */
    void
    record(std::uint64_t timestamp, int tid, EventKind kind, int heap,
           int size_class, std::uint64_t bytes)
    {
        TraceEvent ev;
        ev.timestamp = timestamp;
        ev.bytes = bytes;
        ev.tid = tid;
        ev.size_class = size_class;
        ev.heap = static_cast<std::uint16_t>(heap);
        ev.kind = kind;
        rings_[static_cast<std::size_t>(tid) & (kShards - 1)]->record(ev);
    }

    /** All retained events across shards, sorted by timestamp. */
    std::vector<TraceEvent>
    collect() const
    {
        std::vector<TraceEvent> events;
        for (const auto& ring : rings_)
            ring->collect(events);
        std::stable_sort(events.begin(), events.end(),
                         [](const TraceEvent& a, const TraceEvent& b) {
                             return a.timestamp < b.timestamp;
                         });
        return events;
    }

    std::uint64_t
    total_recorded() const
    {
        std::uint64_t n = 0;
        for (const auto& ring : rings_)
            n += ring->total_recorded();
        return n;
    }

    std::uint64_t
    dropped() const
    {
        std::uint64_t n = 0;
        for (const auto& ring : rings_)
            n += ring->dropped();
        return n;
    }

    /** Per-event-kind totals over the *retained* window. */
    std::vector<std::uint64_t>
    kind_counts() const
    {
        std::vector<std::uint64_t> counts(
            static_cast<std::size_t>(EventKind::kCount), 0);
        for (const TraceEvent& ev : collect()) {
            auto k = static_cast<std::size_t>(ev.kind);
            if (k < counts.size())
                ++counts[k];
        }
        return counts;
    }

  private:
    std::vector<std::unique_ptr<EventRing>> rings_;
};

}  // namespace obs
}  // namespace hoard

#endif  // HOARD_OBS_EVENT_RING_H_
