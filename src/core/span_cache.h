/**
 * @file
 * The span cache: every span above S/2, live or parked, under one
 * mutex.  A freed span up to kCeilingBytes (a medium span) stays
 * committed, so the next request of its size class takes it back with
 * no syscall and no page fault.
 *
 * Hoard keeps freed memory in its heaps and bounds what it keeps with
 * the emptiness invariant u >= (1 - f) a - K S (paper §3).  This cache
 * applies the same device to the dedicated spans of medium objects,
 * which would otherwise decommit on every free and refault on every
 * reuse.  scalloc (PAPERS.md) keeps live and free spans in one global
 * structure the same way.
 *
 * Classes: four per octave from S/2 to the ceiling, so rounding a span
 * up to its class wastes at most 25%.  A span is mapped for its class
 * size and carries a *resident estimate* r (Superblock::resident_bytes):
 * the largest header + request it has served since it was last
 * committed.  No byte past r can be dirty, and about r bytes of it are
 * resident.  A span above the ceiling has r = 0 and never parks.
 *
 * State, under one mutex: the list of live spans (what snapshots, the
 * fork child and teardown walk), a LIFO list of parked spans per
 * class, the parked bytes C (sum of r over parked spans), the medium
 * in-use U (sum of r over live medium spans) and its high-water mark
 * Û.  A free parks its span only if
 *
 *     C + r <= min(f / (1 - f) * U + K * S,  Û - U - M)
 *
 * with f the empty fraction, K * S the slack and M the largest class:
 *
 *  - the first term is the emptiness invariant applied to parked
 *    spans: as U falls C falls with it, down to K * S once nothing is
 *    live, which is what a process holds at teardown;
 *  - the second keeps committed medium bytes (U + C) one span below
 *    their own high-water mark, so parking does not raise the peak.
 *
 * A free that fails them decommits its span.  When U falls, C can end
 * up over the bound; mallocs that reuse parked spans drain that, so a
 * free evicts nothing more unless C is over the bound by more than the
 * bound's U-proportional term f/(1-f)·U as well.  Then U fell further
 * than mallocs will refill, as at teardown, and the free sheds the
 * largest parked span too: one per free while anything medium is
 * live, and down to the bound (K·S) by the free that leaves nothing
 * live.  (Evicting whenever C is over the bound made 6-10% of frees on
 * medium_buffers pay two madvise calls, and the free p99 rose by a
 * fifth to a third.)  The cache never maps or decommits anything
 * itself; it hands spans back and the caller decommits them outside
 * the lock.  malloc never decommits.  Nothing here is a knob: every
 * constant comes from f, K, S and the ceiling.
 *
 * Parked spans keep their header with the free window closed (the
 * hardened free path reports a second free of one as a double free)
 * and their park time in retire_tick(), which orders the purge pass
 * and release_free_memory() (oldest first) and ages spans for the
 * purge pass.
 */

#ifndef HOARD_CORE_SPAN_CACHE_H_
#define HOARD_CORE_SPAN_CACHE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "common/failure.h"
#include "common/mathutil.h"
#include "core/superblock.h"

namespace hoard {

template <typename Policy>
class SpanCache
{
  public:
    /// Largest span the cache keeps; larger spans decommit on free.
    static constexpr std::size_t kCeilingBytes = std::size_t{256} << 10;
    /// Four classes per octave from S/2 up; S >= 1024 leaves at most
    /// nine octaves below the ceiling.
    static constexpr int kMaxClasses = 36;

    /// What a free hands back for decommit.
    struct Decommits
    {
        Superblock* freed = nullptr;    ///< the span freed, if not parked
        /// Parked spans shed far over the bound, linked through
        /// cache_next: one, or down to the bound once U is 0.
        Superblock* evicted = nullptr;
    };

    /**
     * @param superblock_bytes  S (power of two >= 1024)
     * @param empty_fraction    f of the emptiness invariant
     * @param slack_bytes       K * S
     */
    SpanCache(std::size_t superblock_bytes, double empty_fraction,
              std::size_t slack_bytes)
        : quarter_shift_(
              static_cast<int>(detail::floor_log2(superblock_bytes / 8))),
          class_count_(superblock_bytes / 2 < kCeilingBytes
                           ? index_of(kCeilingBytes) + 1
                           : 0),
          ratio_(empty_fraction / (1.0 - empty_fraction)),
          slack_(slack_bytes)
    {
        HOARD_CHECK(class_count_ <= kMaxClasses);
    }

    SpanCache(const SpanCache&) = delete;
    SpanCache& operator=(const SpanCache&) = delete;

    int class_count() const { return class_count_; }

    /** Largest medium span (M), 0 when S/2 reaches the ceiling. */
    std::size_t
    max_span_bytes() const
    {
        return class_count_ == 0 ? 0 : kCeilingBytes;
    }

    /**
     * Class of a span that must hold @p bytes (header + request), or -1
     * above the ceiling.  Spans at or below S/2, which only aligned
     * requests produce, take the smallest class.
     */
    int
    class_for(std::size_t bytes) const
    {
        if (bytes > max_span_bytes())
            return -1;
        return index_of(bytes);
    }

    /** Span size of class @p cls. */
    std::size_t
    class_bytes(int cls) const
    {
        return std::size_t(5 + cls % 4) << (quarter_shift_ + cls / 4);
    }

    /**
     * malloc of a medium span: U grows by the new span's resident
     * estimate, max(@p need, a reused span's estimate).  When a span of
     * @p cls is parked, the newest is re-formatted by @p format (which
     * takes the parked span and returns its new header), given that
     * estimate, linked live and returned, all under one lock.  Else
     * the result is nullptr: the caller maps a span and registers it
     * with add_live(), or gives @p need back through cancel() when the
     * map fails.
     */
    template <class Format>
    Superblock*
    acquire(int cls, std::size_t need, Format&& format)
    {
        std::lock_guard<Mutex> guard(mutex_);
        Superblock* sb = lists_[static_cast<std::size_t>(cls)].pop_front();
        if (sb != nullptr) {
            parked_ -= sb->resident_bytes();
            need = std::max(need, sb->resident_bytes());
            sb = format(sb);
            sb->set_resident_bytes(need);
            live_.push_front(sb);
        }
        in_use_ += need;
        high_water_ = std::max(high_water_, in_use_);
        return sb;
    }

    /** Undoes acquire()'s U charge after a failed fresh map. */
    void
    cancel(std::size_t need)
    {
        std::lock_guard<Mutex> guard(mutex_);
        in_use_ -= need;
    }

    /** Links a freshly mapped span (a medium one with its resident
        estimate already set) onto the live list. */
    void
    add_live(Superblock* sb)
    {
        std::lock_guard<Mutex> guard(mutex_);
        live_.push_front(sb);
    }

    /** free of a span above the ceiling: unlinks it; the caller unmaps
        it. */
    void
    remove_live(Superblock* sb)
    {
        std::lock_guard<Mutex> guard(mutex_);
        live_.remove(sb);
    }

    /**
     * free of a medium span: unlinks live span @p sb (header intact,
     * free window already closed), takes it out of U and parks it if
     * the bound allows.  If not, the span comes back for decommit, with
     * the largest parked span when C is over the bound by more than
     * f/(1-f)·U too (every span over the bound once U is 0).  The
     * caller decommits what comes back.
     */
    Decommits
    release(Superblock* sb)
    {
        const std::size_t r = sb->resident_bytes();
        Decommits out;
        std::lock_guard<Mutex> guard(mutex_);
        live_.remove(sb);
        in_use_ -= r;
        const std::size_t bound = bound_locked();
        if (parked_ + r <= bound) {
            last_tick_ = std::max(Policy::timestamp(), last_tick_ + 1);
            sb->set_retire_tick(last_tick_);
            lists_[static_cast<std::size_t>(index_of(sb->span_bytes()))]
                .push_front(sb);
            parked_ += r;
        } else {
            out.freed = sb;
            // Over the bound by more than its U-proportional term: U
            // fell further than later mallocs will refill, as at
            // teardown, so shed the largest span too.  A smaller
            // overshoot drains through reuse without a second madvise.
            // The free that leaves nothing medium live sheds down to
            // the bound.
            Superblock* last = nullptr;
            while (parked_ > bound + proportional_locked()) {
                Superblock* victim = take_locked(largest_locked());
                victim->cache_next.store(nullptr, std::memory_order_relaxed);
                if (last == nullptr)
                    out.evicted = victim;
                else
                    last->cache_next.store(victim,
                                           std::memory_order_relaxed);
                last = victim;
                if (in_use_ != 0)
                    break;
            }
        }
        return out;
    }

    /**
     * Detaches the least recently parked span if @p eligible accepts
     * it, else returns nullptr.  Callers loop until nullptr, so they
     * take spans in park order: the purge pass (age, RSS target) and
     * release_free_memory() (everything).
     */
    template <class Pred>
    Superblock*
    take_oldest_if(Pred&& eligible)
    {
        std::lock_guard<Mutex> guard(mutex_);
        Superblock* sb = oldest_locked();
        if (sb == nullptr || !eligible(sb))
            return nullptr;
        return take_locked(sb);
    }

    /** Teardown: hands every span, live or parked, to @p f.  Takes no
        lock: the owner is being destroyed, so nothing races it, and a
        simulated mutex cannot be taken outside a simulated thread. */
    template <class F>
    void
    drain_unlocked(F&& f)
    {
        while (Superblock* sb = live_.pop_front())
            f(sb);
        for (int cls = 0; cls < class_count_; ++cls) {
            while (Superblock* sb =
                       lists_[static_cast<std::size_t>(cls)].pop_front()) {
                parked_ -= sb->resident_bytes();
                f(sb);
            }
        }
    }

    /** Calls @p f on every live span, under the lock. */
    template <class F>
    void
    for_each_live(F&& f) const
    {
        std::lock_guard<Mutex> guard(mutex_);
        for (Superblock* sb = live_.front(); sb != nullptr;
             sb = live_.next(sb))
            f(sb);
    }

    /** Calls @p f on every parked span, under the lock. */
    template <class F>
    void
    for_each_parked(F&& f) const
    {
        std::lock_guard<Mutex> guard(mutex_);
        for (int cls = 0; cls < class_count_; ++cls) {
            const SuperblockList& list =
                lists_[static_cast<std::size_t>(cls)];
            for (Superblock* sb = list.front(); sb != nullptr;
                 sb = list.next(sb))
                f(sb);
        }
    }

    /// @name Fork support: the allocator's lock sweep takes this last.
    /// @{
    void lock() { mutex_.lock(); }
    void unlock() { mutex_.unlock(); }

    /** Fork child, single-threaded: U recounted from the live list (a
        parent thread may have died between acquire() and add_live()). */
    void
    recount_in_use()
    {
        in_use_ = 0;
        for (Superblock* sb = live_.front(); sb != nullptr;
             sb = live_.next(sb))
            in_use_ += sb->resident_bytes();
        high_water_ = std::max(high_water_, in_use_);
    }
    /// @}

    /// @name Introspection (tests).
    /// @{
    std::size_t
    parked_bytes() const
    {
        std::lock_guard<Mutex> guard(mutex_);
        return parked_;
    }

    std::size_t
    in_use_bytes() const
    {
        std::lock_guard<Mutex> guard(mutex_);
        return in_use_;
    }

    std::size_t
    high_water_bytes() const
    {
        std::lock_guard<Mutex> guard(mutex_);
        return high_water_;
    }

    std::size_t
    parked_count() const
    {
        std::size_t n = 0;
        for_each_parked([&n](Superblock*) { ++n; });
        return n;
    }
    /// @}

  private:
    using Mutex = typename Policy::Mutex;

    /** Class index of @p bytes, without the ceiling check. */
    int
    index_of(std::size_t bytes) const
    {
        const std::size_t quarters = (bytes - 1) >> quarter_shift_;
        if (quarters < 4)
            return 0;
        const int octave = static_cast<int>(detail::floor_log2(quarters)) - 2;
        return octave * 4 + static_cast<int>(quarters >> octave) - 4;
    }

    /** f/(1-f) U: the invariant's part of the bound that tracks U. */
    std::size_t
    proportional_locked() const
    {
        return static_cast<std::size_t>(ratio_ *
                                        static_cast<double>(in_use_));
    }

    /** min(f/(1-f) U + K S, Û - U - M), clamped at 0. */
    std::size_t
    bound_locked() const
    {
        const std::size_t invariant = proportional_locked() + slack_;
        const std::size_t floor = in_use_ + max_span_bytes();
        const std::size_t below_peak =
            high_water_ > floor ? high_water_ - floor : 0;
        return std::min(invariant, below_peak);
    }

    /** The parked span with the oldest park time, or nullptr.  Each
        class list is newest-first, so only the class tails compete. */
    Superblock*
    oldest_locked() const
    {
        Superblock* oldest = nullptr;
        for (int cls = 0; cls < class_count_; ++cls) {
            Superblock* sb = lists_[static_cast<std::size_t>(cls)].back();
            if (sb != nullptr &&
                (oldest == nullptr ||
                 sb->retire_tick() < oldest->retire_tick()))
                oldest = sb;
        }
        return oldest;
    }

    /** The oldest parked span of the largest class holding any.
        @pre something is parked. */
    Superblock*
    largest_locked() const
    {
        int cls = class_count_ - 1;
        while (lists_[static_cast<std::size_t>(cls)].empty())
            --cls;
        return lists_[static_cast<std::size_t>(cls)].back();
    }

    Superblock*
    take_locked(Superblock* sb)
    {
        lists_[static_cast<std::size_t>(index_of(sb->span_bytes()))]
            .remove(sb);
        parked_ -= sb->resident_bytes();
        return sb;
    }

    const int quarter_shift_;  ///< log2(S/8): a quarter of the first octave
    const int class_count_;
    const double ratio_;       ///< f / (1 - f)
    const std::size_t slack_;  ///< K * S
    mutable Mutex mutex_;
    SuperblockList live_;
    std::array<SuperblockList, kMaxClasses> lists_;
    std::size_t parked_ = 0;      ///< C
    std::size_t in_use_ = 0;      ///< U
    std::size_t high_water_ = 0;  ///< Û
    std::uint64_t last_tick_ = 0;
};

}  // namespace hoard

#endif  // HOARD_CORE_SPAN_CACHE_H_
