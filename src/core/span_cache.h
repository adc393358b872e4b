/**
 * @file
 * The span cache: every span above S/2, live or parked, under one
 * mutex.  A freed span up to kCeilingBytes (a medium span) stays
 * committed, so a later medium request takes it back with no syscall
 * and faults in at most the pages past what the span already holds.
 *
 * Hoard keeps freed memory in its heaps and bounds what it keeps with
 * the emptiness invariant u >= (1 - f) a - K S (paper §3).  This cache
 * applies the same device to the dedicated spans of medium objects,
 * which would otherwise decommit on every free and refault on every
 * reuse.  scalloc (PAPERS.md) keeps live and free spans in one global
 * structure the same way.
 *
 * Spans and classes: every medium span (header + request up to
 * kCeilingBytes) is mapped at the ceiling, so the page provider
 * recycles one span size and any parked span can serve any medium
 * request.  Only the pages a request touches become resident.  Each
 * span carries a *resident estimate* r (Superblock::resident_bytes):
 * the largest header + request it has served since it was last
 * committed.  No byte past r can be dirty, and about r bytes of it are
 * resident.  Classes, four per octave from S/2 to the ceiling, sort
 * spans by r: a parked span sits in the list of its r's class, and a
 * medium span is charged the class bytes of its r in held and committed
 * bytes (charged_bytes()), what a span of that class used to map.  A
 * span above the ceiling has r = 0, is charged its whole size and never
 * parks.
 *
 * Reuse: a malloc of need n takes the newest span whose r falls in n's
 * class, else the newest of the nearest lower class that holds one (only
 * the n - r bytes past its estimate refault), else maps.  It never takes
 * a span whose r is in a class above n's: such a span would stay
 * charged for, and resident in, more than n's class, and the bound
 * below counts r.  A live span's r therefore stays in its request's
 * class, so rounding still wastes at most 25%.
 *
 * State, under one mutex: the list of live spans (what snapshots, the
 * fork child and teardown walk), a LIFO list of parked spans per
 * class, the parked bytes C (sum of r over parked spans), the medium
 * in-use U (sum of r over live medium spans) and its high-water mark
 * Û; beside them, a mask of the classes that hold parked spans, which
 * a malloc reads before it locks, so a miss takes no lock and a fresh
 * map one (to link the span live).  A free parks its span only if
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
 * largest parked span too (the oldest of the highest resident class):
 * one per free while anything medium is live, and down to the bound
 * (K·S) by the free that leaves nothing live.  (Evicting whenever C is
 * over the bound made 6-10% of frees on medium_buffers pay two madvise
 * calls, and the free p99 rose by a fifth to a third.)  The cache
 * never maps or decommits anything itself; it hands spans back and the
 * caller decommits them outside the lock.  malloc never decommits.
 * Nothing here is a knob: every constant comes from f, K, S and the
 * ceiling.
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
#include <atomic>
#include <bit>
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
    /// The size every medium span is mapped at, so the largest header +
    /// request the cache keeps; larger spans decommit on free.
    static constexpr std::size_t kCeilingBytes = std::size_t{256} << 10;
    /// Four classes per octave from S/2 up; S >= 1024 leaves at most
    /// nine octaves below the ceiling.
    static constexpr int kMaxClasses = 36;
    static_assert(kMaxClasses <= 64, "one bit per class in nonempty_");

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

    /** Size of every medium span, and the largest class (M); 0 when
        S/2 reaches the ceiling. */
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

    /** Size of class @p cls: the bytes a medium span whose resident
        estimate falls in it is charged. */
    std::size_t
    class_bytes(int cls) const
    {
        return std::size_t(5 + cls % 4) << (quarter_shift_ + cls / 4);
    }

    /** What @p sb counts in held and committed bytes: the class bytes
        of a medium span's resident estimate, the whole of a larger
        span.  Takes no lock; the caller owns @p sb or holds the lock. */
    std::size_t
    charged_bytes(const Superblock* sb) const
    {
        const std::size_t r = sb->resident_bytes();
        return r == 0 ? sb->span_bytes() : class_bytes(index_of(r));
    }

    /**
     * malloc of a medium span whose header + request, @p need, falls in
     * class @p cls.  Pops the newest parked span whose resident
     * estimate is in @p cls, else the newest of the nearest lower class
     * holding one, re-formats it by @p format (which takes the parked
     * span and returns its new header), raises its estimate to
     * @p need, links it live and charges it to U, all under one lock.
     * nullptr when no class at or below @p cls holds a span.  A miss
     * charges nothing and takes no lock (unless the last such span
     * left between the mask read and the lock): the caller maps a span
     * and registers it with add_live(), one lock round trip per fresh
     * map.
     */
    template <class Format>
    Superblock*
    acquire(int cls, std::size_t need, Format&& format)
    {
        const std::uint64_t at_or_below = (std::uint64_t{2} << cls) - 1;
        // A stale empty read costs one map a parked span could have
        // saved, never a wrong result.
        if ((nonempty_.load(std::memory_order_relaxed) & at_or_below) == 0)
            return nullptr;
        std::lock_guard<Mutex> guard(mutex_);
        const std::uint64_t found =
            nonempty_.load(std::memory_order_relaxed) & at_or_below;
        if (found == 0)
            return nullptr;
        cls = static_cast<int>(std::bit_width(found)) - 1;
        Superblock* sb = lists_[static_cast<std::size_t>(cls)].pop_front();
        note_class_locked(cls);
        parked_ -= sb->resident_bytes();
        need = std::max(need, sb->resident_bytes());
        sb = format(sb);
        sb->set_resident_bytes(need);
        link_live_locked(sb);
        return sb;
    }

    /** Links a freshly mapped span (a medium one with its resident
        estimate set) onto the live list and charges its estimate to
        U. */
    void
    add_live(Superblock* sb)
    {
        std::lock_guard<Mutex> guard(mutex_);
        link_live_locked(sb);
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
            lists_[static_cast<std::size_t>(index_of(r))].push_front(sb);
            note_class_locked(index_of(r));
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
        nonempty_.store(0, std::memory_order_relaxed);
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
    /// @}

    /**
     * Under the lock, aborts unless every live medium span's resident
     * estimate r lies between its need (object offset + request) and
     * the class bytes of that need's class, every parked span sits in
     * its r's class, the class mask matches the lists, and U and C are
     * the sums of r over the live medium spans and the parked spans.
     * Returns true so it can sit inside EXPECT_TRUE.
     */
    bool
    check_invariants() const
    {
        std::lock_guard<Mutex> guard(mutex_);
        std::size_t in_use = 0;
        for (Superblock* sb = live_.front(); sb != nullptr;
             sb = live_.next(sb)) {
            const std::size_t r = sb->resident_bytes();
            if (r == 0)
                continue;  // above the ceiling
            const std::size_t need =
                sb->huge_offset() + sb->huge_user_bytes();
            HOARD_CHECK(need <= r && r <= class_bytes(index_of(need)));
            in_use += r;
        }
        std::size_t parked = 0;
        for (int cls = 0; cls < class_count_; ++cls) {
            const SuperblockList& list =
                lists_[static_cast<std::size_t>(cls)];
            for (Superblock* sb = list.front(); sb != nullptr;
                 sb = list.next(sb)) {
                HOARD_CHECK(index_of(sb->resident_bytes()) == cls);
                parked += sb->resident_bytes();
            }
            HOARD_CHECK(list.empty() ==
                        (((nonempty_.load(std::memory_order_relaxed) >>
                           cls) & 1) == 0));
        }
        HOARD_CHECK(in_use == in_use_);
        HOARD_CHECK(parked == parked_);
        return true;
    }

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

    /** Links @p sb live and charges its resident estimate to U. */
    void
    link_live_locked(Superblock* sb)
    {
        live_.push_front(sb);
        in_use_ += sb->resident_bytes();
        high_water_ = std::max(high_water_, in_use_);
    }

    /** Records whether class @p cls holds a parked span. */
    void
    note_class_locked(int cls)
    {
        const std::uint64_t bit = std::uint64_t{1} << cls;
        const std::uint64_t mask = nonempty_.load(std::memory_order_relaxed);
        nonempty_.store(lists_[static_cast<std::size_t>(cls)].empty()
                            ? mask & ~bit
                            : mask | bit,
                        std::memory_order_relaxed);
    }

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

    /** The oldest parked span of the highest resident class holding
        any.  @pre something is parked. */
    Superblock*
    largest_locked() const
    {
        const int cls = static_cast<int>(std::bit_width(
                            nonempty_.load(std::memory_order_relaxed))) -
                        1;
        return lists_[static_cast<std::size_t>(cls)].back();
    }

    Superblock*
    take_locked(Superblock* sb)
    {
        const int cls = index_of(sb->resident_bytes());
        lists_[static_cast<std::size_t>(cls)].remove(sb);
        note_class_locked(cls);
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
    /// Bit c set while lists_[c] is non-empty.  Written under the lock;
    /// acquire() reads it before locking, so a miss takes no lock.
    std::atomic<std::uint64_t> nonempty_{0};
    std::size_t parked_ = 0;      ///< C
    std::size_t in_use_ = 0;      ///< U
    std::size_t high_water_ = 0;  ///< Û
    std::uint64_t last_tick_ = 0;
};

}  // namespace hoard

#endif  // HOARD_CORE_SPAN_CACHE_H_
