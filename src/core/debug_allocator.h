/**
 * @file
 * DebugAllocator: a shadow-checking wrapper for any hoard::Allocator.
 *
 * Wraps an inner allocator and validates every operation against its
 * own shadow ledger:
 *
 *   - double free / foreign free (pointer not live from this wrapper)
 *   - heap buffer overrun (a tail canary after the requested bytes is
 *     verified on free)
 *   - leak reporting (live allocations with requested sizes)
 *
 * This is the layer a downstream user turns on while integrating; the
 * conformance tests run the whole workload suite through it, so the
 * checks themselves are exercised continuously.
 *
 * The wrapper allocates `size + kTailCanaryBytes` from the inner
 * allocator and returns the inner pointer unchanged, so it composes
 * with every allocator in the taxonomy (some baselines require frees
 * to carry the original block pointer).
 */

#ifndef HOARD_CORE_DEBUG_ALLOCATOR_H_
#define HOARD_CORE_DEBUG_ALLOCATOR_H_

#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/failure.h"
#include "common/memutil.h"
#include "common/stats.h"
#include "core/allocator.h"

namespace hoard {

/** Shadow-checking allocator wrapper. */
class DebugAllocator final : public Allocator
{
  public:
    /** Bytes of tail canary appended to every allocation. */
    static constexpr std::size_t kTailCanaryBytes = 8;

    /** What to do on a detected error. */
    enum class OnError
    {
        fatal,  ///< abort with a message (default)
        count,  ///< record in the error counters and continue
    };

    explicit DebugAllocator(Allocator& inner,
                            OnError on_error = OnError::fatal)
        : inner_(inner), on_error_(on_error)
    {}

    ~DebugAllocator() override = default;

    DebugAllocator(const DebugAllocator&) = delete;
    DebugAllocator& operator=(const DebugAllocator&) = delete;

    void*
    allocate(std::size_t size) override
    {
        if (size > std::numeric_limits<std::size_t>::max() -
                       kTailCanaryBytes) {
            return nullptr;  // canary would overflow the request
        }
        void* p = inner_.allocate(size + kTailCanaryBytes);
        if (p == nullptr)
            return nullptr;
        write_canary(p, size);
        {
            std::lock_guard<std::mutex> guard(mutex_);
            live_[p] = size;
        }
        stats_.allocs.add();
        stats_.in_use_bytes.add(size);
        return p;
    }

    void
    deallocate(void* p) override
    {
        if (p == nullptr)
            return;
        std::size_t size = 0;
        {
            std::lock_guard<std::mutex> guard(mutex_);
            auto it = live_.find(p);
            if (it == live_.end()) {
                report("free of untracked pointer %p"
                       " (double free or foreign pointer)",
                       p);
                bad_frees_.add();
                return;
            }
            size = it->second;
            live_.erase(it);
        }
        if (!check_canary(p, size)) {
            report("buffer overrun detected behind %p (%zu bytes"
                   " requested)",
                   p, size);
            overruns_.add();
        }
        stats_.frees.add();
        stats_.in_use_bytes.sub(size);
        inner_.deallocate(p);
    }

    std::size_t
    usable_size(const void* p) const override
    {
        std::lock_guard<std::mutex> guard(mutex_);
        auto it = live_.find(const_cast<void*>(p));
        if (it == live_.end())
            return 0;
        return it->second;
    }

    const detail::AllocatorStats& stats() const override { return stats_; }
    const char* name() const override { return "debug"; }

    /// @name Shadow-ledger introspection.
    /// @{

    /** Currently live allocations (leaks, if the program is done). */
    std::size_t
    live_allocations() const
    {
        std::lock_guard<std::mutex> guard(mutex_);
        return live_.size();
    }

    /** Live bytes as requested by the program. */
    std::size_t
    live_bytes() const
    {
        std::lock_guard<std::mutex> guard(mutex_);
        std::size_t total = 0;
        for (const auto& [p, size] : live_)
            total += size;
        return total;
    }

    /** Snapshot of live pointers and their sizes (leak report). */
    std::vector<std::pair<void*, std::size_t>>
    leak_report() const
    {
        std::lock_guard<std::mutex> guard(mutex_);
        return {live_.begin(), live_.end()};
    }

    std::uint64_t bad_free_count() const { return bad_frees_.get(); }
    std::uint64_t overrun_count() const { return overruns_.get(); }

    /// @}

  private:
    void
    write_canary(void* p, std::size_t size)
    {
        auto* tail = static_cast<std::uint8_t*>(p) + size;
        for (std::size_t i = 0; i < kTailCanaryBytes; ++i)
            tail[i] = detail::pattern_byte(p, i, kCanarySalt);
    }

    bool
    check_canary(const void* p, std::size_t size) const
    {
        const auto* tail = static_cast<const std::uint8_t*>(p) + size;
        for (std::size_t i = 0; i < kTailCanaryBytes; ++i) {
            if (tail[i] != detail::pattern_byte(p, i, kCanarySalt))
                return false;
        }
        return true;
    }

    void
    report(const char* fmt, ...) const
        __attribute__((format(printf, 2, 3)))
    {
        if (on_error_ != OnError::fatal)
            return;
        // Reuse the failure machinery for a consistent message; the
        // formatting dance is worth one allocation-free path.
        va_list ap;
        va_start(ap, fmt);
        char buf[256];
        std::vsnprintf(buf, sizeof(buf), fmt, ap);
        va_end(ap);
        HOARD_FATAL("%s", buf);
    }

    static constexpr std::uint64_t kCanarySalt = 0xdebac1e;

    Allocator& inner_;
    const OnError on_error_;
    mutable std::mutex mutex_;
    std::unordered_map<void*, std::size_t> live_;
    detail::AllocatorStats stats_;
    detail::Counter bad_frees_;
    detail::Counter overruns_;
};

}  // namespace hoard

#endif  // HOARD_CORE_DEBUG_ALLOCATOR_H_
