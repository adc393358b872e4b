/**
 * @file
 * Native execution policy: real threads, real mutexes, no cost modeling.
 *
 * The allocator and workload templates are instantiated against a Policy
 * that supplies the mutex type, the thread-to-index mapping, and the cost
 * hooks.  Under NativePolicy the hooks vanish, so the native build is a
 * genuine thread-safe allocator with zero simulation overhead.
 */

#ifndef HOARD_POLICY_NATIVE_POLICY_H_
#define HOARD_POLICY_NATIVE_POLICY_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "common/thread_exit.h"
#include "obs/gating.h"
#include "policy/cost_kind.h"

namespace hoard {

/**
 * Registry mapping OS threads to small dense indices.  Indices are
 * assigned on first use and may be rebound (thread churn in workloads).
 */
class ThreadRegistry
{
  public:
    /**
     * Index of the calling thread, assigning one if needed.  The hot
     * path — one TLS load and a predicted branch — is inline because
     * the heap profiler's armed sampling countdown runs it on every
     * allocation; only first-use assignment leaves the header.
     */
    static int
    index()
    {
        const int idx = t_index;
        if (idx >= 0) [[likely]]
            return idx;
        return assign_index();
    }

    /** Rebinds the calling thread's index (models a fresh thread). */
    static void rebind(int index);

    /** Highest index assigned so far plus one. */
    static int count();

  private:
    static int assign_index();

    static inline thread_local int t_index = -1;
};

/** One-shot broadcast event for real threads. */
class NativeEvent
{
  public:
    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return set_; });
    }

    void
    signal()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            set_ = true;
        }
        cv_.notify_all();
    }

    bool
    is_set() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return set_;
    }

  private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool set_ = false;
};

/** Execution policy for real threads. */
struct NativePolicy
{
    using Mutex = std::mutex;
    using Event = NativeEvent;

    /**
     * Whether observability instrumentation is compiled into allocators
     * instantiated with this policy (HOARD_OBS CMake option).  A policy
     * subclass can override it to false to stamp out an uninstrumented
     * allocator in an instrumented build (bench/micro_obs_overhead.cc).
     */
    static constexpr bool kObsEnabled = obs::kCompiledIn;

    /**
     * Whether the sampling heap profiler is compiled into allocators
     * instantiated with this policy (HOARD_PROFILER CMake option).
     * Overridable to false for uninstrumented bench baselines, exactly
     * like kObsEnabled.
     */
    static constexpr bool kProfilerEnabled = obs::kProfilerCompiledIn;

    /**
     * Captures the calling thread's backtrace into @p frames (at most
     * @p max entries) by walking the frame-pointer chain; returns the
     * number captured.  No allocation, no libunwind — the tree builds
     * with -fno-omit-frame-pointer precisely so this stays a dozen
     * loads.  noinline so the walk's own frame is a stable first entry
     * to skip.  Defined out of line (native_policy.cc).
     */
    static int profile_backtrace(std::uintptr_t* frames, int max);

    /** Timestamp for trace events and wait timing: steady-clock ns. */
    static std::uint64_t
    timestamp()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /**
     * Cheap cycle counter for latency histograms (obs/latency.h): the
     * raw TSC on x86-64, the virtual counter on aarch64 — a few cycles
     * either way, versus the vDSO call behind timestamp().  Unserialized
     * by design: a stray out-of-order read costs a bucket of noise,
     * serializing would cost more than some paths being measured.
     * Monotonic per thread on every machine this tree targets
     * (constant_tsc is assumed, as every modern x86 provides).
     */
    static std::uint64_t
    cycle_timestamp()
    {
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
        std::uint64_t cnt;
        asm volatile("mrs %0, cntvct_el0" : "=r"(cnt));
        return cnt;
#else
        return timestamp();
#endif
    }

    /** Computation charge: free under native execution. */
    static void work(std::uint64_t /* cycles */) {}

    /** Symbolic allocator-event charge: free under native execution. */
    static void work(CostKind /* kind */) {}

    /** Memory-access charge: free under native execution. */
    static void touch(const void* /* p */, std::size_t /* bytes */,
                      bool /* write */)
    {}

    static int thread_index() { return ThreadRegistry::index(); }
    static void rebind_thread_index(int idx) { ThreadRegistry::rebind(idx); }

    /**
     * The calling logical thread's opaque cache slot (the head of its
     * magazine chain, core/magazine.h).  One slot per OS thread here;
     * under SimPolicy one per fiber, which is why the allocator goes
     * through the policy instead of declaring a thread_local.  Inline,
     * initial-exec TLS: the magazine fast path reads it on every call.
     */
    static void*& thread_cache_slot() { return detail::t_cache_slot; }

    /**
     * Installs the process-wide hook invoked with a thread's non-null
     * cache slot when that OS thread exits.  The hook runs from the
     * thread's one exit hook (common/thread_exit.h), which first
     * empties the slot, so allocator calls later in the thread's exit
     * find it empty.  Idempotent; last writer wins.
     */
    static void
    set_thread_exit_hook(void (*hook)(void*))
    {
        detail::set_thread_exit_hook(hook);
    }

    /**
     * Makes sure the exit hook will run for the calling thread; the
     * allocator calls it before it first fills the slot.  False once
     * the thread's exit hook has run (or the process is out of pthread
     * keys): the slot must then stay empty.
     */
    static bool arm_thread_exit_hook() { return detail::thread_exit_arm(); }
};

}  // namespace hoard

#endif  // HOARD_POLICY_NATIVE_POLICY_H_
