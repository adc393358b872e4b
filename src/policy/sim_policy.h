/**
 * @file
 * Simulated execution policy: the same allocator code, but mutexes are
 * virtual-time mutexes and every cost hook charges cycles on the current
 * Machine.  Instantiating HoardAllocator<SimPolicy> is what turns the
 * native allocator into a measurable subject on the simulated
 * multiprocessor.
 */

#ifndef HOARD_POLICY_SIM_POLICY_H_
#define HOARD_POLICY_SIM_POLICY_H_

#include <cstddef>
#include <cstdint>

#include "obs/gating.h"
#include "policy/cost_kind.h"
#include "sim/machine.h"
#include "sim/virtual_event.h"
#include "sim/virtual_mutex.h"

namespace hoard {

/** Execution policy for simulated threads. @see sim::Machine */
struct SimPolicy
{
    using Mutex = sim::VirtualMutex;
    using Event = sim::VirtualEvent;

    /** @see NativePolicy::kObsEnabled */
    static constexpr bool kObsEnabled = obs::kCompiledIn;

    /** @see NativePolicy::kProfilerEnabled */
    static constexpr bool kProfilerEnabled = obs::kProfilerCompiledIn;

    /**
     * Deterministic "backtrace" for profiler tests: frame 0 is the
     * fiber's site token (set by the workload via
     * Machine::set_profile_site), frame 1 tags the logical thread.
     * Two identical runs therefore produce bit-identical site tables —
     * the sim analogue of a real stack walk.
     */
    static int
    profile_backtrace(std::uintptr_t* frames, int max)
    {
        sim::Machine* m = sim::Machine::current();
        int n = 0;
        if (max >= 1)
            frames[n++] = static_cast<std::uintptr_t>(m->profile_site());
        if (max >= 2) {
            frames[n++] = static_cast<std::uintptr_t>(0x51700000u) |
                          static_cast<std::uintptr_t>(m->current_tid());
        }
        return n;
    }

    /**
     * Timestamp for trace events and wait timing: the calling simulated
     * thread's virtual clock, in cycles.  Only valid inside a run.
     */
    static std::uint64_t
    timestamp()
    {
        return sim::Machine::current()->current_clock();
    }

    /**
     * Cycle clock for latency histograms: virtual time, same as
     * timestamp().  Identical runs read identical clocks, which is
     * what makes sim latency histograms byte-identical on replay.
     */
    static std::uint64_t
    cycle_timestamp()
    {
        return sim::Machine::current()->current_clock();
    }

    static void
    work(std::uint64_t cycles)
    {
        sim::Machine::current()->charge(cycles);
    }

    static void
    work(CostKind kind)
    {
        sim::Machine* m = sim::Machine::current();
        const sim::CostModel& c = m->costs();
        std::uint64_t cycles = 0;
        switch (kind) {
          case CostKind::malloc_base:
            cycles = c.malloc_base;
            break;
          case CostKind::free_base:
            cycles = c.free_base;
            break;
          case CostKind::list_op:
            cycles = c.list_op;
            break;
          case CostKind::superblock_init:
            cycles = c.superblock_init;
            break;
          case CostKind::os_map:
            cycles = c.os_map;
            break;
          case CostKind::os_commit:
            cycles = c.os_commit;
            break;
          case CostKind::os_purge:
            cycles = c.os_purge;
            break;
          case CostKind::transfer:
            cycles = c.transfer;
            break;
        }
        m->charge(cycles);
    }

    static void
    touch(const void* p, std::size_t bytes, bool write)
    {
        sim::Machine::current()->touch(p, bytes, write);
    }

    static int
    thread_index()
    {
        return sim::Machine::current()->current_tid();
    }

    static void
    rebind_thread_index(int idx)
    {
        sim::Machine::current()->rebind_tid(idx);
    }

    /** @see NativePolicy::thread_cache_slot — one slot per *fiber*. */
    static void*&
    thread_cache_slot()
    {
        return sim::Machine::current()->thread_cache_slot();
    }

    /** @see NativePolicy::set_thread_exit_hook */
    static void
    set_thread_exit_hook(void (*hook)(void*))
    {
        sim::Machine::set_thread_exit_hook(hook);
    }

    /** @see NativePolicy::arm_thread_exit_hook — a fiber's body always
        ends in the hook, and no allocator code runs after it. */
    static bool arm_thread_exit_hook() { return true; }
};

}  // namespace hoard

#endif  // HOARD_POLICY_SIM_POLICY_H_
