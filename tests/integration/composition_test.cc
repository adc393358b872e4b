/**
 * @file
 * Composition integration: the library's layers must stack —
 * DebugAllocator over a thread-cached Hoard on a private provider,
 * containers over the debug layer, trace recording through the whole
 * stack — because that is how a downstream user actually deploys it.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/debug_allocator.h"
#include "core/hoard_allocator.h"
#include "core/pmr_resource.h"
#include "core/stl_allocator.h"
#include "obs/trace_export.h"
#include "os/page_provider.h"
#include "policy/native_policy.h"
#include "workloads/runners.h"
#include "workloads/trace.h"

namespace hoard {
namespace {

TEST(Composition, DebugOverCachedHoardOnPrivateProvider)
{
    os::MmapPageProvider provider;
    Config config;
    config.heap_count = 4;
    config.thread_cache_blocks = 32;
    {
        HoardAllocator<NativePolicy> inner(config, provider);
        DebugAllocator debug(inner);

        workloads::native_run(4, [&](int tid) {
            NativePolicy::rebind_thread_index(tid);
            detail::Rng rng(static_cast<std::uint64_t>(tid) + 40);
            std::vector<void*> live;
            for (int op = 0; op < 5000; ++op) {
                if (live.size() < 100 || rng.chance(0.5)) {
                    live.push_back(debug.allocate(rng.range(1, 500)));
                } else {
                    auto idx = static_cast<std::size_t>(
                        rng.below(live.size()));
                    debug.deallocate(live[idx]);
                    live[idx] = live.back();
                    live.pop_back();
                }
            }
            for (void* p : live)
                debug.deallocate(p);
        });

        EXPECT_EQ(debug.live_allocations(), 0u);
        EXPECT_EQ(debug.bad_free_count(), 0u);
        EXPECT_EQ(debug.overrun_count(), 0u);
        inner.flush_thread_caches();
        EXPECT_EQ(inner.stats().in_use_bytes.current(), 0u);
        EXPECT_TRUE(inner.check_invariants());
    }
    EXPECT_EQ(provider.mapped_bytes(), 0u)
        << "the whole stack must return every byte";
}

TEST(Composition, ContainersOverDebugLayer)
{
    HoardAllocator<NativePolicy> inner{Config{}};
    DebugAllocator debug(inner);
    {
        std::vector<int, StlAllocator<int>> v{StlAllocator<int>(debug)};
        for (int i = 0; i < 20000; ++i)
            v.push_back(i);
        EXPECT_EQ(v[19999], 19999);
    }
    EXPECT_EQ(debug.live_allocations(), 0u);
    EXPECT_EQ(debug.overrun_count(), 0u);
}

TEST(Composition, TraceRecordedThroughDebugLayer)
{
    HoardAllocator<NativePolicy> inner{Config{}};
    DebugAllocator debug(inner);
    workloads::Trace trace;
    workloads::TraceRecorder recorder(debug, trace);

    NativePolicy::rebind_thread_index(0);
    std::vector<void*> blocks;
    for (int i = 0; i < 200; ++i)
        blocks.push_back(recorder.allocate(
            static_cast<std::size_t>(i % 300) + 1));
    for (void* p : blocks)
        recorder.deallocate(p);

    EXPECT_EQ(trace.size(), 400u);
    EXPECT_EQ(debug.live_allocations(), 0u);

    // Replay the debug-layer trace against a bare Hoard.
    HoardAllocator<NativePolicy> target{Config{}};
    auto result = workloads::replay<NativePolicy>(target, trace);
    EXPECT_EQ(result.allocs, 200u);
    EXPECT_TRUE(target.check_invariants());
}

TEST(Composition, PmrOverDebugOverHoard)
{
    HoardAllocator<NativePolicy> inner{Config{}};
    DebugAllocator debug(inner);
    PmrResource resource(debug);
    {
        std::pmr::map<int, std::pmr::string> m(&resource);
        for (int i = 0; i < 300; ++i) {
            m.emplace(i, std::pmr::string(
                             "value-" + std::to_string(i),
                             m.get_allocator()));
        }
        EXPECT_EQ(m.at(299), "value-299");
    }
    EXPECT_EQ(debug.live_allocations(), 0u);
    EXPECT_EQ(debug.overrun_count(), 0u);
}

TEST(Composition, TwoIndependentAllocatorsDoNotInterfere)
{
    os::MmapPageProvider provider_a, provider_b;
    Config config;
    HoardAllocator<NativePolicy> a(config, provider_a);
    HoardAllocator<NativePolicy> b(config, provider_b);

    void* pa = a.allocate(100);
    void* pb = b.allocate(100);
    // Pointers belong to their own instance's pages.
    EXPECT_GT(provider_a.mapped_bytes(), 0u);
    EXPECT_GT(provider_b.mapped_bytes(), 0u);
    a.deallocate(pa);
    b.deallocate(pb);
    EXPECT_EQ(a.stats().in_use_bytes.current(), 0u);
    EXPECT_EQ(b.stats().in_use_bytes.current(), 0u);
}

TEST(Composition, DumpAfterHeavyCompositionRuns)
{
    Config config;
    config.thread_cache_blocks = 8;
    HoardAllocator<NativePolicy> allocator(config);
    std::vector<void*> keep;
    for (int i = 0; i < 1000; ++i)
        keep.push_back(allocator.allocate(
            static_cast<std::size_t>(i % 900) + 1));
    std::ostringstream os;
    obs::write_human(os, allocator.take_snapshot());
    EXPECT_GT(os.str().size(), 100u);
    for (void* p : keep)
        allocator.deallocate(p);
    allocator.flush_thread_caches();
}

}  // namespace
}  // namespace hoard
