/**
 * @file
 * OOM-path unit tests: every allocation path must answer provider
 * exhaustion with nullptr (or std::bad_alloc where the interface
 * demands it), leave allocator state untouched on failure, and — for
 * Hoard — recover by reclaiming thread caches and empty superblocks
 * before reporting OOM.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory_resource>
#include <new>
#include <vector>

#include "baselines/ownership_allocator.h"
#include "baselines/pure_private_allocator.h"
#include "baselines/serial_allocator.h"
#include "core/debug_allocator.h"
#include "core/hoard_allocator.h"
#include "core/pmr_resource.h"
#include "os/fault_injection.h"
#include "policy/native_policy.h"

namespace hoard {
namespace {

using NativeHoard = HoardAllocator<NativePolicy>;

Config
small_config()
{
    Config config;
    config.heap_count = 1;
    return config;
}

/**
 * Acceptance test for reclaim-before-fail: an allocation whose first
 * map attempt fails under a hard byte budget succeeds after the
 * allocator drains its thread caches and releases empty superblocks.
 */
TEST(OomReclaim, RecoversByDrainingCachesAndEmptySuperblocks)
{
    NativePolicy::rebind_thread_index(0);
    os::MmapPageProvider inner;
    // Budget: exactly three superblocks.
    Config config = small_config();
    config.thread_cache_blocks = 16;
    os::CappedPageProvider provider(inner, 3 * config.superblock_bytes);
    NativeHoard allocator(config, provider);

    // Fill three superblocks of one class, exhausting the budget.
    const std::size_t block = 128;
    std::vector<void*> blocks;
    while (provider.mapped_bytes() < 3 * config.superblock_bytes) {
        void* p = allocator.allocate(block);
        ASSERT_NE(p, nullptr);
        blocks.push_back(p);
    }
    // Free everything: blocks land in the thread cache and the heaps;
    // nothing goes back to the OS yet (empty superblocks are cached).
    for (void* p : blocks)
        allocator.deallocate(p);
    EXPECT_EQ(provider.mapped_bytes(), 3 * config.superblock_bytes);

    // A different size class needs a fresh superblock.  The map fails
    // on the first attempt (budget full), the allocator reclaims, and
    // the retry succeeds.
    void* p = allocator.allocate(512);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(allocator.stats().oom_reclaims.get(), 1u);
    EXPECT_EQ(allocator.stats().oom_failures.get(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
    std::memset(p, 0x7e, 512);
    allocator.deallocate(p);
}

TEST(OomReclaim, FailsCleanlyWhenNothingIsReclaimable)
{
    NativePolicy::rebind_thread_index(0);
    os::MmapPageProvider inner;
    os::CappedPageProvider provider(inner, 0);
    NativeHoard allocator(small_config(), provider);

    EXPECT_EQ(allocator.allocate(64), nullptr);
    EXPECT_EQ(allocator.stats().oom_reclaims.get(), 1u);
    EXPECT_EQ(allocator.stats().oom_failures.get(), 1u);
    EXPECT_EQ(allocator.stats().allocs.get(), 0u);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_EQ(allocator.stats().held_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(OomReclaim, StateUnchangedOnFailedAllocation)
{
    NativePolicy::rebind_thread_index(0);
    os::MmapPageProvider inner;
    Config config = small_config();
    // No magazines: the reclaim the failed allocation runs would flush
    // this thread's refill batch back into heap 1 and move its books.
    config.thread_cache_blocks = 0;
    os::CappedPageProvider provider(inner, config.superblock_bytes);
    NativeHoard allocator(config, provider);

    auto* a = static_cast<char*>(allocator.allocate(64));
    ASSERT_NE(a, nullptr);
    std::memset(a, 0x42, 64);

    std::size_t u1 = allocator.heap_in_use(1);
    std::size_t a1 = allocator.heap_held(1);
    std::uint64_t allocs = allocator.stats().allocs.get();
    std::uint64_t in_use = allocator.stats().in_use_bytes.current();

    // The budget is spent; a huge allocation must fail...
    EXPECT_EQ(allocator.allocate(100 * 1024), nullptr);
    // ...and every book must read exactly as before the attempt.
    EXPECT_EQ(allocator.heap_in_use(1), u1);
    EXPECT_EQ(allocator.heap_held(1), a1);
    EXPECT_EQ(allocator.stats().allocs.get(), allocs);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), in_use);
    EXPECT_TRUE(allocator.check_invariants());
    EXPECT_EQ(a[63], 0x42);
    allocator.deallocate(a);
}

TEST(OomReclaim, AlignedAndReallocPathsPropagateNull)
{
    NativePolicy::rebind_thread_index(0);
    os::MmapPageProvider inner;
    Config config = small_config();
    os::CappedPageProvider provider(inner, config.superblock_bytes);
    NativeHoard allocator(config, provider);

    auto* p = static_cast<char*>(allocator.allocate(64));
    ASSERT_NE(p, nullptr);
    std::memcpy(p, "payload", 8);

    // Aligned path: needs a fresh superblock of a bigger class.
    EXPECT_EQ(allocator.allocate_aligned(3000, 1024), nullptr);
    // Realloc to a huge size: fails, original block intact.
    EXPECT_EQ(allocator.reallocate(p, 1 << 20), nullptr);
    EXPECT_STREQ(p, "payload");
    allocator.deallocate(p);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(OomReclaim, HugeSizeOverflowIsOomNotCorruption)
{
    NativePolicy::rebind_thread_index(0);
    os::MmapPageProvider provider;
    NativeHoard allocator(small_config(), provider);
    // Near-SIZE_MAX requests would overflow the header arithmetic;
    // they must come back as nullptr, not wrap into a tiny mapping.
    EXPECT_EQ(
        allocator.allocate(std::numeric_limits<std::size_t>::max() - 8),
        nullptr);
    EXPECT_EQ(allocator.allocate(std::numeric_limits<std::size_t>::max() / 2),
              nullptr);
    EXPECT_EQ(allocator.stats().allocs.get(), 0u);
    EXPECT_EQ(provider.mapped_bytes(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(OomReclaim, ReleaseFreeMemoryReturnsEverythingReclaimable)
{
    NativePolicy::rebind_thread_index(0);
    os::MmapPageProvider provider;
    Config config = small_config();
    config.thread_cache_blocks = 32;
    NativeHoard allocator(config, provider);

    std::vector<void*> blocks;
    for (int i = 0; i < 500; ++i)
        blocks.push_back(allocator.allocate(64));
    for (void* p : blocks)
        allocator.deallocate(p);

    // Nothing is live: a reclaim must return every mapped byte.
    std::size_t released = allocator.release_free_memory();
    EXPECT_GT(released, 0u);
    EXPECT_EQ(allocator.stats().held_bytes.current(), 0u);
    EXPECT_EQ(provider.mapped_bytes(), 0u);
    EXPECT_TRUE(allocator.check_invariants());

    // The allocator keeps working after a full purge.
    void* p = allocator.allocate(64);
    ASSERT_NE(p, nullptr);
    allocator.deallocate(p);
}

TEST(OomReclaim, BaselinesReturnNullGracefully)
{
    NativePolicy::rebind_thread_index(0);
    Config config;
    config.heap_count = 2;

    {
        os::MmapPageProvider inner;
        os::FaultInjectingPageProvider provider(inner);
        baselines::SerialAllocator<NativePolicy> alloc(config, provider);
        provider.fail_every_kth_map(1);
        EXPECT_EQ(alloc.allocate(64), nullptr);
        EXPECT_EQ(alloc.allocate(100 * 1024), nullptr);
        EXPECT_EQ(alloc.stats().allocs.get(), 0u);
        provider.clear_schedule();
        void* p = alloc.allocate(64);
        ASSERT_NE(p, nullptr);
        alloc.deallocate(p);
    }
    {
        os::MmapPageProvider inner;
        os::FaultInjectingPageProvider provider(inner);
        baselines::PurePrivateAllocator<NativePolicy> alloc(config,
                                                            provider);
        provider.fail_every_kth_map(1);
        EXPECT_EQ(alloc.allocate(64), nullptr);
        EXPECT_EQ(alloc.allocate(100 * 1024), nullptr);
        provider.clear_schedule();
        void* p = alloc.allocate(64);
        ASSERT_NE(p, nullptr);
        alloc.deallocate(p);
    }
    {
        os::MmapPageProvider inner;
        os::FaultInjectingPageProvider provider(inner);
        baselines::OwnershipAllocator<NativePolicy> alloc(config,
                                                          provider);
        provider.fail_every_kth_map(1);
        EXPECT_EQ(alloc.allocate(64), nullptr);
        EXPECT_EQ(alloc.allocate(100 * 1024), nullptr);
        provider.clear_schedule();
        void* p = alloc.allocate(64);
        ASSERT_NE(p, nullptr);
        alloc.deallocate(p);
    }
}

TEST(OomReclaim, PmrResourceThrowsBadAllocOnExhaustion)
{
    NativePolicy::rebind_thread_index(0);
    os::MmapPageProvider inner;
    os::CappedPageProvider provider(inner, 0);
    NativeHoard backend(small_config(), provider);
    HoardPmrResource resource(backend);
    EXPECT_THROW(resource.allocate(64), std::bad_alloc);
    EXPECT_THROW(resource.allocate(64, 64), std::bad_alloc);
    EXPECT_TRUE(backend.check_invariants());
}

TEST(OomReclaim, DebugAllocatorPropagatesInnerNull)
{
    NativePolicy::rebind_thread_index(0);
    os::MmapPageProvider inner;
    os::CappedPageProvider provider(inner, 0);
    NativeHoard backend(small_config(), provider);
    DebugAllocator debug(backend, DebugAllocator::OnError::count);
    EXPECT_EQ(debug.allocate(64), nullptr);
    EXPECT_EQ(debug.live_allocations(), 0u);
    // Canary-overflow guard: near-SIZE_MAX requests fail cleanly.
    EXPECT_EQ(
        debug.allocate(std::numeric_limits<std::size_t>::max() - 2),
        nullptr);
    EXPECT_EQ(debug.stats().allocs.get(), 0u);
}

}  // namespace
}  // namespace hoard
