/**
 * @file
 * The hardened free path (Config::hardened_free): the full bad-free
 * matrix — double free, interior pointer, stack (wild) pointer,
 * foreign-arena pointer — under both Config::on_bad_free policies.
 * The warn policy must count, leak, and leave the allocator fully
 * usable; the fatal policy must abort with a diagnostic.  Legitimate
 * frees, including pointers interior to a block (which aligned
 * allocation hands out), must keep passing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/hoard_allocator.h"
#include "core/superblock.h"
#include "policy/native_policy.h"
#include "tests/core/span_cache_util.h"

namespace hoard {
namespace {

Config
warn_config()
{
    Config config;
    config.heap_count = 2;
    config.on_bad_free = Config::BadFreePolicy::warn;
    return config;
}

std::uint64_t
bad_free_total(const detail::AllocatorStats& stats)
{
    return stats.bad_free_wild.get() + stats.bad_free_foreign.get() +
           stats.bad_free_interior.get() + stats.bad_free_double.get();
}

TEST(HardenedFree, DoubleFreeIsCountedAndLeaked)
{
    HoardAllocator<NativePolicy> allocator(warn_config());
    void* p = allocator.allocate(64);
    ASSERT_NE(p, nullptr);
    allocator.deallocate(p);

    const std::uint64_t frees = allocator.stats().frees.get();
    const std::uint64_t in_use = allocator.stats().in_use_bytes.current();
    allocator.deallocate(p);  // the bug under test
    EXPECT_EQ(allocator.stats().bad_free_double.get(), 1u);
    // Rejected: neither the free counter nor the gauge moved.
    EXPECT_EQ(allocator.stats().frees.get(), frees);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), in_use);

    // The allocator survives and keeps serving.
    void* q = allocator.allocate(64);
    ASSERT_NE(q, nullptr);
    allocator.deallocate(q);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(HardenedFree, HeaderInteriorPointerIsRejected)
{
    Config config = warn_config();
    HoardAllocator<NativePolicy> allocator(config);
    void* p = allocator.allocate(64);
    ASSERT_NE(p, nullptr);

    // Inside the superblock's span but before the carved payload: no
    // allocation path ever hands this address out.
    auto* sb = Superblock::from_pointer(p, config.superblock_bytes);
    allocator.deallocate(reinterpret_cast<char*>(sb) + 8);
    EXPECT_EQ(allocator.stats().bad_free_interior.get(), 1u);

    allocator.deallocate(p);  // the real block still frees
    EXPECT_EQ(allocator.stats().bad_free_double.get(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(HardenedFree, HugeInteriorPointerIsRejected)
{
    HoardAllocator<NativePolicy> allocator(warn_config());
    void* p = allocator.allocate(32768);  // above the largest class
    ASSERT_NE(p, nullptr);

    allocator.deallocate(static_cast<char*>(p) + 64);
    EXPECT_EQ(allocator.stats().bad_free_interior.get(), 1u);

    allocator.deallocate(p);
    EXPECT_EQ(bad_free_total(allocator.stats()), 1u);
}

TEST(HardenedFree, StackPointerIsWild)
{
    HoardAllocator<NativePolicy> allocator(warn_config());
    void* p = allocator.allocate(64);  // establish a mapped hull
    ASSERT_NE(p, nullptr);

    int on_stack = 0;
    allocator.deallocate(&on_stack);
    EXPECT_EQ(allocator.stats().bad_free_wild.get(), 1u);

    allocator.deallocate(p);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(HardenedFree, ForeignArenaPointerIsRejected)
{
    HoardAllocator<NativePolicy> owner(warn_config());
    HoardAllocator<NativePolicy> stranger(warn_config());
    void* theirs = stranger.allocate(64);
    void* p = owner.allocate(64);
    ASSERT_NE(p, nullptr);

    // Whether the foreign block falls inside the stranger's mapped
    // hull is placement luck: inside, the arena-id check fires
    // (foreign); outside, the range check does (wild).  Either way it
    // is rejected exactly once and the owner can still free it.
    stranger.deallocate(p);
    EXPECT_EQ(stranger.stats().bad_free_foreign.get() +
                  stranger.stats().bad_free_wild.get(),
              1u);
    EXPECT_EQ(stranger.stats().frees.get(), 0u);

    owner.deallocate(p);
    stranger.deallocate(theirs);
    EXPECT_EQ(bad_free_total(owner.stats()), 0u);
    EXPECT_TRUE(owner.check_invariants());
    EXPECT_TRUE(stranger.check_invariants());
}

TEST(HardenedFree, FreeIntoAReuseCachedSpanIsDouble)
{
    // No magazines and no slack, so the frees below empty superblocks
    // into the reuse cache, where each span's free window is closed.
    Config config = sim_config();
    config.heap_count = 2;
    config.slack_superblocks = 0;
    config.on_bad_free = Config::BadFreePolicy::warn;
    HoardAllocator<NativePolicy> allocator(config);
    NativePolicy::rebind_thread_index(0);
    std::vector<void*> blocks;
    for (int i = 0; i < 1000; ++i)
        blocks.push_back(allocator.allocate(64));
    for (void* p : blocks)
        allocator.deallocate(p);
    ASSERT_GT(allocator.stats().cache_pushes.get(), 0u);

    // Any block whose span sits in the cache (no owner heap) was freed
    // with it; the cache never unmaps at the default limit.
    void* stale = nullptr;
    for (void* p : blocks) {
        if (Superblock::from_pointer(p, config.superblock_bytes)
                ->owner() == nullptr) {
            stale = p;
            break;
        }
    }
    ASSERT_NE(stale, nullptr);
    const std::uint64_t frees = allocator.stats().frees.get();
    allocator.deallocate(stale);
    EXPECT_EQ(allocator.stats().bad_free_double.get(), 1u);
    EXPECT_EQ(allocator.stats().frees.get(), frees);

    // A span adopted back out of the cache opens its window again.
    blocks.clear();
    for (int i = 0; i < 1000; ++i)
        blocks.push_back(allocator.allocate(64));
    for (void* p : blocks)
        allocator.deallocate(p);
    EXPECT_EQ(bad_free_total(allocator.stats()), 1u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(HardenedFree, MediumDoubleFreeIsReportedDouble)
{
    HoardAllocator<NativePolicy> allocator(warn_config());
    std::vector<void*> live = testing_util::prime_span_cache(
        [&allocator](std::size_t n) { return allocator.allocate(n); },
        [&allocator](void* p) { allocator.deallocate(p); },
        [&allocator] { allocator.release_free_memory(); });
    void* p = allocator.allocate(std::size_t{32} << 10);
    ASSERT_NE(p, nullptr);
    allocator.deallocate(p);
    ASSERT_EQ(allocator.span_cache().parked_count(), 1u);

    // The span sits parked with its header intact and its window
    // closed: a second free of the object is a double free.
    const std::uint64_t frees = allocator.stats().frees.get();
    allocator.deallocate(p);
    EXPECT_EQ(allocator.stats().bad_free_double.get(), 1u);
    EXPECT_EQ(allocator.stats().frees.get(), frees);
    allocator.deallocate(static_cast<char*>(p) + 64);
    EXPECT_EQ(allocator.stats().bad_free_interior.get(), 1u);
    EXPECT_EQ(allocator.span_cache().parked_count(), 1u);

    // Once the span is decommitted its header page reads zero, so a
    // stale free is still rejected (not a superblock: wild).
    allocator.release_free_memory();
    ASSERT_EQ(allocator.span_cache().parked_count(), 0u);
    allocator.deallocate(p);
    EXPECT_EQ(allocator.stats().bad_free_wild.get(), 1u);
    EXPECT_EQ(bad_free_total(allocator.stats()), 3u);
    EXPECT_EQ(allocator.stats().frees.get(), frees);

    for (void* l : live)
        allocator.deallocate(l);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_TRUE(allocator.take_snapshot().reconciles());
}

TEST(HardenedFree, BlockInteriorPointerStillFrees)
{
    // Aligned allocation can return an address interior to a block, so
    // the hardened path must accept those — only addresses no
    // allocation can have produced are bad.
    HoardAllocator<NativePolicy> allocator(warn_config());
    void* p = allocator.allocate_aligned(100, 256);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 256, 0u);
    allocator.deallocate(p);
    EXPECT_EQ(bad_free_total(allocator.stats()), 0u);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(HardenedFree, CountersReachTheSnapshot)
{
    HoardAllocator<NativePolicy> allocator(warn_config());
    void* p = allocator.allocate(64);
    allocator.deallocate(p);
    allocator.deallocate(p);
    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_EQ(snap.stats.bad_free_double, 1u);
    EXPECT_EQ(snap.stats.bad_free_wild, 0u);
}

TEST(HardenedFree, TrustingPathWhenDisabled)
{
    Config config = warn_config();
    config.hardened_free = false;
    HoardAllocator<NativePolicy> allocator(config);
    std::vector<void*> blocks;
    for (int i = 0; i < 100; ++i)
        blocks.push_back(allocator.allocate(static_cast<std::size_t>(
            i % 200 + 1)));
    for (void* block : blocks)
        allocator.deallocate(block);
    EXPECT_EQ(bad_free_total(allocator.stats()), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

using HardenedFreeDeathTest = ::testing::Test;

TEST(HardenedFreeDeathTest, FatalPolicyAbortsOnDoubleFree)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Config config;
    config.heap_count = 2;
    ASSERT_EQ(config.on_bad_free, Config::BadFreePolicy::fatal)
        << "fatal must be the default";
    EXPECT_DEATH(
        {
            HoardAllocator<NativePolicy> allocator(config);
            void* p = allocator.allocate(64);
            allocator.deallocate(p);
            allocator.deallocate(p);
        },
        "bad free \\(double\\)");
}

TEST(HardenedFreeDeathTest, FatalPolicyAbortsOnWildFree)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Config config;
    config.heap_count = 2;
    EXPECT_DEATH(
        {
            HoardAllocator<NativePolicy> allocator(config);
            void* warm = allocator.allocate(64);
            (void)warm;
            int on_stack = 0;
            allocator.deallocate(&on_stack);
        },
        "bad free \\(wild\\)");
}

}  // namespace
}  // namespace hoard
