/**
 * @file
 * Tests for the thread-cache extension (Config::thread_cache_blocks):
 * correctness under caching, bounded cache growth, flush semantics,
 * and stat accounting — plus the behavioral point of the feature:
 * cached operations bypass the heaps entirely.
 */

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/memutil.h"
#include "common/rng.h"
#include "core/hoard_allocator.h"
#include "policy/native_policy.h"
#include "workloads/runners.h"

namespace hoard {
namespace {

using NativeHoard = HoardAllocator<NativePolicy>;

Config
cached_config(std::uint32_t cache_blocks = 32)
{
    Config config;
    config.heap_count = 4;
    config.thread_cache_blocks = cache_blocks;
    return config;
}

TEST(ThreadCache, RoundTripAndPatterns)
{
    NativeHoard allocator(cached_config());
    std::vector<void*> blocks;
    std::set<void*> seen;
    for (int i = 0; i < 3000; ++i) {
        void* p = allocator.allocate(48);
        ASSERT_NE(p, nullptr);
        EXPECT_TRUE(seen.insert(p).second);
        detail::pattern_fill(p, 48, static_cast<std::uint64_t>(i));
        blocks.push_back(p);
    }
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        EXPECT_TRUE(detail::pattern_check(blocks[i], 48, i));
        allocator.deallocate(blocks[i]);
    }
    allocator.flush_thread_caches();
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_EQ(allocator.stats().cached_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(ThreadCache, HitBypassesHeaps)
{
    NativeHoard allocator(cached_config());
    // Prime: one allocation reaches the heap and comes back via cache.
    void* p = allocator.allocate(64);
    allocator.deallocate(p);
    std::uint64_t heap_ops_before = allocator.stats().global_fetches.get();
    std::uint64_t sb_before = allocator.stats().superblock_allocs.get();
    for (int i = 0; i < 1000; ++i) {
        void* q = allocator.allocate(64);
        EXPECT_EQ(q, p) << "cache must serve the hot block";
        allocator.deallocate(q);
    }
    EXPECT_EQ(allocator.stats().superblock_allocs.get(), sb_before);
    EXPECT_EQ(allocator.stats().global_fetches.get(), heap_ops_before);
}

TEST(ThreadCache, CacheIsBounded)
{
    const std::uint32_t cap = 16;
    NativeHoard allocator(cached_config(cap));
    std::vector<void*> blocks;
    for (int i = 0; i < 500; ++i)
        blocks.push_back(allocator.allocate(128));
    for (void* p : blocks)
        allocator.deallocate(p);
    // At most cap blocks per class per slot may linger.
    std::size_t cache_slots = 2 * 4;  // 2 * heap_count
    EXPECT_LE(allocator.stats().cached_bytes.current(),
              cache_slots * cap * 128);
}

TEST(ThreadCache, SpillKeepsEverythingReachable)
{
    const std::uint32_t cap = 8;
    NativeHoard allocator(cached_config(cap));
    detail::Rng rng(5);
    std::vector<std::pair<void*, std::size_t>> live;
    for (int op = 0; op < 20000; ++op) {
        if (live.size() < 300 || rng.chance(0.5)) {
            std::size_t size = rng.range(1, 1000);
            void* p = allocator.allocate(size);
            detail::pattern_fill(p, size, size + 1);
            live.emplace_back(p, size);
        } else {
            auto idx = static_cast<std::size_t>(rng.below(live.size()));
            EXPECT_TRUE(detail::pattern_check(
                live[idx].first, live[idx].second, live[idx].second + 1));
            allocator.deallocate(live[idx].first);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    for (auto& [p, size] : live)
        allocator.deallocate(p);
    allocator.flush_thread_caches();
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_EQ(allocator.stats().cached_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(ThreadCache, CrossThreadChurnStaysCorrect)
{
    NativeHoard allocator(cached_config());
    std::vector<void*> blocks(2000);
    workloads::native_run(2, [&](int tid) {
        NativePolicy::rebind_thread_index(tid);
        if (tid == 0) {
            for (auto& p : blocks) {
                p = allocator.allocate(56);
                detail::pattern_fill(p, 56, 9);
            }
        }
    });
    workloads::native_run(2, [&](int tid) {
        NativePolicy::rebind_thread_index(tid + 1);
        if (tid == 0) {
            for (void* p : blocks) {
                EXPECT_TRUE(detail::pattern_check(p, 56, 9));
                allocator.deallocate(p);
            }
        }
    });
    allocator.flush_thread_caches();
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(ThreadCache, AlignedBlocksCacheWholeBlocks)
{
    NativeHoard allocator(cached_config());
    // An aligned allocation returns an interior pointer; freeing it
    // must cache the *whole* block so the next hit is a valid block.
    void* p = allocator.allocate_aligned(100, 256);
    EXPECT_TRUE(detail::is_aligned(p, 256));
    allocator.deallocate(p);
    void* q = allocator.allocate(300);  // any class reuse is fine
    detail::pattern_fill(q, 300, 2);
    EXPECT_TRUE(detail::pattern_check(q, 300, 2));
    allocator.deallocate(q);
    allocator.flush_thread_caches();
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(ThreadCache, ExitedThreadsNodesAreReused)
{
    // Threads created and joined one at a time: each exit parks the
    // thread's magazine node, and the next thread takes it, so thread
    // churn costs no metadata per thread ever created (under the shim
    // the nodes come from a never-reused arena).
    NativeHoard allocator(cached_config());
    const std::size_t malloced = detail::magazine_nodes_malloced();
    for (int t = 0; t < 64; ++t) {
        std::thread([&] {
            allocator.deallocate(allocator.allocate(64));
            EXPECT_NE(NativePolicy::thread_cache_slot(), nullptr);
        }).join();
    }
    EXPECT_LE(detail::magazine_nodes_malloced() - malloced, 1u);
    EXPECT_EQ(allocator.stats().cached_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(ThreadCache, DestroyedAllocatorsNodesAreReused)
{
    // A thread that keeps creating and destroying allocators: each
    // registration first parks the chain's nodes of destroyed
    // allocators, so the chain stays one node long and its nodes are
    // reused rather than piling up until the thread exits.
    std::thread([] {
        const std::size_t malloced = detail::magazine_nodes_malloced();
        for (int i = 0; i < 64; ++i) {
            NativeHoard allocator(cached_config());
            allocator.deallocate(allocator.allocate(64));
        }
        std::size_t chain = 0;
        for (auto* node = static_cast<detail::MagazineNode*>(
                 NativePolicy::thread_cache_slot());
             node != nullptr; node = node->next_in_thread)
            ++chain;
        EXPECT_EQ(chain, 1u);
        EXPECT_LE(detail::magazine_nodes_malloced() - malloced, 1u);
    }).join();
}

TEST(ThreadCache, OnByDefaultOffInSimConfig)
{
    {
        NativeHoard allocator{Config{}};
        EXPECT_EQ(allocator.config().thread_cache_blocks, 16u);
        void* p = allocator.allocate(64);
        allocator.deallocate(p);
        EXPECT_GT(allocator.stats().cached_bytes.peak(), 0u);
        allocator.flush_thread_caches();
        EXPECT_EQ(allocator.stats().cached_bytes.current(), 0u);
    }
    NativeHoard allocator(sim_config());
    void* p = allocator.allocate(64);
    allocator.deallocate(p);
    EXPECT_EQ(allocator.stats().cached_bytes.peak(), 0u);
    allocator.flush_thread_caches();  // must be a harmless no-op
}

}  // namespace
}  // namespace hoard
