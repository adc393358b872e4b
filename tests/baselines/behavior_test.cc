/**
 * @file
 * Behavioral distinction tests: each baseline must exhibit exactly the
 * failure mode its taxonomy row (paper Table 1) assigns to it, and
 * Hoard must exhibit none.  These are the repository's executable
 * version of the paper's §2 analysis.
 */

#include <gtest/gtest.h>

#include <vector>

#include "baselines/factory.h"
#include "baselines/ownership_allocator.h"
#include "baselines/pure_private_allocator.h"
#include "policy/native_policy.h"
#include "workloads/prodcons.h"

namespace hoard {
namespace {

std::vector<std::size_t>
prodcons_series(Allocator& allocator, int rounds)
{
    workloads::ProdConsParams params;
    params.rounds = rounds;
    params.batch_objects = 300;
    params.object_bytes = 64;
    std::vector<std::size_t> held;
    workloads::prodcons_pair<NativePolicy>(allocator, params, 0, &held);
    return held;
}

TEST(Blowup, PurePrivateGrowsWithoutBound)
{
    Config config;
    config.heap_count = 4;
    auto allocator = baselines::make_allocator<NativePolicy>(
        baselines::AllocatorKind::pure_private, config);
    auto held = prodcons_series(*allocator, 60);
    // Footprint keeps growing: round 60 far above round 10.
    EXPECT_GT(held[59], held[9] * 3)
        << "pure private heaps must leak the producer's superblocks";
    // And the growth is roughly linear in rounds (each batch strands).
    EXPECT_GT(held[59], held[29]);
}

TEST(Blowup, HoardSerialOwnershipAreBounded)
{
    for (auto kind : {baselines::AllocatorKind::hoard,
                      baselines::AllocatorKind::serial,
                      baselines::AllocatorKind::ownership}) {
        Config config;
        config.heap_count = 4;
        auto allocator =
            baselines::make_allocator<NativePolicy>(kind, config);
        auto held = prodcons_series(*allocator, 60);
        EXPECT_LE(held[59], held[9] + 4 * config.superblock_bytes)
            << baselines::to_string(kind);
    }
}

TEST(Blowup, OwnershipStrandsOneBatchPerRoleHoardDoesNot)
{
    // The paper's O(P) vs O(1) distinction (§2.2): rotate the producer
    // role around P logical threads while live memory stays at exactly
    // one batch.  Ownership arenas never release, so each role strands
    // a batch; Hoard recycles abandoned heaps through the global heap.
    auto footprint = [](baselines::AllocatorKind kind, int roles) {
        Config config;
        config.heap_count = roles;
        auto allocator =
            baselines::make_allocator<NativePolicy>(kind, config);
        workloads::ProdConsParams params;
        params.rounds = 4 * roles;  // every role becomes producer
        // The batch must dwarf the per-heap K*S slack so the O(P) vs
        // O(1) asymptotics dominate the constants.
        params.batch_objects = 6000;
        params.object_bytes = 64;
        workloads::prodcons_rotating<NativePolicy>(*allocator, params,
                                                   roles);
        return allocator->stats().held_bytes.peak();
    };

    const std::size_t batch = 6000 * 64;
    std::size_t own16 = footprint(baselines::AllocatorKind::ownership, 16);
    std::size_t hoard16 = footprint(baselines::AllocatorKind::hoard, 16);
    // Ownership: ~one batch per role.
    EXPECT_GT(own16, 10 * batch);
    // Hoard: bounded by live/(1-f) plus K*S slack per heap.
    EXPECT_LT(hoard16, own16 / 2);
}

TEST(Ownership, FreedMemoryReturnsToOwningArena)
{
    Config config;
    config.heap_count = 2;
    baselines::OwnershipAllocator<NativePolicy> allocator(config);

    NativePolicy::rebind_thread_index(0);
    void* p = allocator.allocate(64);
    NativePolicy::rebind_thread_index(1);
    allocator.deallocate(p);
    NativePolicy::rebind_thread_index(0);
    void* q = allocator.allocate(64);
    EXPECT_EQ(p, q) << "block must return to arena 0's free space";
    allocator.deallocate(q);
}

TEST(PurePrivate, FreedMemoryStaysWithFreeingThread)
{
    Config config;
    config.heap_count = 2;
    baselines::PurePrivateAllocator<NativePolicy> allocator(config);

    NativePolicy::rebind_thread_index(0);
    void* p = allocator.allocate(64);
    NativePolicy::rebind_thread_index(1);
    allocator.deallocate(p);
    // Thread 0 cannot see it again...
    NativePolicy::rebind_thread_index(0);
    void* q = allocator.allocate(64);
    EXPECT_NE(q, p);
    // ...but thread 1 reuses it immediately.
    NativePolicy::rebind_thread_index(1);
    void* r = allocator.allocate(64);
    EXPECT_EQ(r, p);
    allocator.deallocate(q);
    allocator.deallocate(r);
}

TEST(Serial, SingleHeapSharedByAllThreads)
{
    Config config;
    config.heap_count = 8;  // ignored by the serial allocator
    auto allocator = baselines::make_allocator<NativePolicy>(
        baselines::AllocatorKind::serial, config);
    // Consecutive allocations from different logical threads come from
    // one superblock: adjacent addresses (the active-false mechanism).
    NativePolicy::rebind_thread_index(0);
    auto* a = static_cast<char*>(allocator->allocate(8));
    NativePolicy::rebind_thread_index(1);
    auto* b = static_cast<char*>(allocator->allocate(8));
    EXPECT_EQ(b - a, 8) << "serial allocator splits one cache line"
                           " across threads";
    allocator->deallocate(a);
    allocator->deallocate(b);
}

TEST(Hoard, ThreadsGetDisjointSuperblocks)
{
    // No magazines: rebind_thread_index moves this thread to another
    // heap, but not its magazine, whose refill batch would serve both.
    Config config = sim_config();
    config.heap_count = 4;
    auto allocator = baselines::make_allocator<NativePolicy>(
        baselines::AllocatorKind::hoard, config);
    NativePolicy::rebind_thread_index(0);
    auto* a = static_cast<char*>(allocator->allocate(8));
    NativePolicy::rebind_thread_index(1);
    auto* b = static_cast<char*>(allocator->allocate(8));
    // Different heaps, different superblocks: at least S/2 apart.
    auto distance = a < b ? b - a : a - b;
    EXPECT_GE(static_cast<std::size_t>(distance),
              config.superblock_bytes / 2)
        << "per-processor heaps must not share cache lines";
    allocator->deallocate(a);
    allocator->deallocate(b);
}

}  // namespace
}  // namespace hoard
