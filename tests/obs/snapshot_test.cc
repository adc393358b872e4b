/** @file Unit tests for allocator snapshots and the invariant math. */

#include "obs/snapshot.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/hoard_allocator.h"
#include "core/superblock.h"
#include "policy/native_policy.h"

namespace hoard {
namespace obs {
namespace {

constexpr std::size_t kS = 8192;
constexpr double kT = 0.5;
constexpr std::size_t kK = 2;

HeapSnapshot
heap_with(int index, std::uint64_t in_use, std::uint64_t held,
          std::uint64_t uncarved = 0, std::uint64_t active_classes = 0)
{
    HeapSnapshot h;
    h.index = index;
    h.in_use = in_use;
    h.held = held;
    h.uncarved = uncarved;
    h.active_classes = active_classes;
    return h;
}

TEST(HeapSnapshot, GlobalHeapIsExemptFromInvariant)
{
    // Heap 0 is the buffer the invariant pushes *into*; it can be
    // arbitrarily empty.
    HeapSnapshot h = heap_with(0, 0, 100 * kS);
    EXPECT_TRUE(h.emptiness_ok(kS, kT, kK));
}

TEST(HeapSnapshot, SlackTermAbsorbsSmallHeaps)
{
    // u + K*S + S >= a: a heap holding few superblocks passes however
    // empty it is.
    HeapSnapshot h = heap_with(1, 0, (kK + 1) * kS);
    EXPECT_TRUE(h.emptiness_ok(kS, kT, kK));
}

TEST(HeapSnapshot, GrosslyEmptyLargeHeapViolates)
{
    // 100 superblocks held, nothing in use, no allowance: clearly
    // below u >= (1-t) a - K*S - S.
    HeapSnapshot h = heap_with(1, 0, 100 * kS);
    EXPECT_FALSE(h.emptiness_ok(kS, kT, kK));
    EXPECT_LT(h.invariant_slack_bytes(kS, kT, kK), 0.0);
}

TEST(HeapSnapshot, DenseLargeHeapPasses)
{
    HeapSnapshot h = heap_with(1, 90 * kS, 100 * kS);
    EXPECT_TRUE(h.emptiness_ok(kS, kT, kK));
    EXPECT_GT(h.invariant_slack_bytes(kS, kT, kK), 0.0);
}

TEST(HeapSnapshot, AllowanceRelaxesTheBound)
{
    // Just enough held that the fast path fails; allowance terms
    // (uncarved + (active+1)*S) shrink the effective a_i below the
    // violation threshold.
    std::uint64_t held = 20 * kS;
    HeapSnapshot bare = heap_with(1, 0, held);
    EXPECT_FALSE(bare.emptiness_ok(kS, kT, kK));
    HeapSnapshot relaxed =
        heap_with(1, 0, held, /*uncarved=*/4 * kS, /*active=*/9);
    // allowance = 4S + 10S = 14S; (1-t)(20S-14S) - 3S = 0 <= u.
    EXPECT_TRUE(relaxed.emptiness_ok(kS, kT, kK));
}

TEST(HeapSnapshot, SlackSignMatchesVerdict)
{
    for (std::uint64_t used = 0; used <= 50; used += 5) {
        HeapSnapshot h = heap_with(1, used * kS, 50 * kS);
        bool ok = h.emptiness_ok(kS, kT, kK);
        double slack = h.invariant_slack_bytes(kS, kT, kK);
        if (ok)
            EXPECT_GE(slack, 0.0) << "u=" << used << "S";
        else
            EXPECT_LT(slack, 0.0) << "u=" << used << "S";
    }
}

TEST(AllocatorSnapshot, SumsAndReconciliation)
{
    AllocatorSnapshot snap;
    snap.heaps.push_back(heap_with(0, 100, 1000));
    snap.heaps.push_back(heap_with(1, 200, 2000));
    snap.heaps.push_back(heap_with(2, 300, 3000));
    EXPECT_EQ(snap.sum_in_use(), 600u);
    EXPECT_EQ(snap.sum_held(), 6000u);

    // Identities: sum(u)+huge_user == in_use+cached,
    //             sum(a)+huge_span+parked_span == held, and the
    //             virtual-memory ledger committed + purged == held.
    snap.huge_user_bytes = 50;
    snap.huge_span_bytes = 64;
    snap.cached_bytes = 40;
    snap.stats.in_use_bytes = 610;
    snap.stats.held_bytes = 6064;
    snap.stats.committed_bytes = 6000;
    snap.stats.purged_bytes = 64;
    EXPECT_TRUE(snap.reconciles());

    snap.stats.in_use_bytes = 611;  // one stray byte breaks it
    EXPECT_FALSE(snap.reconciles());
    snap.stats.in_use_bytes = 610;
    snap.stats.held_bytes = 6063;
    EXPECT_FALSE(snap.reconciles());
    snap.stats.held_bytes = 6064;
    snap.stats.purged_bytes = 63;  // a lost purged byte breaks it too
    EXPECT_FALSE(snap.reconciles());
    snap.stats.purged_bytes = 64;

    // Parked medium spans are held and committed but not in use.
    snap.parked_span_bytes = 5120;
    EXPECT_FALSE(snap.reconciles());
    snap.stats.held_bytes += 5120;
    snap.stats.committed_bytes += 5120;
    EXPECT_TRUE(snap.reconciles());
}

TEST(AllocatorSnapshot, InvariantScanCoversEveryHeap)
{
    AllocatorSnapshot snap;
    snap.superblock_bytes = kS;
    snap.release_threshold = kT;
    snap.slack_superblocks = kK;
    snap.heaps.push_back(heap_with(0, 0, 100 * kS));  // exempt
    snap.heaps.push_back(heap_with(1, 90 * kS, 100 * kS));
    EXPECT_TRUE(snap.all_heaps_satisfy_invariant());
    snap.heaps.push_back(heap_with(2, 0, 100 * kS));  // violator
    EXPECT_FALSE(snap.all_heaps_satisfy_invariant());
}

TEST(LiveSnapshot, ReflectsSingleThreadedAllocations)
{
    Config config;
    config.heap_count = 2;
    HoardAllocator<NativePolicy> allocator(config);

    std::vector<void*> blocks;
    for (int i = 0; i < 200; ++i)
        blocks.push_back(allocator.allocate(64));

    AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_EQ(snap.allocator_name, "hoard");
    EXPECT_EQ(snap.superblock_bytes, config.superblock_bytes);
    EXPECT_EQ(snap.heap_count, config.heap_count);
    ASSERT_EQ(snap.heaps.size(),
              static_cast<std::size_t>(config.heap_count) + 1);
    EXPECT_GE(snap.sum_in_use(), 200u * 64u);
    EXPECT_GE(snap.sum_held(), snap.sum_in_use());
    EXPECT_TRUE(snap.reconciles());
    EXPECT_TRUE(snap.all_heaps_satisfy_invariant());

    // Exactly one size class is populated, with full group breakdown.
    bool found = false;
    for (const HeapSnapshot& h : snap.heaps) {
        for (const ClassSnapshot& c : h.classes) {
            found = true;
            EXPECT_GE(c.block_bytes, 64u);
            EXPECT_GT(c.superblocks, 0u);
            EXPECT_LE(c.used_blocks, c.capacity_blocks);
            ASSERT_EQ(c.group_counts.size(),
                      static_cast<std::size_t>(
                          Superblock::kGroupCount));
            std::uint64_t group_total = 0;
            for (std::uint64_t g : c.group_counts)
                group_total += g;
            EXPECT_EQ(group_total, c.superblocks);
        }
    }
    EXPECT_TRUE(found);

    for (void* p : blocks)
        allocator.deallocate(p);
    AllocatorSnapshot after = allocator.take_snapshot();
    EXPECT_TRUE(after.reconciles());
    EXPECT_EQ(after.stats.in_use_bytes, 0u);
}

TEST(LiveSnapshot, CountsHugeAllocationsSeparately)
{
    Config config;
    config.heap_count = 1;
    HoardAllocator<NativePolicy> allocator(config);
    std::size_t huge = config.superblock_bytes;  // > S/2 => huge path
    void* p = allocator.allocate(huge);
    ASSERT_NE(p, nullptr);

    AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_EQ(snap.huge_count, 1u);
    EXPECT_GE(snap.huge_user_bytes, huge);
    EXPECT_GE(snap.huge_span_bytes, snap.huge_user_bytes);
    EXPECT_TRUE(snap.reconciles());

    allocator.deallocate(p);
    snap = allocator.take_snapshot();
    EXPECT_EQ(snap.huge_count, 0u);
    EXPECT_TRUE(snap.reconciles());
}

TEST(LiveSnapshot, LockStatsPopulatedWhenObservabilityOn)
{
    Config config;
    config.heap_count = 1;
    config.observability = true;
    HoardAllocator<NativePolicy> allocator(config);
    if (!kCompiledIn)
        GTEST_SKIP() << "observability compiled out (HOARD_OBS=OFF)";
    ASSERT_TRUE(allocator.observability_enabled());

    void* p = allocator.allocate(128);
    allocator.deallocate(p);

    AllocatorSnapshot snap = allocator.take_snapshot();
    std::uint64_t acquires = 0;
    for (const HeapSnapshot& h : snap.heaps)
        acquires += h.lock.acquires;
    EXPECT_GT(acquires, 0u);
}

TEST(LiveSnapshot, LockStatsZeroWhenObservabilityOff)
{
    Config config;
    config.heap_count = 1;
    HoardAllocator<NativePolicy> allocator(config);
    EXPECT_FALSE(allocator.observability_enabled());
    void* p = allocator.allocate(128);
    allocator.deallocate(p);
    AllocatorSnapshot snap = allocator.take_snapshot();
    for (const HeapSnapshot& h : snap.heaps) {
        EXPECT_EQ(h.lock.acquires, 0u);
        EXPECT_EQ(h.lock.contended, 0u);
    }
}

}  // namespace
}  // namespace obs
}  // namespace hoard
