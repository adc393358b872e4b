/**
 * @file
 * Tests for the sharded global-heap slow path: per-size-class bins
 * with batched fetch/transfer, the class-keyed lock-free reuse cache,
 * and the drain/scavenge protocols that keep snapshots byte-exact.
 * The claims under test:
 *
 *  - a cold heap's fetch pulls up to Config::global_fetch_batch
 *    superblocks from its class's bin in one visit;
 *  - superblocks that empty inside a bin are retained there (still
 *    formatted) and release_free_memory scavenges them;
 *  - empty superblocks recycle through the cache within and across
 *    size classes without fresh OS mappings;
 *  - a huge allocation first unmaps cached empties up to its span's
 *    size (reuse before map), alone and racing small-class fetches,
 *    and keeps the ones small classes had to map back;
 *  - under multi-threaded churn that populates the bins, quiescent
 *    snapshots reconcile byte-exactly, every remote free is drained,
 *    and the emptiness invariant verdict stays green — in both the
 *    native and deterministic-sim worlds.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/hoard_allocator.h"
#include "obs/snapshot.h"
#include "policy/native_policy.h"
#include "policy/sim_policy.h"
#include "sim/machine.h"
#include "workloads/runners.h"

namespace hoard {
namespace {

using NativeHoard = HoardAllocator<NativePolicy>;
using SimHoard = HoardAllocator<SimPolicy>;

/** Paper-literal victim mode so partial superblocks reach the bins,
    with no magazines parking the freed blocks in front of the heaps. */
Config
bin_config(int heaps)
{
    Config config = sim_config();
    config.heap_count = heaps;
    config.empty_fraction = 0.25;
    config.release_threshold = 0.25;
    config.slack_superblocks = 0;
    config.global_fetch_batch = 4;
    return config;
}

/** Fills heap 1 with @p superblocks half-full superblocks of 64-byte
    blocks and lets the invariant sweep them into the global bin.
    Returns the still-live blocks. */
std::vector<void*>
populate_bin(NativeHoard& allocator, int superblocks)
{
    NativePolicy::rebind_thread_index(0);
    const std::size_t per_sb =
        Superblock::payload_bytes_for(
            allocator.config().superblock_bytes) /
        64;
    std::vector<void*> blocks;
    for (std::size_t i = 0;
         i < per_sb * static_cast<std::size_t>(superblocks); ++i)
        blocks.push_back(allocator.allocate(64));
    // Free every other block: each superblock turns half-empty, the
    // heap's occupancy ratio falls to 1/2 < (1 - f), and with K = 0
    // every free sweeps victims into the class bin.
    std::vector<void*> live;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (i % 2 == 0)
            allocator.deallocate(blocks[i]);
        else
            live.push_back(blocks[i]);
    }
    return live;
}

TEST(GlobalBins, BatchedFetchPullsMultipleSuperblocks)
{
    NativeHoard allocator(bin_config(2));
    std::vector<void*> live = populate_bin(allocator, 6);
    ASSERT_GT(allocator.heap_held(0), 0u)
        << "partial superblocks should have transferred to the bin";
    const std::uint64_t fetches0 =
        allocator.stats().global_fetches.get();
    const std::uint64_t hits0 =
        allocator.stats().global_bin_hits.get();

    // A different heap going cold on the same class: one allocation
    // must batch-pull several superblocks under one bin visit.
    NativePolicy::rebind_thread_index(1);
    ASSERT_EQ(allocator.my_heap_index(), 2);
    void* p = allocator.allocate(64);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(allocator.stats().global_bin_hits.get(), hits0 + 1);
    const std::uint64_t pulled =
        allocator.stats().global_fetches.get() - fetches0;
    EXPECT_GE(pulled, 2u) << "fetch did not batch";
    EXPECT_LE(pulled, allocator.config().global_fetch_batch);
    EXPECT_TRUE(allocator.check_invariants());

    allocator.deallocate(p);
    for (void* q : live)
        allocator.deallocate(q);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(GlobalBins, EmptiesRetainedInBinAndScavenged)
{
    NativeHoard allocator(bin_config(2));
    std::vector<void*> live = populate_bin(allocator, 6);

    // Free the rest.  The blocks' superblocks now live in the bin, so
    // these frees land there and the superblocks empty *inside* it —
    // retained in band 0, still formatted, never pushed to the
    // cross-class cache.
    for (void* q : live)
        allocator.deallocate(q);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
    EXPECT_GT(allocator.heap_held(0), 0u)
        << "bin should retain its emptied superblocks";

    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_TRUE(snap.reconciles());
    EXPECT_EQ(snap.heaps[0].in_use, 0u);
    EXPECT_GT(snap.heaps[0].held, 0u);

    // A same-class refetch takes a retained superblock back without
    // a fresh mapping.
    const std::uint64_t maps0 =
        allocator.stats().superblock_allocs.get();
    void* p = allocator.allocate(64);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(allocator.stats().superblock_allocs.get(), maps0);
    allocator.deallocate(p);

    // Memory pressure scavenges the retained empties.
    const std::size_t released = allocator.release_free_memory();
    EXPECT_GT(released, 0u);
    EXPECT_EQ(allocator.heap_held(0), 0u);
    EXPECT_EQ(allocator.stats().held_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(ReuseCache, SameClassRoundTripSkipsTheOs)
{
    Config config;
    config.heap_count = 2;
    config.slack_superblocks = 0;
    NativeHoard allocator(config);
    NativePolicy::rebind_thread_index(0);

    std::vector<void*> blocks;
    for (int i = 0; i < 1000; ++i)
        blocks.push_back(allocator.allocate(64));
    for (void* p : blocks)
        allocator.deallocate(p);
    blocks.clear();
    ASSERT_GT(allocator.stats().cache_pushes.get(), 0u);

    // Same class again: every superblock comes back out of the keyed
    // cache, already formatted — no OS traffic.
    const std::uint64_t maps0 =
        allocator.stats().superblock_allocs.get();
    const std::uint64_t pops0 = allocator.stats().cache_pops.get();
    for (int i = 0; i < 1000; ++i)
        blocks.push_back(allocator.allocate(64));
    EXPECT_EQ(allocator.stats().superblock_allocs.get(), maps0);
    EXPECT_GT(allocator.stats().cache_pops.get(), pops0);

    for (void* p : blocks)
        allocator.deallocate(p);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(ReuseCache, CrossClassStealRecyclesFormattedSpans)
{
    // No magazines: the frees below must empty superblocks, not park.
    Config config = sim_config();
    config.heap_count = 2;
    config.slack_superblocks = 0;
    NativeHoard allocator(config);
    NativePolicy::rebind_thread_index(0);

    std::vector<void*> blocks;
    for (int i = 0; i < 1000; ++i)
        blocks.push_back(allocator.allocate(64));
    for (void* p : blocks)
        allocator.deallocate(p);
    blocks.clear();

    // A different class finds its own stack empty and steals from the
    // 64-byte class's stack — still no OS traffic.
    const std::uint64_t maps0 =
        allocator.stats().superblock_allocs.get();
    const std::uint64_t pops0 = allocator.stats().cache_pops.get();
    for (int i = 0; i < 200; ++i)
        blocks.push_back(allocator.allocate(256));
    EXPECT_EQ(allocator.stats().superblock_allocs.get(), maps0);
    EXPECT_GT(allocator.stats().cache_pops.get(), pops0);

    for (void* p : blocks)
        allocator.deallocate(p);
    EXPECT_TRUE(allocator.check_invariants());
}

/** Allocates and frees @p blocks 64-byte blocks on heap 1, leaving
    their emptied superblocks in the reuse cache.  Returns the cache
    size. */
std::uint64_t
fill_reuse_cache(NativeHoard& allocator, int blocks)
{
    NativePolicy::rebind_thread_index(0);
    std::vector<void*> live;
    for (int i = 0; i < blocks; ++i)
        live.push_back(allocator.allocate(64));
    for (void* p : live)
        allocator.deallocate(p);
    return allocator.take_snapshot().heaps[0].empty_cached;
}

TEST(ReuseCache, HugeAllocationGivesBackEmptiesBeforeMapping)
{
    Config config;
    config.heap_count = 2;
    config.slack_superblocks = 0;
    NativeHoard allocator(config);
    const std::uint64_t cached = fill_reuse_cache(allocator, 2000);
    ASSERT_GE(cached, 5u);

    // A span of T = 3.5 S (header included) needs ceil(T / S) = 4
    // superblocks given back.
    const std::size_t S = allocator.config().superblock_bytes;
    const std::size_t span = 3 * S + S / 2;
    const std::size_t user = span - Superblock::header_bytes();
    const std::uint64_t expect = (span + S - 1) / S;
    const obs::AllocatorSnapshot before = allocator.take_snapshot();
    void* huge = allocator.allocate(user);
    ASSERT_NE(huge, nullptr);
    const obs::AllocatorSnapshot after = allocator.take_snapshot();
    EXPECT_EQ(after.heaps[0].empty_cached, cached - expect);
    EXPECT_EQ(after.stats.huge_cache_releases -
                  before.stats.huge_cache_releases,
              expect);
    const auto given = static_cast<std::int64_t>(expect * S);
    EXPECT_LE(static_cast<std::int64_t>(after.stats.committed_bytes) -
                  static_cast<std::int64_t>(before.stats.committed_bytes),
              static_cast<std::int64_t>(span) - given);
    EXPECT_TRUE(after.reconciles());

    allocator.deallocate(huge);
    EXPECT_TRUE(allocator.take_snapshot().reconciles());
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(ReuseCache, HugeAllocationLargerThanTheCacheEmptiesIt)
{
    Config config;
    config.heap_count = 2;
    config.slack_superblocks = 0;
    NativeHoard allocator(config);
    const std::uint64_t cached = fill_reuse_cache(allocator, 2000);
    ASSERT_GT(cached, 0u);

    const std::size_t S = allocator.config().superblock_bytes;
    void* huge = allocator.allocate((cached + 2) * S);
    ASSERT_NE(huge, nullptr);
    const obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_EQ(snap.heaps[0].empty_cached, 0u);
    EXPECT_EQ(snap.stats.huge_cache_releases, cached);
    EXPECT_TRUE(snap.reconciles());
    allocator.deallocate(huge);
    EXPECT_TRUE(allocator.take_snapshot().reconciles());
}

TEST(ReuseCache, FreshMapAfterAGiveBackRaisesTheReserve)
{
    // No magazines: the refill below must map a fresh superblock
    // rather than pop a block parked by the earlier frees.
    Config config = sim_config();
    config.heap_count = 2;
    config.slack_superblocks = 0;
    NativeHoard allocator(config);
    const std::uint64_t cached = fill_reuse_cache(allocator, 2000);
    ASSERT_GE(cached, 2u);
    const std::size_t S = allocator.config().superblock_bytes;

    // The span needs more than the cache holds: every empty goes back.
    void* first = allocator.allocate(cached * S);
    ASSERT_NE(first, nullptr);
    const obs::AllocatorSnapshot a = allocator.take_snapshot();
    ASSERT_EQ(a.heaps[0].empty_cached, 0u);
    EXPECT_EQ(a.stats.huge_cache_releases, cached);

    // The next small-class miss finds the cache dry and maps afresh:
    // the give-back took working capital, so one empty is kept from
    // now on.
    void* small = allocator.allocate(64);
    ASSERT_EQ(allocator.stats().superblock_allocs.get(),
              a.stats.superblock_allocs + 1);
    allocator.deallocate(small);
    const obs::AllocatorSnapshot b = allocator.take_snapshot();
    ASSERT_EQ(b.heaps[0].empty_cached, 1u);

    void* second = allocator.allocate(S);
    ASSERT_NE(second, nullptr);
    const obs::AllocatorSnapshot c = allocator.take_snapshot();
    EXPECT_EQ(c.stats.huge_cache_releases, cached);
    EXPECT_EQ(c.heaps[0].empty_cached, 1u);
    EXPECT_TRUE(c.reconciles());

    allocator.deallocate(first);
    allocator.deallocate(second);
    EXPECT_TRUE(allocator.take_snapshot().reconciles());
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(ReuseCache, BuffersBetweenSmallObjectChurnStopCostingFreshMaps)
{
    // A working set of small objects is built and dropped every round,
    // so its superblocks cycle through the reuse cache, and a buffer
    // over S/2 comes and goes in between.  Each give-back the small
    // classes have to map back raises the reserve, so the extra maps
    // stop within one working set's worth.
    Config config;
    config.heap_count = 2;
    config.slack_superblocks = 0;
    NativeHoard allocator(config);
    NativePolicy::rebind_thread_index(0);
    const std::size_t S = allocator.config().superblock_bytes;
    std::uint64_t working_set = 0;
    std::uint64_t maps_settled = 0;
    std::uint64_t releases_settled = 0;
    std::vector<void*> live;
    for (int round = 0; round < 60; ++round) {
        for (int i = 0; i < 2000; ++i)
            live.push_back(allocator.allocate(64));
        if (round == 0)
            working_set = allocator.stats().superblock_allocs.get();
        for (void* p : live)
            allocator.deallocate(p);
        live.clear();
        void* buffer = allocator.allocate(3 * S / 4);
        ASSERT_NE(buffer, nullptr);
        allocator.deallocate(buffer);
        if (round == 39) {
            maps_settled = allocator.stats().superblock_allocs.get();
            releases_settled = allocator.stats().huge_cache_releases.get();
        }
    }
    EXPECT_LE(maps_settled, 2 * working_set);
    EXPECT_EQ(allocator.stats().superblock_allocs.get(), maps_settled);
    EXPECT_EQ(allocator.stats().huge_cache_releases.get(),
              releases_settled);
    EXPECT_TRUE(allocator.take_snapshot().reconciles());
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(ReuseCache, HugeGiveBacksRaceSmallClassFetches)
{
    // Even threads cycle a small-object working set, so empties stream
    // through the cache and small-class fetches pop them; odd threads
    // allocate huge spans, which pop and unmap the surplus empties.
    constexpr int kThreads = 4;
    Config config;
    config.heap_count = kThreads;
    config.slack_superblocks = 0;
    NativeHoard allocator(config);
    const std::size_t S = config.superblock_bytes;
    workloads::native_run(kThreads, [&](int tid) {
        NativePolicy::rebind_thread_index(tid);
        std::vector<void*> mine;
        for (int round = 0; round < 40; ++round) {
            if (tid % 2 == 0) {
                for (int i = 0; i < 400; ++i)
                    mine.push_back(allocator.allocate(32u << (i % 4)));
                for (void* p : mine)
                    allocator.deallocate(p);
                mine.clear();
            } else {
                void* huge = allocator.allocate(
                    S * static_cast<std::size_t>(1 + round % 3));
                ASSERT_NE(huge, nullptr);
                allocator.deallocate(huge);
            }
        }
    });
    const obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_EQ(snap.stats.in_use_bytes, 0u);
    EXPECT_EQ(snap.huge_count, 0u);
    EXPECT_TRUE(snap.reconciles());
    EXPECT_EQ(snap.stats.allocs, snap.stats.frees);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(GlobalHeapStress, NativeChurnReconcilesWithBinsPopulated)
{
    constexpr int kThreads = 4;
    constexpr int kBlocks = 600;
    NativeHoard allocator(bin_config(kThreads));

    // Phase 1: every thread allocates its own size mix, then frees
    // every other block — partial superblocks stream into the bins
    // while the survivors pin them partially full.
    std::vector<std::vector<void*>> live(kThreads);
    workloads::native_run(kThreads, [&](int tid) {
        NativePolicy::rebind_thread_index(tid);
        const std::size_t bytes = 64u << (tid % 3);
        std::vector<void*> mine;
        for (int i = 0; i < kBlocks; ++i)
            mine.push_back(allocator.allocate(bytes));
        for (std::size_t i = 0; i < mine.size(); ++i) {
            if (i % 2 == 0)
                allocator.deallocate(mine[i]);
            else
                live[static_cast<std::size_t>(tid)].push_back(mine[i]);
        }
    });

    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_GT(snap.heaps[0].held, 0u) << "bins are not populated";
    EXPECT_TRUE(snap.reconciles());
    EXPECT_TRUE(snap.all_heaps_satisfy_invariant());
    EXPECT_EQ(snap.stats.remote_frees, snap.stats.remote_drains);

    // Phase 2: threads free their *neighbor's* survivors, forcing
    // cross-thread frees into foreign heaps and the bins.
    workloads::native_run(kThreads, [&](int tid) {
        NativePolicy::rebind_thread_index(tid);
        auto& victim = live[static_cast<std::size_t>(
            (tid + 1) % kThreads)];
        for (void* p : victim)
            allocator.deallocate(p);
    });

    // remote_frees may legitimately be zero on a single-core host
    // (frees only queue when the owner lock is observed busy); the
    // invariant is that whatever queued was drained.
    snap = allocator.take_snapshot();
    EXPECT_EQ(snap.stats.in_use_bytes, 0u);
    EXPECT_TRUE(snap.reconciles());
    EXPECT_TRUE(snap.all_heaps_satisfy_invariant());
    EXPECT_EQ(snap.stats.remote_frees, snap.stats.remote_drains);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(GlobalHeapStress, SimChurnReconcilesWithBinsPopulated)
{
    constexpr int kThreads = 4;
    SimHoard allocator(bin_config(kThreads));

    std::vector<std::vector<void*>> live(kThreads);
    std::uint64_t makespan = workloads::sim_run(
        kThreads, kThreads, [&](int tid) {
            const std::size_t bytes = 64u << (tid % 3);
            std::vector<void*> mine;
            for (int i = 0; i < 400; ++i)
                mine.push_back(allocator.allocate(bytes));
            for (std::size_t i = 0; i < mine.size(); ++i) {
                if (i % 2 == 0)
                    allocator.deallocate(mine[i]);
                else
                    live[static_cast<std::size_t>(tid)].push_back(
                        mine[i]);
            }
        });
    EXPECT_GT(makespan, 0u);

    // Lock-taking introspection runs on a simulated thread.
    obs::AllocatorSnapshot snap;
    sim::Machine checker(1);
    checker.spawn(0, 0, [&allocator, &snap] {
        snap = allocator.take_snapshot();
        EXPECT_TRUE(allocator.check_invariants());
    });
    checker.run();

    EXPECT_GT(snap.heaps[0].held, 0u) << "bins are not populated";
    EXPECT_TRUE(snap.reconciles());
    EXPECT_TRUE(snap.all_heaps_satisfy_invariant());
    EXPECT_EQ(snap.stats.remote_frees, snap.stats.remote_drains);

    // Cross-fiber frees, then byte-exact quiescence.
    workloads::sim_run(kThreads, kThreads, [&](int tid) {
        auto& victim = live[static_cast<std::size_t>(
            (tid + 1) % kThreads)];
        for (void* p : victim)
            allocator.deallocate(p);
    });
    sim::Machine final_checker(1);
    final_checker.spawn(0, 0, [&allocator, &snap] {
        snap = allocator.take_snapshot();
        EXPECT_TRUE(allocator.check_invariants());
    });
    final_checker.run();
    EXPECT_EQ(snap.stats.in_use_bytes, 0u);
    EXPECT_TRUE(snap.reconciles());
    EXPECT_EQ(snap.stats.remote_frees, snap.stats.remote_drains);
}

}  // namespace
}  // namespace hoard
