/**
 * @file
 * Purge-pass unit tests: decommit accounting (committed + purged ==
 * held), revival on the fetch path, RSS targeting, the deallocate-tail
 * cadence (alone and raced against other threads' fetches and
 * revivals), provider-refusal rollback, and byte-identical replay
 * under the simulated policy.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <tuple>
#include <vector>

#include "common/memutil.h"
#include "core/hoard_allocator.h"
#include "os/fault_injection.h"
#include "os/page_provider.h"
#include "os/reserved_arena.h"
#include "policy/native_policy.h"
#include "policy/sim_policy.h"
#include "sim/machine.h"

namespace hoard {
namespace {

using NativeHoard = HoardAllocator<NativePolicy>;
using SimHoard = HoardAllocator<SimPolicy>;

constexpr std::size_t kSuperblock = std::size_t{64} << 10;
constexpr std::size_t kBlock = 512;
constexpr int kSpikeBlocks = 4000;  // ~34 superblocks at 512 B

/** 64 KiB superblocks so a purged span gives back 15/16 of its pages
    (at the 8 KiB default the header page would be half the span). */
Config
purge_config()
{
    Config config;
    config.heap_count = 1;
    config.superblock_bytes = kSuperblock;
    config.slack_superblocks = 1;
    return config;
}

/** Test-local arenas: 4 MiB reservations instead of 1 GiB. */
os::ReservedArenaProvider::Options
small_arena()
{
    os::ReservedArenaProvider::Options o;
    o.arena_bytes = std::size_t{8} << 20;
    o.max_span_bytes = std::size_t{1} << 20;
    return o;
}

/** Spike: allocate, touch, and free @p count blocks, then flush. */
template <typename Allocator>
void
spike_and_free(Allocator& allocator, int count)
{
    std::vector<void*> blocks;
    blocks.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        void* p = allocator.allocate(kBlock);
        ASSERT_NE(p, nullptr);
        detail::pattern_fill(p, kBlock, static_cast<std::uint64_t>(i));
        blocks.push_back(p);
    }
    for (void* p : blocks)
        allocator.deallocate(p);
    allocator.flush_thread_caches();
}

TEST(PurgePass, ForcePurgeDecommitsAndReconciles)
{
    NativePolicy::rebind_thread_index(0);
    os::ReservedArenaProvider provider(small_arena());
    NativeHoard allocator(purge_config(), provider);
    spike_and_free(allocator, kSpikeBlocks);

    obs::AllocatorSnapshot before = allocator.take_snapshot();
    ASSERT_TRUE(before.reconciles());
    EXPECT_EQ(before.stats.purged_bytes, 0u);
    EXPECT_GT(before.stats.committed_bytes, 10 * kSuperblock);

    const std::size_t released = allocator.purge(/*force=*/true);
    EXPECT_GT(released, 0u);

    obs::AllocatorSnapshot after = allocator.take_snapshot();
    EXPECT_TRUE(after.reconciles());
    // The byte-exact ledger: what purge reported moved, gauge for
    // gauge, from committed to purged; held never changed.
    EXPECT_EQ(after.stats.purged_bytes, released);
    EXPECT_EQ(after.stats.committed_bytes + released,
              before.stats.committed_bytes);
    EXPECT_EQ(after.stats.held_bytes, before.stats.held_bytes);
    // The allocator's committed gauge mirrors the provider's.
    EXPECT_EQ(after.stats.committed_bytes, provider.mapped_bytes());
    EXPECT_GE(allocator.stats().purge_passes.get(), 1u);
    EXPECT_GT(allocator.stats().purged_superblocks.get(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(PurgePass, PurgedSuperblocksReviveIntoService)
{
    NativePolicy::rebind_thread_index(0);
    os::ReservedArenaProvider provider(small_arena());
    NativeHoard allocator(purge_config(), provider);
    spike_and_free(allocator, kSpikeBlocks);
    ASSERT_GT(allocator.purge(/*force=*/true), 0u);
    ASSERT_GT(allocator.stats().purged_bytes.current(), 0u);

    // A second spike must adopt the purged superblocks: memory comes
    // back zero-refaulted and fully usable, the purged gauge drains,
    // and the ledger still reconciles.
    std::vector<void*> blocks;
    for (int i = 0; i < kSpikeBlocks; ++i) {
        void* p = allocator.allocate(kBlock);
        ASSERT_NE(p, nullptr);
        detail::pattern_fill(p, kBlock, static_cast<std::uint64_t>(i));
        blocks.push_back(p);
    }
    EXPECT_GT(allocator.stats().revived_superblocks.get(), 0u);
    for (std::size_t i = 0; i < blocks.size(); ++i)
        EXPECT_TRUE(detail::pattern_check(blocks[i], kBlock, i));

    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_TRUE(snap.reconciles());
    for (void* p : blocks)
        allocator.deallocate(p);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(PurgePass, RssTargetStopsAtTheLine)
{
    NativePolicy::rebind_thread_index(0);
    os::ReservedArenaProvider provider(small_arena());
    Config config = purge_config();
    config.rss_target_bytes = 16 * kSuperblock;  // 1 MiB
    // The target also arms the deallocate-tail cadence; on a slow run
    // (sanitizers) the spike's free loop outlasts the interval and a
    // cadence pass purges toward the target before the assertions
    // below.  Park it — this test is about the explicit purge().
    config.purge_interval_ticks = std::uint64_t{1} << 62;
    NativeHoard allocator(config, provider);
    spike_and_free(allocator, kSpikeBlocks);
    ASSERT_GT(allocator.stats().committed_bytes.current(),
              config.rss_target_bytes);

    allocator.purge();
    // Eligibility re-reads the committed gauge per superblock, so the
    // pass decommits just enough to cross the target and then stops —
    // within one superblock of the line, not all the way to zero.
    const std::size_t committed =
        allocator.stats().committed_bytes.current();
    EXPECT_LE(committed, config.rss_target_bytes);
    EXPECT_GT(committed + 2 * kSuperblock, config.rss_target_bytes);
    EXPECT_TRUE(allocator.take_snapshot().reconciles());
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(PurgePass, AgeEligibilityPurgesRetiredEmpties)
{
    NativePolicy::rebind_thread_index(0);
    os::ReservedArenaProvider provider(small_arena());
    Config config = purge_config();
    config.purge_age_ticks = 1;  // everything retired is instantly old
    NativeHoard allocator(config, provider);
    spike_and_free(allocator, kSpikeBlocks);

    EXPECT_GT(allocator.purge(), 0u);
    EXPECT_GT(allocator.stats().purged_bytes.current(), 0u);
    EXPECT_TRUE(allocator.take_snapshot().reconciles());
}

TEST(PurgePass, DeallocateTailCadenceRunsPasses)
{
    NativePolicy::rebind_thread_index(0);
    os::ReservedArenaProvider provider(small_arena());
    Config config = purge_config();
    config.rss_target_bytes = 1;  // armed, always over target
    config.purge_interval_ticks = 1;
    NativeHoard allocator(config, provider);
    spike_and_free(allocator, kSpikeBlocks);
    const std::size_t before =
        allocator.stats().committed_bytes.current();

    // No explicit purge() call: the free-path cadence (one check per
    // 1024 frees per thread) must elect a pass by itself.
    for (int i = 0; i < 8192; ++i) {
        void* p = allocator.allocate(64);
        ASSERT_NE(p, nullptr);
        allocator.deallocate(p);
    }
    EXPECT_GE(allocator.stats().purge_passes.get(), 1u);
    EXPECT_LT(allocator.stats().committed_bytes.current(), before);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(PurgePass, ConcurrentCadenceRacesRevivalsAndStaysExact)
{
    // The deallocate-tail election is the only automatic purge driver.
    // Here four threads race it: each hands its batches to the next
    // thread, so every free is remote, and batch sizes swing so empties
    // flow to the global heap, get purged, and are revived by another
    // thread's fetch while passes run.
    constexpr int kThreads = 4;
    constexpr int kRounds = 96;
    constexpr std::size_t kSizes[] = {16, 72, 200, 640, 1500, 4000, 9000};
    os::MmapPageProvider provider;
    Config config = purge_config();
    config.heap_count = kThreads;
    config.rss_target_bytes = 1;  // armed, always over target
    config.purge_interval_ticks = 1;
    NativeHoard allocator(config, provider);

    struct Handoff
    {
        std::atomic<std::vector<void*>*> batch{nullptr};
    };
    Handoff boxes[kThreads];
    std::atomic<int> corrupted{0};
    std::vector<std::thread> threads;
    for (int tid = 0; tid < kThreads; ++tid) {
        threads.emplace_back([&, tid] {
            NativePolicy::rebind_thread_index(tid);
            std::vector<void*> storage[2];
            Handoff& out = boxes[tid];
            Handoff& in = boxes[(tid + kThreads - 1) % kThreads];
            for (int round = 0; round < kRounds; ++round) {
                // Every 8th round is a spike; the rest are small.
                const int count = round % 8 == 0 ? 1024 : 128;
                std::vector<void*>& batch = storage[round % 2];
                batch.clear();
                for (int i = 0; i < count; ++i) {
                    const std::size_t bytes =
                        kSizes[static_cast<std::size_t>(i + round) %
                               std::size(kSizes)];
                    void* p = allocator.allocate(bytes);
                    ASSERT_NE(p, nullptr);
                    detail::pattern_fill(p, bytes,
                                         static_cast<std::uint64_t>(i));
                    batch.push_back(p);
                }
                while (out.batch.load(std::memory_order_acquire) !=
                       nullptr)
                    std::this_thread::yield();
                out.batch.store(&batch, std::memory_order_release);

                // The upstream thread's batch of the same round.
                std::vector<void*>* theirs;
                while ((theirs = in.batch.load(
                            std::memory_order_acquire)) == nullptr)
                    std::this_thread::yield();
                for (std::size_t i = 0; i < theirs->size(); ++i) {
                    const std::size_t bytes =
                        kSizes[(i + static_cast<std::size_t>(round)) %
                               std::size(kSizes)];
                    if (!detail::pattern_check((*theirs)[i], bytes, i))
                        corrupted.fetch_add(1, std::memory_order_relaxed);
                    allocator.deallocate((*theirs)[i]);
                }
                in.batch.store(nullptr, std::memory_order_release);
            }
            // Keep this thread's last batch alive until it is freed.
            while (out.batch.load(std::memory_order_acquire) != nullptr)
                std::this_thread::yield();
        });
    }
    for (std::thread& t : threads)
        t.join();

    EXPECT_EQ(corrupted.load(), 0);
    EXPECT_GE(allocator.stats().purge_passes.get(), 2u);
    EXPECT_GE(allocator.stats().revived_superblocks.get(), 1u);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_TRUE(allocator.take_snapshot().reconciles());
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(PurgePass, ProviderRefusalRollsBackCleanly)
{
    NativePolicy::rebind_thread_index(0);
    os::MmapPageProvider inner;
    os::FaultInjectingPageProvider provider(inner);
    NativeHoard allocator(purge_config(), provider);
    spike_and_free(allocator, kSpikeBlocks);
    const std::size_t committed =
        allocator.stats().committed_bytes.current();

    // madvise refuses: the pass must report zero bytes, leave every
    // gauge untouched, and keep the superblocks purgeable later.
    provider.set_fail_purges(true);
    EXPECT_EQ(allocator.purge(/*force=*/true), 0u);
    EXPECT_GT(provider.injected_purge_failures(), 0u);
    EXPECT_EQ(allocator.stats().purged_bytes.current(), 0u);
    EXPECT_EQ(allocator.stats().committed_bytes.current(), committed);
    EXPECT_EQ(allocator.stats().purged_superblocks.get(), 0u);
    EXPECT_TRUE(allocator.take_snapshot().reconciles());

    // The allocator still serves traffic after the failed pass...
    void* p = allocator.allocate(kBlock);
    ASSERT_NE(p, nullptr);
    allocator.deallocate(p);

    // ...and the same superblocks purge once the provider recovers.
    provider.set_fail_purges(false);
    EXPECT_GT(allocator.purge(/*force=*/true), 0u);
    EXPECT_TRUE(allocator.take_snapshot().reconciles());
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(PurgePass, SimReplayIsByteIdentical)
{
    // The purge pass exists in both policies: identical simulated runs
    // must produce identical makespans (CostKind::os_purge is charged
    // per decommit) and identical footprint ledgers.
    auto run_once = [] {
        os::MmapPageProvider provider;
        Config config;
        config.heap_count = 2;
        config.superblock_bytes = kSuperblock;
        SimHoard allocator(config, provider);
        sim::Machine machine(2);
        std::size_t released = 0;
        machine.spawn(0, 0, [&allocator, &released] {
            std::vector<void*> blocks;
            for (int i = 0; i < 2000; ++i) {
                void* p = allocator.allocate(256);
                ASSERT_NE(p, nullptr);
                blocks.push_back(p);
            }
            for (void* p : blocks)
                allocator.deallocate(p);
            released = allocator.purge(/*force=*/true);
        });
        const std::uint64_t makespan = machine.run();
        return std::make_tuple(
            makespan, released,
            allocator.stats().committed_bytes.current(),
            allocator.stats().purged_bytes.current(),
            allocator.stats().purged_superblocks.get());
    };

    const auto first = run_once();
    const auto second = run_once();
    EXPECT_GT(std::get<1>(first), 0u);
    EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace hoard
