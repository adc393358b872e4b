/**
 * @file
 * Tests for the lock-free fast-path machinery: thread-exit magazine
 * flushes (native threads and sim fibers) and the per-heap remote-free
 * queues under genuinely cross-thread alloc/free traffic.  The
 * accounting claims under test: after the owners are gone the
 * cached-bytes gauge is exactly zero, every remote push is eventually
 * drained (remote_frees == remote_drains at quiescence), and snapshots
 * drain-and-attribute so reconciliation stays byte-exact.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/memutil.h"
#include "core/hoard_allocator.h"
#include "obs/gating.h"
#include "policy/native_policy.h"
#include "policy/sim_policy.h"
#include "sim/machine.h"
#include "workloads/runners.h"

namespace hoard {
namespace {

using NativeHoard = HoardAllocator<NativePolicy>;
using SimHoard = HoardAllocator<SimPolicy>;

TEST(MagazineExit, JoinedThreadsLeaveNothingCached)
{
    Config config;
    config.heap_count = 4;
    config.thread_cache_blocks = 32;
    NativeHoard allocator(config);

    std::vector<void*> live(400);
    workloads::native_run(4, [&](int tid) {
        NativePolicy::rebind_thread_index(tid);
        for (int i = 0; i < 100; ++i) {
            void* keep = allocator.allocate(64);
            detail::pattern_fill(keep, 64, static_cast<std::uint64_t>(tid));
            live[static_cast<std::size_t>(tid * 100 + i)] = keep;
            void* churn = allocator.allocate(72);
            allocator.deallocate(churn);  // parks in the magazine
        }
    });

    // Joined: every worker's exit hook has flushed its magazines, and
    // this thread never touched the allocator, so the gauge is exactly
    // zero — not merely bounded.
    EXPECT_EQ(allocator.stats().cached_bytes.current(), 0u);
    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_EQ(snap.cached_bytes, 0u);
    EXPECT_TRUE(snap.reconciles());
    // Classes round requests up, so the live bytes are a lower bound.
    EXPECT_GE(snap.stats.in_use_bytes,
              static_cast<std::uint64_t>(live.size()) * 64u);

    for (void* p : live) {
        EXPECT_TRUE(detail::pattern_check(p, 64, 0) ||
                    detail::pattern_check(p, 64, 1) ||
                    detail::pattern_check(p, 64, 2) ||
                    detail::pattern_check(p, 64, 3));
        allocator.deallocate(p);
    }
    allocator.flush_thread_caches();
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_EQ(allocator.stats().cached_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(MagazineExit, SimFiberExitFlushesMagazines)
{
    Config config;
    config.heap_count = 2;
    config.thread_cache_blocks = 16;
    SimHoard allocator(config);
    sim::Machine machine(2);
    for (int t = 0; t < 2; ++t) {
        machine.spawn(t, t, [&allocator] {
            for (int i = 0; i < 300; ++i) {
                void* p = allocator.allocate(64);
                allocator.deallocate(p);
            }
        });
    }
    machine.run();
    // Fibers exited inside the run: their exit hooks flushed, so no
    // flusher machine is needed for the gauge to read zero.
    EXPECT_GT(allocator.stats().cached_bytes.peak(), 0u);
    EXPECT_EQ(allocator.stats().cached_bytes.current(), 0u);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    sim::Machine checker(1);
    checker.spawn(0, 0,
                  [&allocator] { allocator.check_invariants(); });
    checker.run();
}

/**
 * One spin-loop beat: virtual work under the simulator (so the
 * scheduler preempts at quantum edges) and a scheduler yield on real
 * threads (so a 1-core host does not burn a whole timeslice spinning).
 */
template <typename Policy>
void
spin_pause()
{
    if constexpr (std::is_same_v<Policy, NativePolicy>)
        std::this_thread::yield();
    else
        Policy::work(CostKind::list_op);
}

/**
 * Double-buffered producer/consumer ping-pong: the consumer frees
 * batch k into the producer's heap while the producer carves batch
 * k+1 from it, so frees constantly target a heap whose lock is hot.
 */
template <typename Policy>
void
pingpong_pair(Allocator& allocator, std::atomic<void**>& box, int tid,
              int rounds, int batch_blocks, void** storage)
{
    Policy::rebind_thread_index(tid);
    if (tid % 2 == 0) {
        for (int r = 0; r < rounds; ++r) {
            void** batch = storage + (r % 2) * batch_blocks;
            for (int i = 0; i < batch_blocks; ++i) {
                batch[i] = allocator.allocate(64);
                detail::pattern_fill(batch[i], 64,
                                     static_cast<std::uint64_t>(r));
            }
            while (box.load(std::memory_order_acquire) != nullptr)
                spin_pause<Policy>();
            box.store(batch, std::memory_order_release);
        }
        while (box.load(std::memory_order_acquire) != nullptr)
            spin_pause<Policy>();
    } else {
        for (int r = 0; r < rounds; ++r) {
            void** batch;
            while ((batch = box.load(std::memory_order_acquire)) ==
                   nullptr)
                spin_pause<Policy>();
            for (int i = 0; i < batch_blocks; ++i) {
                EXPECT_TRUE(detail::pattern_check(
                    batch[i], 64, static_cast<std::uint64_t>(r)));
                allocator.deallocate(batch[i]);
            }
            box.store(nullptr, std::memory_order_release);
        }
    }
}

TEST(RemoteFree, NativePingPongBooksStayExact)
{
    Config config;
    config.heap_count = 2;  // thread caching off: frees hit free_block
    NativeHoard allocator(config);
    constexpr int kRounds = 400;
    constexpr int kBatch = 32;
    std::atomic<void**> box{nullptr};
    std::vector<void*> storage(2 * kBatch);
    workloads::native_run(2, [&](int tid) {
        pingpong_pair<NativePolicy>(allocator, box, tid, kRounds,
                                    kBatch, storage.data());
    });

    // take_snapshot's pre-drain settles whatever the last frees left
    // on the remote queues; after it, every push has been drained.
    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_TRUE(snap.reconciles());
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_EQ(allocator.stats().remote_frees.get(),
              allocator.stats().remote_drains.get());
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(RemoteFree, SimPingPongExercisesRemoteQueue)
{
    Config config;
    config.heap_count = 4;
    SimHoard allocator(config);
    constexpr int kRounds = 60;
    constexpr int kBatch = 32;
    constexpr int kPairs = 2;
    std::vector<std::atomic<void**>> boxes(kPairs);
    for (auto& b : boxes)
        b.store(nullptr);
    std::vector<std::vector<void*>> storage(
        kPairs, std::vector<void*>(2 * kBatch));

    sim::Machine machine(2 * kPairs);
    for (int t = 0; t < 2 * kPairs; ++t) {
        machine.spawn(t, t, [&, t] {
            auto pair = static_cast<std::size_t>(t / 2);
            pingpong_pair<SimPolicy>(allocator, boxes[pair], t, kRounds,
                                     kBatch, storage[pair].data());
        });
    }
    machine.run();

    // Virtual time preempts producers inside their heap-lock critical
    // sections deterministically, so the contended path is guaranteed
    // to have been taken — this is the sim half's extra assertion over
    // the native run.
    EXPECT_GT(allocator.stats().remote_frees.get(), 0u);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);

    sim::Machine checker(1);
    checker.spawn(0, 0, [&allocator] {
        obs::AllocatorSnapshot snap = allocator.take_snapshot();
        EXPECT_TRUE(snap.reconciles());
        EXPECT_EQ(allocator.stats().remote_frees.get(),
                  allocator.stats().remote_drains.get());
        allocator.check_invariants();
    });
    checker.run();
}

TEST(RemoteFree, MagazinesAndRemoteQueuesCompose)
{
    // Both extensions on: spills from a full magazine return blocks
    // through the bulk path, which remote-pushes when the owner is
    // busy; the exit hooks then flush what is left.
    Config config;
    config.heap_count = 2;
    config.thread_cache_blocks = 16;
    NativeHoard allocator(config);
    constexpr int kRounds = 300;
    constexpr int kBatch = 32;
    std::atomic<void**> box{nullptr};
    std::vector<void*> storage(2 * kBatch);
    workloads::native_run(2, [&](int tid) {
        pingpong_pair<NativePolicy>(allocator, box, tid, kRounds,
                                    kBatch, storage.data());
    });

    EXPECT_EQ(allocator.stats().cached_bytes.current(), 0u);
    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_TRUE(snap.reconciles());
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

/// Outbox tests: thread index 0 allocates from heap 1 ("A"), index 1
/// from heap 2 ("B"), with the shipped 16-block magazines, so batches
/// of 8 and an outbox that sends its 31 blocks before a 32nd joins.
Config
two_heaps()
{
    Config config;
    config.heap_count = 2;
    return config;
}

constexpr std::uint64_t kOutboxBlocks = 32;  // 2 * thread_cache_blocks
constexpr std::uint64_t kGuardPushes =
    HeapBase<NativePolicy>::kUndrainedChainPushes;

TEST(Outbox, ForeignFreesGoHomeAndNeverServeTheFreer)
{
    NativeHoard allocator(two_heaps());
    constexpr std::size_t kBlocks = 100;
    NativePolicy::rebind_thread_index(0);  // this thread is A
    std::vector<void*> mine(kBlocks);
    for (void*& p : mine)
        p = allocator.allocate(64);
    const std::set<void*> a_blocks(mine.begin(), mine.end());

    const std::uint64_t drains = allocator.stats().remote_drains.get();
    std::vector<void*> theirs(kBlocks);
    std::thread([&] {
        NativePolicy::rebind_thread_index(1);
        for (void* p : mine)
            allocator.deallocate(p);
        for (void*& p : theirs)
            p = allocator.allocate(64);
    }).join();
    for (void* p : theirs)
        EXPECT_EQ(a_blocks.count(p), 0u) << "B was served one of A's blocks";
    // Four chains wait on A's queue, under the guard's count: nothing
    // has settled them yet.
    EXPECT_EQ(allocator.stats().remote_drains.get(), drains);

    // A's next refill takes its blocks back.
    const std::uint64_t refills = allocator.stats().batch_refills.get();
    std::vector<void*> more;
    while (allocator.stats().batch_refills.get() == refills)
        more.push_back(allocator.allocate(64));
    EXPECT_EQ(allocator.stats().remote_drains.get() - drains, kBlocks);

    for (void* p : more)
        allocator.deallocate(p);
    for (void* p : theirs)
        allocator.deallocate(p);
    allocator.flush_thread_caches();
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_EQ(allocator.stats().remote_frees.get(),
              allocator.stats().remote_drains.get());
    EXPECT_TRUE(allocator.take_snapshot().reconciles());
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(Outbox, SnapshotWithAPartialOutboxReconciles)
{
    NativeHoard allocator(two_heaps());
    constexpr std::size_t kBlocks = 50;  // one chain sent, 19 held
    std::vector<void*> gifts(kBlocks);
    std::atomic<int> parked{0};
    std::atomic<bool> handed{false}, go{false};
    auto park = [&] {
        parked.fetch_add(1);
        while (!go.load())
            std::this_thread::yield();
    };
    std::thread a([&] {
        NativePolicy::rebind_thread_index(0);
        for (std::size_t i = 0; i < kBlocks; ++i)
            gifts[i] = allocator.allocate(16 + 24 * (i % 20));
        handed.store(true);
        park();
    });
    std::thread b([&] {
        NativePolicy::rebind_thread_index(1);
        while (!handed.load())
            std::this_thread::yield();
        for (void* p : gifts)
            allocator.deallocate(p);
        park();
    });
    while (parked.load() != 2)
        std::this_thread::yield();
    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    go.store(true);
    a.join();
    b.join();

    EXPECT_TRUE(snap.reconciles());
    EXPECT_GE(snap.cached_bytes, (kBlocks - kOutboxBlocks) * 16u);
    EXPECT_EQ(snap.stats.remote_frees, snap.stats.remote_drains);
    EXPECT_EQ(snap.stats.in_use_bytes, 0u);
}

TEST(Outbox, ExitWithAPartialOutboxLeavesNothing)
{
    NativeHoard allocator(two_heaps());
    std::vector<void*> gifts(20);
    std::thread([&] {
        NativePolicy::rebind_thread_index(0);
        for (void*& p : gifts)
            p = allocator.allocate(96);
    }).join();
    std::thread([&] {
        NativePolicy::rebind_thread_index(1);
        for (void* p : gifts)
            allocator.deallocate(p);
    }).join();

    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_EQ(allocator.stats().cached_bytes.current(), 0u);
    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_TRUE(snap.reconciles());
    EXPECT_EQ(snap.cached_bytes, 0u);
    EXPECT_EQ(allocator.stats().remote_frees.get(),
              allocator.stats().remote_drains.get());
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(Outbox, AnIdleOwnerStrandsAtMostTheGuardsBound)
{
    NativeHoard allocator(two_heaps());
    constexpr std::uint64_t kBlocks = 10000;
    std::vector<void*> gifts(kBlocks);
    std::thread([&] {
        NativePolicy::rebind_thread_index(0);
        for (void*& p : gifts)
            p = allocator.allocate(64);
    }).join();
    // No thread is left on heap 1, so nothing refills there.
    const std::uint64_t drains = allocator.stats().remote_drains.get();
    std::thread([&] {
        NativePolicy::rebind_thread_index(1);
        for (void* p : gifts)
            allocator.deallocate(p);
    }).join();

    // The freer settled the queue itself each time its pushes found it
    // undrained kGuardPushes times in a row, so at most that many
    // chains wait; no snapshot or release has drained anything yet.
    EXPECT_GE(allocator.stats().remote_drains.get() - drains,
              kBlocks - kGuardPushes * kOutboxBlocks);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_EQ(allocator.stats().cached_bytes.current(), 0u);
    EXPECT_TRUE(allocator.take_snapshot().reconciles());
    EXPECT_EQ(allocator.stats().remote_frees.get(),
              allocator.stats().remote_drains.get());
    EXPECT_TRUE(allocator.check_invariants());
}

TEST(Outbox, EachFreeRecordsOnePath)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP() << "observability compiled out (HOARD_OBS=OFF)";
    Config config = two_heaps();
    config.latency_histograms = true;
    config.latency_sample_period = 1;  // exact mode
    NativeHoard allocator(config);
    NativePolicy::rebind_thread_index(0);
    std::vector<void*> gifts(kOutboxBlocks + 8);
    for (void*& p : gifts)
        p = allocator.allocate(64);
    std::thread([&] {
        NativePolicy::rebind_thread_index(1);
        for (void* p : gifts)
            allocator.deallocate(p);
    }).join();

    // The 32nd free sends the other 31 home before it joins; every
    // other free only links.  The exit flush is no operation of its
    // own and records nothing.
    using obs::LatencyPath;
    const obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_EQ(snap.latency.path(LatencyPath::free_remote_push).count(), 1u);
    EXPECT_EQ(snap.latency.path(LatencyPath::free_fast).count(),
              gifts.size() - 1);
    EXPECT_EQ(snap.stats.remote_frees, gifts.size());
    EXPECT_TRUE(snap.reconciles());
}

TEST(Outbox, ForeignDoubleFreeIsReportedNotLinkedTwice)
{
    Config config = two_heaps();
    config.on_bad_free = Config::BadFreePolicy::warn;
    NativeHoard allocator(config);
    NativePolicy::rebind_thread_index(0);
    // The twice-freed block is the one whose free sent the other 31
    // home: the probe must see the outbox it heads after that send.
    std::vector<void*> gifts(kOutboxBlocks);
    for (void*& p : gifts)
        p = allocator.allocate(64);
    std::thread([&] {
        NativePolicy::rebind_thread_index(1);
        for (void* p : gifts)
            allocator.deallocate(p);
        allocator.deallocate(gifts.back());
    }).join();

    EXPECT_EQ(allocator.stats().bad_free_double.get(), 1u);
    EXPECT_EQ(allocator.stats().frees.get(), kOutboxBlocks);
    allocator.flush_thread_caches();
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    // A block linked twice would leave its superblock's used count one
    // below the truth, which check_invariants catches.
    EXPECT_TRUE(allocator.check_invariants());
    EXPECT_TRUE(allocator.take_snapshot().reconciles());
}

}  // namespace
}  // namespace hoard
