/** @file Unit tests for counters, gauges, and the stats block. */

#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace hoard {
namespace detail {
namespace {

TEST(Counter, AddsAndResets)
{
    Counter c;
    EXPECT_EQ(c.get(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.get(), 42u);
    c.reset();
    EXPECT_EQ(c.get(), 0u);
}

TEST(Gauge, TracksLevelAndPeak)
{
    Gauge g;
    g.add(100);
    EXPECT_EQ(g.current(), 100u);
    EXPECT_EQ(g.peak(), 100u);
    g.sub(60);
    EXPECT_EQ(g.current(), 40u);
    EXPECT_EQ(g.peak(), 100u);
    g.add(30);
    EXPECT_EQ(g.current(), 70u);
    EXPECT_EQ(g.peak(), 100u);
    g.add(100);
    EXPECT_EQ(g.peak(), 170u);
}

TEST(Gauge, SubToExactlyZeroIsBalanced)
{
    Gauge g;
    g.add(64);
    g.sub(64);
    EXPECT_EQ(g.current(), 0u);
    EXPECT_EQ(g.peak(), 64u);
}

#ifndef NDEBUG
TEST(GaugeDeathTest, SubBelowZeroIsACallerBug)
{
    Gauge g;
    g.add(10);
    EXPECT_DEATH(g.sub(11), "invariant failed");
}

TEST(GaugeDeathTest, SubOnEmptyGaugeIsACallerBug)
{
    Gauge g;
    EXPECT_DEATH(g.sub(1), "invariant failed");
}
#endif

TEST(Gauge, ResetClearsLevelAndPeak)
{
    Gauge g;
    g.add(100);
    g.sub(40);
    g.reset();
    EXPECT_EQ(g.current(), 0u);
    EXPECT_EQ(g.peak(), 0u);
    g.add(5);
    EXPECT_EQ(g.peak(), 5u);
}

TEST(Gauge, PeakIsSupremumOfRacingLevels)
{
    // Each thread repeatedly holds a distinct level live; the CAS-max
    // loop must record at least the largest single contribution and at
    // most the sum of all concurrent ones.
    Gauge g;
    std::vector<std::thread> threads;
    for (int t = 1; t <= 4; ++t) {
        threads.emplace_back([&g, t] {
            for (int i = 0; i < 10000; ++i) {
                g.add(static_cast<std::uint64_t>(t));
                g.sub(static_cast<std::uint64_t>(t));
            }
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(g.current(), 0u);
    EXPECT_GE(g.peak(), 4u);
    EXPECT_LE(g.peak(), 10u);  // 1+2+3+4
}

TEST(Gauge, PeakUnderConcurrency)
{
    Gauge g;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&g] {
            for (int i = 0; i < 10000; ++i) {
                g.add(3);
                g.sub(3);
            }
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(g.current(), 0u);
    EXPECT_GE(g.peak(), 3u);
    EXPECT_LE(g.peak(), 12u);
}

TEST(ShardedCounter, ThreadsFoldExactly)
{
    constexpr int kThreads = 8;
    constexpr int kAdds = 50000;
    ShardedCounter c;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c, t] {
            for (int i = 0; i < kAdds; ++i)
                c.add(static_cast<std::uint64_t>(1 + t % 2));  // odd: 2
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(c.get(), std::uint64_t{kAdds} * (kThreads + kThreads / 2));
    c.reset();
    EXPECT_EQ(c.get(), 0u);
}

TEST(ShardedGauge, SingleThreadPeakIsExact)
{
    // A random walk with steps up to 4 KiB crosses the flush threshold
    // many times in both directions; one thread's peak stays exact.
    ShardedGauge g;
    Rng rng(7);
    std::int64_t level = 0;
    std::int64_t peak = 0;
    for (int i = 0; i < 200000; ++i) {
        const auto step = static_cast<std::int64_t>(rng.below(4096) + 1);
        if (rng.below(2) == 0 || level < step) {
            g.add(static_cast<std::uint64_t>(step));
            level += step;
        } else {
            g.sub(static_cast<std::uint64_t>(step));
            level -= step;
        }
        peak = std::max(peak, level);
        if (i % 997 == 0) {
            ASSERT_EQ(g.current(), static_cast<std::uint64_t>(level));
            ASSERT_EQ(g.peak(), static_cast<std::uint64_t>(peak));
        }
    }
    EXPECT_EQ(g.current(), static_cast<std::uint64_t>(level));
    EXPECT_EQ(g.peak(), static_cast<std::uint64_t>(peak));
}

TEST(ShardedGauge, ThreadsFoldExactlyAfterJoin)
{
    // Blocks allocated on one thread and freed on another: every shard
    // ends with a nonzero pending delta, and the fold is still exact.
    constexpr int kThreads = 6;
    constexpr int kOps = 40000;
    ShardedGauge g;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&g, t] {
            Rng rng(static_cast<std::uint64_t>(100 + t));
            for (int i = 0; i < kOps; ++i) {
                const std::uint64_t n = rng.below(512) + 16;
                g.add(n);
                if (t % 2 == 1)
                    g.sub(n);  // odd threads free what they allocate
            }
        });
    }
    for (auto& t : threads)
        t.join();
    const std::uint64_t live = g.current();
    // Even threads' blocks are now freed elsewhere (this thread).
    std::uint64_t expect = 0;
    for (int t = 0; t < kThreads; t += 2) {
        Rng rng(static_cast<std::uint64_t>(100 + t));
        for (int i = 0; i < kOps; ++i)
            expect += rng.below(512) + 16;
    }
    EXPECT_EQ(live, expect);
    g.sub(expect);
    EXPECT_EQ(g.current(), 0u);
}

TEST(ShardedGauge, ConcurrentPeakWithinDocumentedBound)
{
    // Every thread ramps up to kHold bytes in small steps, waits until
    // all of them hold it, then frees it all: the true peak is exactly
    // kThreads * kHold, and the documented bound is one flush threshold
    // per active shard, plus the step each thread may have in flight.
    constexpr int kThreads = 4;
    constexpr std::uint64_t kHold = 1 << 20;
    constexpr std::uint64_t kStep = 48;
    for (int round = 0; round < 20; ++round) {
        ShardedGauge g;
        std::barrier sync(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&] {
                std::uint64_t held = 0;
                while (held + kStep <= kHold) {
                    g.add(kStep);
                    held += kStep;
                }
                g.add(kHold - held);
                sync.arrive_and_wait();
                for (held = kHold; held >= kStep; held -= kStep)
                    g.sub(kStep);
                g.sub(held);
            });
        }
        for (auto& t : threads)
            t.join();
        const auto truth = static_cast<std::int64_t>(kThreads * kHold);
        const std::int64_t slack =
            kThreads * (ShardedGauge::kFlushBytes + std::int64_t{kStep});
        const auto peak = static_cast<std::int64_t>(g.peak());
        EXPECT_GT(peak, truth - slack);
        EXPECT_LT(peak, truth + slack);
        EXPECT_EQ(g.current(), 0u);
    }
}

TEST(ShardedGauge, SetAndResetClearEveryShard)
{
    ShardedGauge g;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&g] { g.add(1000); });  // pending, unflushed
    for (auto& t : threads)
        t.join();
    ASSERT_EQ(g.current(), 4000u);
    g.set(123);
    EXPECT_EQ(g.current(), 123u);
    EXPECT_EQ(g.peak(), 4000u);  // peak ratchets, never drops on set
    g.add(10);
    EXPECT_EQ(g.current(), 133u);
    g.reset();
    EXPECT_EQ(g.current(), 0u);
    EXPECT_EQ(g.peak(), 0u);
    g.add(5);
    EXPECT_EQ(g.peak(), 5u);

    ShardedCounter c;
    std::thread([&c] { c.add(7); }).join();
    c.add(1);
    c.reset();
    EXPECT_EQ(c.get(), 0u);
}

TEST(ShardedStats, ThreadsUpdateDistinctCacheLines)
{
    const ShardedCounter c;
    const ShardedGauge g;
    auto line = [](const void* p) {
        return reinterpret_cast<std::uintptr_t>(p) / kCacheLineBytes;
    };
    // Both threads live at once: an exited thread's shard is recycled.
    const void* mine[2][2] = {};
    std::barrier both(2);
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            mine[t][0] = c.my_shard();
            mine[t][1] = g.my_shard();
            both.arrive_and_wait();
        });
    }
    for (auto& t : threads)
        t.join();
    for (int k = 0; k < 2; ++k) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(mine[0][k]) %
                      kCacheLineBytes,
                  0u);
        EXPECT_NE(line(mine[0][k]), line(mine[1][k]));
    }
}

TEST(ShardedStats, OwnedShardsAreRecycled)
{
    // Threads created and joined one at a time: each must own a shard
    // no live thread writes (so never the overflow shard, and never the
    // main thread's), which after kStatShards - 1 threads is possible
    // only if exited threads gave theirs back.  A new owner carries on
    // from the values its predecessor left, so the sums stay exact.
    ShardedCounter c;
    ShardedGauge g;
    const unsigned main_shard = stat_shard();
    constexpr int kThreads = 4 * kStatShards;
    std::vector<unsigned> shards(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        std::thread([&, t] {
            shards[t] = stat_shard();
            c.add(static_cast<std::uint64_t>(t));
            g.add(std::uint64_t{1000} + static_cast<std::uint64_t>(t));
            g.sub(1000);
        }).join();
    }
    std::uint64_t sum = 0;
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_LT(shards[t], kOverflowShard) << "thread " << t;
        EXPECT_NE(shards[t], main_shard) << "thread " << t;
        sum += static_cast<std::uint64_t>(t);
    }
    EXPECT_EQ(c.get(), sum);
    EXPECT_EQ(g.current(), sum);
}

TEST(ShardedStats, ExactWithMoreLiveThreadsThanOwnedShards)
{
    // More live threads than owned shards: the latecomers share the
    // overflow shard with atomic updates, next to owners updating
    // theirs with plain stores, and every sum stays exact.
    constexpr int kThreads = kStatShards + 16;
    constexpr int kOps = 2000;
    ShardedCounter c;
    ShardedGauge g;
    std::barrier all_live(kThreads);
    std::atomic<int> overflow{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            if (stat_shard() == kOverflowShard)
                overflow.fetch_add(1, std::memory_order_relaxed);
            all_live.arrive_and_wait();
            const auto n = static_cast<std::uint64_t>(t % 7 + 1);
            for (int i = 0; i < kOps; ++i) {
                c.add(n);
                g.add(64 * n);
                if (i % 2 == 1)
                    g.sub(64 * n);
            }
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_GT(overflow.load(), 0);
    std::uint64_t adds = 0;
    for (int t = 0; t < kThreads; ++t)
        adds += static_cast<std::uint64_t>(t % 7 + 1);
    EXPECT_EQ(c.get(), adds * kOps);
    EXPECT_EQ(g.current(), 64 * adds * (kOps / 2));
}

TEST(AllocatorStats, FragmentationDefinition)
{
    AllocatorStats stats;
    EXPECT_DOUBLE_EQ(stats.fragmentation(), 1.0);  // no data yet
    stats.in_use_bytes.add(100);
    stats.held_bytes.add(150);
    EXPECT_DOUBLE_EQ(stats.fragmentation(), 1.5);
    // Fragmentation uses peaks, not current levels.
    stats.in_use_bytes.sub(100);
    stats.held_bytes.sub(150);
    EXPECT_DOUBLE_EQ(stats.fragmentation(), 1.5);
}

}  // namespace
}  // namespace detail
}  // namespace hoard
