/**
 * @file
 * Unit tests for the background engine: the BackgroundEngine lifecycle
 * — arm/disarm idempotence, the idle-wakeup cadence, kick(), and the
 * sim world's inert-engine / worker-fiber analogue — and the refill
 * job's demand gate.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

#include "core/hoard_allocator.h"
#include "policy/native_policy.h"
#include "policy/sim_policy.h"
#include "sim/machine.h"

namespace hoard {
namespace {

using NativeHoard = HoardAllocator<NativePolicy>;
using SimHoard = HoardAllocator<SimPolicy>;

/** Polls @p done every millisecond for up to ~5 s. */
template <typename Predicate>
bool
eventually(Predicate done)
{
    for (int i = 0; i < 5000; ++i) {
        if (done())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
}

TEST(BackgroundEngine, DisarmedStartIsANoop)
{
    Config config;  // background_engine defaults to false
    NativeHoard allocator(config);
    EXPECT_FALSE(allocator.background_armed());
    allocator.start_background();
    EXPECT_FALSE(allocator.background_running());
    allocator.stop_background();  // and stop is safe too
}

TEST(BackgroundEngine, StartStopIdempotent)
{
    Config config;
    config.background_engine = true;
    config.bg_interval_ticks = 1000000;  // 1 ms
    NativeHoard allocator(config);
    EXPECT_TRUE(allocator.background_armed());
    EXPECT_FALSE(allocator.background_running());

    allocator.start_background();
    EXPECT_TRUE(allocator.background_running());
    allocator.start_background();  // no second worker
    EXPECT_TRUE(allocator.background_running());

    allocator.stop_background();
    EXPECT_FALSE(allocator.background_running());
    allocator.stop_background();  // idempotent
    EXPECT_FALSE(allocator.background_running());

    // Restart after a stop works.
    allocator.start_background();
    EXPECT_TRUE(allocator.background_running());
    allocator.stop_background();
}

TEST(BackgroundEngine, IdleWakeupCadence)
{
    Config config;
    config.background_engine = true;
    config.bg_interval_ticks = 1000000;  // 1 ms between passes
    NativeHoard allocator(config);
    allocator.start_background();

    // The worker passes on its own cadence with no foreground traffic
    // at all — the interval wait, not a kick, drives it.
    EXPECT_TRUE(
        eventually([&] { return allocator.background_passes() >= 3; }));
    allocator.stop_background();

    const std::uint64_t settled = allocator.background_passes();
    EXPECT_GE(settled, 3u);
    // Engine and allocator count the same passes.
    EXPECT_EQ(allocator.stats().bg_wakeups.get(), settled);
}

TEST(BackgroundEngine, KickForcesAPass)
{
    Config config;
    config.background_engine = true;
    // An interval no test run reaches: only kicks advance the worker
    // past its first pass.
    config.bg_interval_ticks = ~std::uint64_t{0} / 4;
    NativeHoard allocator(config);
    allocator.start_background();

    // One pass runs at startup before the first wait.
    ASSERT_TRUE(
        eventually([&] { return allocator.background_passes() >= 1; }));
    const std::uint64_t before = allocator.background_passes();
    allocator.kick_background();
    EXPECT_TRUE(eventually(
        [&] { return allocator.background_passes() > before; }));
    allocator.stop_background();
}

TEST(BackgroundEngine, SimEngineIsInertAndFiberStepsInline)
{
    Config config;
    config.background_engine = true;
    SimHoard allocator(config);
    EXPECT_TRUE(allocator.background_armed());

    // No native thread exists under SimPolicy: start is a no-op.
    allocator.start_background();
    EXPECT_FALSE(allocator.background_running());

    // The deterministic analogue: a fiber runs bg_step() inline.
    sim::Machine machine(1);
    machine.spawn(0, 0, [&allocator] {
        SimPolicy::rebind_thread_index(0);
        allocator.bg_worker_sim(3);
    });
    machine.run();
    EXPECT_EQ(allocator.stats().bg_wakeups.get(), 3u);
}

/** Superblocks the global heap's bin holds for @p cls. */
std::uint64_t
global_superblocks(const obs::AllocatorSnapshot& snap, int cls)
{
    for (const obs::ClassSnapshot& cs : snap.heaps[0].classes) {
        if (cs.size_class == cls)
            return cs.superblocks;
    }
    return 0;
}

TEST(BackgroundRefill, OneMissParksOneSuperblockThenIdles)
{
    Config config;
    config.background_engine = true;
    SimHoard allocator(config);
    const int cls = allocator.size_classes().class_for(64);

    sim::Machine machine(1);
    machine.spawn(0, 0, [&] {
        SimPolicy::rebind_thread_index(0);
        // A fresh allocator's first allocation misses the empty global
        // bin: one fetch_misses bump, then a fresh map.
        void* p = allocator.allocate(64);
        ASSERT_NE(p, nullptr);
        ASSERT_EQ(allocator.stats().global_bin_misses.get(), 1u);
        EXPECT_EQ(global_superblocks(allocator.take_snapshot(), cls), 0u);

        // One pass answers the one miss with one parked superblock.
        allocator.bg_worker_sim(1);
        EXPECT_EQ(allocator.stats().bg_refills.get(), 1u);
        EXPECT_EQ(global_superblocks(allocator.take_snapshot(), cls), 1u);

        // No new miss, no new demand: the next pass parks nothing.
        allocator.bg_worker_sim(1);
        EXPECT_EQ(allocator.stats().bg_wakeups.get(), 2u);
        EXPECT_EQ(allocator.stats().bg_refills.get(), 1u);
        EXPECT_EQ(global_superblocks(allocator.take_snapshot(), cls), 1u);
        allocator.deallocate(p);
    });
    machine.run();
}

}  // namespace
}  // namespace hoard
