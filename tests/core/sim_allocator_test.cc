/**
 * @file
 * HoardAllocator<SimPolicy> unit tests: the allocator running on the
 * virtual-time machine — correctness of the simulated instantiation,
 * determinism, and the cost-model interactions the speedup figures
 * depend on.
 */

#include <gtest/gtest.h>

#include <vector>

#include "baselines/factory.h"
#include "common/memutil.h"
#include "common/rng.h"
#include "core/hoard_allocator.h"
#include "policy/sim_policy.h"
#include "sim/machine.h"
#include "sim/virtual_event.h"

namespace hoard {
namespace {

using SimHoard = HoardAllocator<SimPolicy>;

Config
sim_config(int heaps)
{
    Config config = hoard::sim_config();
    config.heap_count = heaps;
    return config;
}

TEST(SimAllocator, BasicRoundTripUnderMachine)
{
    SimHoard allocator(sim_config(2));
    sim::Machine machine(2);
    machine.spawn(0, 0, [&allocator] {
        std::vector<void*> blocks;
        for (int i = 0; i < 500; ++i) {
            void* p = allocator.allocate(64);
            ASSERT_NE(p, nullptr);
            detail::pattern_fill(p, 64, 1);
            blocks.push_back(p);
        }
        for (void* p : blocks) {
            EXPECT_TRUE(detail::pattern_check(p, 64, 1));
            allocator.deallocate(p);
        }
    });
    std::uint64_t makespan = machine.run();
    EXPECT_GT(makespan, 0u);
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
}

TEST(SimAllocator, MakespanDeterministicAcrossRuns)
{
    auto run_once = [] {
        SimHoard allocator(sim_config(4));
        sim::Machine machine(4);
        for (int t = 0; t < 4; ++t) {
            machine.spawn(t, t, [&allocator] {
                std::vector<void*> blocks;
                for (int i = 0; i < 200; ++i)
                    blocks.push_back(allocator.allocate(48));
                for (void* p : blocks)
                    allocator.deallocate(p);
            });
        }
        return machine.run();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(SimAllocator, SeparateHeapsDoNotContend)
{
    SimHoard allocator(sim_config(2));
    sim::Machine machine(2);
    for (int t = 0; t < 2; ++t) {
        machine.spawn(t, t, [&allocator] {
            for (int i = 0; i < 300; ++i) {
                void* p = allocator.allocate(32);
                allocator.deallocate(p);
            }
        });
    }
    machine.run();
    EXPECT_EQ(machine.lock_contentions(), 0u)
        << "threads on distinct heaps must not contend";
}

TEST(SimAllocator, SharedHeapContends)
{
    // Both simulated threads carry the same logical tid, forcing them
    // onto one heap: the heap mutex must show contention.
    SimHoard allocator(sim_config(4));
    sim::Machine machine(2);
    for (int t = 0; t < 2; ++t) {
        machine.spawn(t, /*logical_tid=*/0, [&allocator] {
            for (int i = 0; i < 300; ++i) {
                void* p = allocator.allocate(32);
                allocator.deallocate(p);
            }
        });
    }
    machine.run();
    EXPECT_GT(machine.lock_contentions(), 0u);
}

TEST(SimAllocator, CrossThreadFreeCostsRemoteTransfers)
{
    SimHoard allocator(sim_config(2));
    std::vector<void*> blocks;

    sim::Machine machine(2);
    sim::VirtualEvent handoff;
    machine.spawn(0, 0, [&] {
        for (int i = 0; i < 100; ++i) {
            void* p = allocator.allocate(64);
            SimPolicy::touch(p, 64, true);
            blocks.push_back(p);
        }
        handoff.signal();
    });
    machine.spawn(1, 1, [&] {
        handoff.wait();
        for (void* p : blocks)
            allocator.deallocate(p);
    });
    machine.run();
    EXPECT_GT(machine.cache().remote_transfers(), 50u)
        << "freeing another proc's blocks must move their lines";
}

TEST(SimAllocator, InvariantsHoldAfterSimulatedChurn)
{
    SimHoard allocator(sim_config(4));
    sim::Machine machine(4);
    for (int t = 0; t < 4; ++t) {
        machine.spawn(t, t, [&allocator, t] {
            detail::Rng rng(static_cast<std::uint64_t>(t) + 1);
            std::vector<void*> live;
            for (int op = 0; op < 2000; ++op) {
                if (live.size() < 100 || rng.chance(0.5)) {
                    live.push_back(
                        allocator.allocate(rng.range(1, 700)));
                } else {
                    auto idx = static_cast<std::size_t>(
                        rng.below(live.size()));
                    allocator.deallocate(live[idx]);
                    live[idx] = live.back();
                    live.pop_back();
                }
            }
            for (void* p : live)
                allocator.deallocate(p);
        });
    }
    machine.run();
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    // check_invariants locks VirtualMutexes, so it must run inside a
    // machine.
    sim::Machine checker(1);
    checker.spawn(0, 0,
                  [&allocator] { allocator.check_invariants(); });
    checker.run();
}

TEST(SimAllocator, AllBaselinesRunUnderSim)
{
    for (auto kind : baselines::kAllKinds) {
        Config config = sim_config(4);
        auto allocator =
            baselines::make_allocator<SimPolicy>(kind, config);
        sim::Machine machine(4);
        for (int t = 0; t < 4; ++t) {
            machine.spawn(t, t, [&allocator] {
                std::vector<void*> blocks;
                for (int i = 0; i < 150; ++i)
                    blocks.push_back(allocator->allocate(
                        static_cast<std::size_t>(i % 500) + 1));
                for (void* p : blocks)
                    allocator->deallocate(p);
            });
        }
        std::uint64_t makespan = machine.run();
        EXPECT_GT(makespan, 0u) << baselines::to_string(kind);
        EXPECT_EQ(allocator->stats().in_use_bytes.current(), 0u)
            << baselines::to_string(kind);
    }
}

TEST(SimAllocator, ThreadCacheWorksUnderSim)
{
    Config config = sim_config(2);
    config.thread_cache_blocks = 16;
    SimHoard allocator(config);
    sim::Machine machine(2);
    for (int t = 0; t < 2; ++t) {
        machine.spawn(t, t, [&allocator] {
            for (int i = 0; i < 400; ++i) {
                void* p = allocator.allocate(64);
                allocator.deallocate(p);
            }
        });
    }
    machine.run();
    EXPECT_GT(allocator.stats().cached_bytes.peak(), 0u);
    sim::Machine flusher(1);
    flusher.spawn(0, 0,
                  [&allocator] { allocator.flush_thread_caches(); });
    flusher.run();
    EXPECT_EQ(allocator.stats().cached_bytes.current(), 0u);
}

TEST(SimAllocator, FibersSharingAShardKeepExactCountsAndPeak)
{
    // Every fiber runs on this OS thread and so updates its stat shard
    // with plain stores; a fiber never switches inside an update, so
    // the counts and the peak stay exact.  Phase 1 churns one block at
    // a time; phase 2 holds every fiber's blocks at once, so the level
    // peaks exactly at the sum of the held blocks' sizes.
    constexpr int kFibers = 8;
    constexpr int kChurn = 300;
    constexpr int kHold = 200;
    SimHoard allocator{Config{}};  // magazines on, like the shipped shim
    sim::Machine machine(4);
    sim::VirtualEvent held;
    int holding = 0;
    std::uint64_t held_bytes = 0;
    for (int t = 0; t < kFibers; ++t) {
        machine.spawn(t % 4, t, [&, t] {
            for (int i = 0; i < kChurn; ++i)
                allocator.deallocate(allocator.allocate(
                    static_cast<std::size_t>(16 + (i * 7 + t) % 200)));
            std::vector<void*> blocks;
            for (int i = 0; i < kHold; ++i) {
                void* p = allocator.allocate(
                    static_cast<std::size_t>(24 + (i * 13 + t) % 900));
                held_bytes += allocator.usable_size(p);
                blocks.push_back(p);
            }
            if (++holding == kFibers)
                held.signal();
            else
                held.wait();
            for (void* p : blocks)
                allocator.deallocate(p);
        });
    }
    machine.run();
    const auto& stats = allocator.stats();
    const auto ops = static_cast<std::uint64_t>(kFibers) * (kChurn + kHold);
    EXPECT_EQ(stats.allocs.get(), ops);
    EXPECT_EQ(stats.frees.get(), ops);
    EXPECT_EQ(stats.in_use_bytes.current(), 0u);
    EXPECT_EQ(stats.in_use_bytes.peak(), held_bytes);
}

}  // namespace
}  // namespace hoard
