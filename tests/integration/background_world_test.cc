/**
 * @file
 * The background engine in both execution worlds.
 *
 * Native: a live worker thread refills bins *while* producer/consumer
 * pairs hammer the allocator — then the quiesced snapshot must
 * reconcile byte-exactly and every remote push must have been drained.
 * The engine must never perturb the accounting, only move where the
 * work happens.
 *
 * Sim: the worker is a deterministic fiber (bg_worker_sim) scheduled
 * by the machine like any workload fiber; running the identical
 * configuration twice must produce byte-identical results — makespan,
 * every counter, every gauge — or replay debugging is dead.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/hoard_allocator.h"
#include "os/reserved_arena.h"
#include "policy/native_policy.h"
#include "policy/sim_policy.h"
#include "sim/machine.h"
#include "workloads/runners.h"

namespace hoard {
namespace {

using NativeHoard = HoardAllocator<NativePolicy>;
using SimHoard = HoardAllocator<SimPolicy>;

/** One producer/consumer handoff slot. */
struct Mailbox
{
    std::atomic<void**> batch{nullptr};
};

constexpr int kRounds = 200;
constexpr int kBatch = 32;
constexpr std::size_t kBytes = 64;

/** Producer fiber/thread body: fills batches, hands them over. */
template <typename Policy>
void
produce(Allocator& allocator, Mailbox& box, void** storage, int tid,
        int rounds)
{
    Policy::rebind_thread_index(tid);
    for (int round = 0; round < rounds; ++round) {
        void** batch = storage + (round % 2) * kBatch;
        for (int i = 0; i < kBatch; ++i)
            batch[i] = allocator.allocate(kBytes);
        while (box.batch.load(std::memory_order_acquire) != nullptr)
            Policy::work(CostKind::list_op);
        box.batch.store(batch, std::memory_order_release);
    }
    while (box.batch.load(std::memory_order_acquire) != nullptr)
        Policy::work(CostKind::list_op);
}

/** Consumer body: every free is cross-thread. */
template <typename Policy>
void
consume(Allocator& allocator, Mailbox& box, int tid, int rounds)
{
    Policy::rebind_thread_index(tid);
    for (int round = 0; round < rounds; ++round) {
        void** batch;
        while ((batch = box.batch.load(std::memory_order_acquire)) ==
               nullptr)
            Policy::work(CostKind::list_op);
        for (int i = 0; i < kBatch; ++i)
            allocator.deallocate(batch[i]);
        box.batch.store(nullptr, std::memory_order_release);
    }
}

TEST(BackgroundWorld, NativeWorkerPreservesExactAccounting)
{
    Config config;
    config.heap_count = 4;
    config.background_engine = true;
    config.bg_interval_ticks = 100000;  // pass every 0.1 ms
    NativeHoard allocator(config);
    allocator.start_background();
    ASSERT_TRUE(allocator.background_running());

    const int pairs = 2;
    std::vector<Mailbox> boxes(pairs);
    std::vector<std::vector<void*>> storage(
        pairs, std::vector<void*>(2 * kBatch));
    workloads::native_run(2 * pairs, [&](int tid) {
        auto pair = static_cast<std::size_t>(tid / 2);
        if (tid % 2 == 0)
            produce<NativePolicy>(allocator, boxes[pair],
                                  storage[pair].data(), tid, kRounds);
        else
            consume<NativePolicy>(allocator, boxes[pair], tid, kRounds);
    });

    allocator.stop_background();
    EXPECT_FALSE(allocator.background_running());
    EXPECT_GT(allocator.background_passes(), 0u);

    // The quiesced snapshot drains what the owners had not reached
    // yet; after it, every remote push is accounted as drained and
    // the gauges reconcile to the byte.
    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_TRUE(snap.reconciles());
    EXPECT_TRUE(snap.all_heaps_satisfy_invariant());
    EXPECT_EQ(allocator.stats().remote_frees.get(),
              allocator.stats().remote_drains.get());
    EXPECT_EQ(allocator.stats().in_use_bytes.current(), 0u);
    EXPECT_TRUE(allocator.check_invariants());
}

/** Everything that must match between two identical sim runs. */
struct SimDigest
{
    std::uint64_t makespan = 0;
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t remote_frees = 0;
    std::uint64_t remote_drains = 0;
    std::uint64_t bg_wakeups = 0;
    std::uint64_t bg_refills = 0;
    std::uint64_t in_use = 0;
    std::uint64_t held = 0;
    std::uint64_t committed = 0;
    bool reconciles = false;

    bool
    operator==(const SimDigest& other) const
    {
        return makespan == other.makespan && allocs == other.allocs &&
               frees == other.frees &&
               remote_frees == other.remote_frees &&
               remote_drains == other.remote_drains &&
               bg_wakeups == other.bg_wakeups &&
               bg_refills == other.bg_refills &&
               in_use == other.in_use && held == other.held &&
               committed == other.committed &&
               reconciles == other.reconciles;
    }
};

SimDigest
run_sim_once()
{
    Config config;
    config.heap_count = 2;
    config.background_engine = true;
    // A private provider per run, so both runs start from the same
    // cold arena rather than from spans an earlier run recycled.
    os::ReservedArenaProvider provider;
    SimHoard allocator(config, provider);

    Mailbox box;
    std::vector<void*> storage(2 * kBatch);

    // Two workload fibers plus the worker fiber on a third processor.
    sim::Machine machine(3);
    machine.spawn(0, 0, [&] {
        produce<SimPolicy>(allocator, box, storage.data(), 0, kRounds);
    });
    machine.spawn(1, 1, [&] {
        consume<SimPolicy>(allocator, box, 1, kRounds);
    });
    machine.spawn(2, 2, [&allocator] {
        SimPolicy::rebind_thread_index(2);
        allocator.bg_worker_sim(400);
    });

    SimDigest digest;
    digest.makespan = machine.run();

    obs::AllocatorSnapshot snap;
    sim::Machine checker(1);
    checker.spawn(0, 0,
                  [&allocator, &snap] { snap = allocator.take_snapshot(); });
    checker.run();

    digest.allocs = snap.stats.allocs;
    digest.frees = snap.stats.frees;
    digest.remote_frees = snap.stats.remote_frees;
    digest.remote_drains = snap.stats.remote_drains;
    digest.bg_wakeups = snap.stats.bg_wakeups;
    digest.bg_refills = snap.stats.bg_refills;
    digest.in_use = snap.stats.in_use_bytes;
    digest.held = snap.stats.held_bytes;
    digest.committed = snap.stats.committed_bytes;
    digest.reconciles = snap.reconciles();
    return digest;
}

TEST(BackgroundWorld, SimReplayByteIdenticalWithWorkerFiber)
{
    SimDigest first = run_sim_once();
    SimDigest second = run_sim_once();

    // The worker fiber did real work deterministically...
    EXPECT_EQ(first.bg_wakeups, 400u);
    EXPECT_TRUE(first.reconciles);
    EXPECT_EQ(first.remote_frees, first.remote_drains);
    // ...and an identical second run lands on identical bytes.
    EXPECT_TRUE(first == second)
        << "sim replay diverged with the worker fiber scheduled:"
        << " makespan " << first.makespan << " vs " << second.makespan
        << ", bg_refills " << first.bg_refills << " vs "
        << second.bg_refills;
}

}  // namespace
}  // namespace hoard
