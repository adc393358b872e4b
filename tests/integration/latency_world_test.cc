/**
 * @file
 * End-to-end latency-histogram test: run a multithreaded workload
 * with the per-path histograms armed in exact mode, then check that
 *
 *  - every accepted malloc/free landed in exactly one path histogram
 *    (the histogram mass reconciles with the allocator's op
 *    counters),
 *  - the snapshot plumbing (take_snapshot, latency_armed) and the
 *    per-path split behave,
 *  - an outlier threshold of one cycle traces every slow op into the
 *    event ring,
 *  - two identical sim runs produce byte-identical merged snapshots
 *    (LatencySnapshot operator== compares every bucket),
 *
 * under both execution worlds (native threads and the virtual-time
 * simulator).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/hoard_allocator.h"
#include "obs/event_ring.h"
#include "obs/gating.h"
#include "obs/latency.h"
#include "policy/native_policy.h"
#include "policy/sim_policy.h"
#include "sim/machine.h"
#include "workloads/larson.h"
#include "workloads/runners.h"

namespace hoard {
namespace {

workloads::LarsonParams
small_larson(int nthreads)
{
    workloads::LarsonParams params;
    params.nthreads = nthreads;
    params.slots_per_thread = 300;
    params.rounds_per_epoch = 800;
    params.epochs = 3;
    return params;
}

/**
 * Exact mode records every accepted op once: the malloc-family
 * histogram mass must equal the alloc counter and the free-family
 * mass the free counter (owner_drain is nested work, outside both).
 */
void
check_reconciles(const obs::AllocatorSnapshot& snap)
{
    ASSERT_TRUE(snap.latency_armed);
    ASSERT_EQ(snap.latency.sample_period, 1u);

    using obs::LatencyPath;
    std::uint64_t malloc_ops = 0, free_ops = 0;
    for (LatencyPath p :
         {LatencyPath::malloc_fast, LatencyPath::malloc_refill,
          LatencyPath::malloc_global_fetch, LatencyPath::malloc_fresh_map,
          LatencyPath::malloc_huge})
        malloc_ops += snap.latency.path(p).count();
    for (LatencyPath p :
         {LatencyPath::free_fast, LatencyPath::free_spill,
          LatencyPath::free_remote_push, LatencyPath::free_huge})
        free_ops += snap.latency.path(p).count();

    EXPECT_EQ(malloc_ops, snap.stats.allocs);
    EXPECT_EQ(free_ops, snap.stats.frees);

    // A larson churn mallocs far more often than it maps: the fast
    // path must dominate, and some op must have reached a deeper
    // stage (the first allocation of each class maps fresh memory).
    EXPECT_GT(snap.latency.path(LatencyPath::malloc_fast).count(), 0u);
    EXPECT_GT(snap.latency.path(LatencyPath::malloc_fresh_map).count(),
              0u);
    EXPECT_GT(snap.latency.path(LatencyPath::free_fast).count(), 0u);
}

TEST(LatencyWorld, NativeLarsonReconciles)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP() << "observability compiled out (HOARD_OBS=OFF)";

    constexpr int kThreads = 4;
    Config config;
    config.heap_count = kThreads;
    config.latency_histograms = true;
    config.latency_sample_period = 1;  // exact mode
    HoardAllocator<NativePolicy> allocator(config);
    ASSERT_NE(allocator.latency(), nullptr);

    workloads::LarsonParams params = small_larson(kThreads);
    workloads::native_run(kThreads, [&allocator, &params](int tid) {
        workloads::larson_thread<NativePolicy>(allocator, params, tid);
    });

    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_TRUE(snap.reconciles());
    check_reconciles(snap);

    // Real cycle counts: the histograms saw nonzero time somewhere.
    EXPECT_GT(snap.latency.path(obs::LatencyPath::malloc_fresh_map)
                  .sum(),
              0u);
}

TEST(LatencyWorld, HugeOpsLandInTheirOwnPaths)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP() << "observability compiled out (HOARD_OBS=OFF)";

    Config config;
    config.heap_count = 1;
    config.latency_histograms = true;
    config.latency_sample_period = 1;
    HoardAllocator<NativePolicy> allocator(config);
    // Medium spans (mapped, then recycled) and one above the span
    // cache's ceiling: none of them is a superblock map or a fast free.
    std::vector<void*> spans;
    for (std::size_t bytes : {std::size_t{5000}, std::size_t{40000},
                              std::size_t{40000}, std::size_t{1} << 20})
        spans.push_back(allocator.allocate(bytes));
    for (void* p : spans)
        allocator.deallocate(p);

    using obs::LatencyPath;
    const obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_EQ(snap.latency.path(LatencyPath::malloc_huge).count(), 4u);
    EXPECT_EQ(snap.latency.path(LatencyPath::free_huge).count(), 4u);
    EXPECT_EQ(snap.latency.path(LatencyPath::malloc_fresh_map).count(), 0u);
    EXPECT_EQ(snap.latency.path(LatencyPath::free_fast).count(), 0u);
}

TEST(LatencyWorld, NativeDisarmedByDefault)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP() << "observability compiled out (HOARD_OBS=OFF)";

    Config config;
    config.heap_count = 2;
    HoardAllocator<NativePolicy> allocator(config);
    EXPECT_EQ(allocator.latency(), nullptr);

    void* p = allocator.allocate(64);
    allocator.deallocate(p);
    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_FALSE(snap.latency_armed);
    EXPECT_EQ(snap.latency.total_count(), 0u);
}

TEST(LatencyWorld, NativeOutliersTraceIntoEventRing)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP() << "observability compiled out (HOARD_OBS=OFF)";

    Config config;
    config.heap_count = 2;
    config.observability = true;  // event ring for the trace records
    config.latency_histograms = true;
    config.latency_sample_period = 1;
    config.latency_outlier_cycles = 1;  // every timed op is an outlier
    HoardAllocator<NativePolicy> allocator(config);
    ASSERT_NE(allocator.latency(), nullptr);

    constexpr int kOps = 64;
    void* slots[kOps] = {};
    for (int i = 0; i < kOps; ++i)
        slots[i] = allocator.allocate(64);
    for (int i = 0; i < kOps; ++i)
        allocator.deallocate(slots[i]);

    EXPECT_GT(allocator.latency()->outliers(), 0u);
    auto outliers = allocator.latency()->recent_outliers();
    ASSERT_FALSE(outliers.empty());
    for (const obs::LatencyOutlier& o : outliers)
        EXPECT_GE(o.cycles, 1u);

    // Each outlier also left a trace record in the event ring, with
    // the path in the size_class slot and the cycles in bytes.
    std::size_t traced = 0;
    for (const obs::TraceEvent& ev : allocator.recorder()->collect()) {
        if (ev.kind != obs::EventKind::latency_outlier)
            continue;
        ++traced;
        EXPECT_GE(ev.size_class, 0);
        EXPECT_LT(ev.size_class, obs::kLatencyPathCount);
        EXPECT_GE(ev.bytes, 1u);
    }
    EXPECT_GT(traced, 0u);
}

TEST(LatencyWorld, SimLarsonReconciles)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP() << "observability compiled out (HOARD_OBS=OFF)";

    constexpr int kThreads = 4;
    Config config;
    config.heap_count = kThreads;
    config.latency_histograms = true;
    config.latency_sample_period = 1;
    HoardAllocator<SimPolicy> allocator(config);
    ASSERT_NE(allocator.latency(), nullptr);

    workloads::LarsonParams params = small_larson(kThreads);
    params.rounds_per_epoch = 400;  // virtual time is serial
    workloads::sim_run(kThreads, kThreads,
                       [&allocator, &params](int tid) {
                           workloads::larson_thread<SimPolicy>(
                               allocator, params, tid);
                       });

    obs::AllocatorSnapshot snap;
    sim::Machine checker(1);
    checker.spawn(0, 0,
                  [&allocator, &snap] {
                      snap = allocator.take_snapshot();
                  });
    checker.run();

    EXPECT_TRUE(snap.reconciles());
    check_reconciles(snap);

    // Virtual clocks: every recorded latency is a deterministic cycle
    // count, so the mean is reproducible too.
    EXPECT_GT(snap.latency.path(obs::LatencyPath::malloc_fast).sum(),
              0u);
}

/** One full armed sim run; returns the merged latency snapshot. */
obs::LatencySnapshot
sim_run_snapshot()
{
    constexpr int kThreads = 4;
    Config config;
    config.heap_count = kThreads;
    config.latency_histograms = true;
    config.latency_sample_period = 1;
    HoardAllocator<SimPolicy> allocator(config);

    workloads::LarsonParams params = small_larson(kThreads);
    params.rounds_per_epoch = 400;
    workloads::sim_run(kThreads, kThreads,
                       [&allocator, &params](int tid) {
                           workloads::larson_thread<SimPolicy>(
                               allocator, params, tid);
                       });
    return allocator.latency()->snapshot();
}

TEST(LatencyWorld, SimRunsAreByteIdentical)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP() << "observability compiled out (HOARD_OBS=OFF)";

    // Virtual time plus commutative recording: two identical runs
    // must merge to byte-identical histograms — every bucket, count,
    // sum, and max equal across all 8 paths (operator== compares them
    // all).
    obs::LatencySnapshot first = sim_run_snapshot();
    obs::LatencySnapshot second = sim_run_snapshot();
    EXPECT_GT(first.total_count(), 0u);
    EXPECT_TRUE(first == second);
}

}  // namespace
}  // namespace hoard
