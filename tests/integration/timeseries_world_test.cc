/**
 * @file
 * End-to-end time-series sampler test: run a multithreaded workload
 * with sampling enabled, then check that
 *
 *  - retained sample timestamps are monotone nondecreasing policy
 *    time,
 *  - the ring overwrites oldest-first and accounts for every drop,
 *  - a forced quiesced sample reconciles exactly with take_snapshot()
 *    (global gauges and per-heap u_i/a_i),
 *  - the timeline exports as valid JSONL,
 *
 * under both execution worlds (native threads and the virtual-time
 * simulator).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/hoard_allocator.h"
#include "metrics/json_value.h"
#include "obs/gating.h"
#include "obs/timeseries.h"
#include "obs/trace_export.h"
#include "policy/native_policy.h"
#include "policy/sim_policy.h"
#include "sim/machine.h"
#include "tests/common/json_check.h"
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

/** Checks the post-run invariants shared by both worlds. */
template <typename Policy>
void
check_quiesced(HoardAllocator<Policy>& allocator,
               const obs::AllocatorSnapshot& snap)
{
    const obs::TimeSeriesSampler* sampler = allocator.sampler();
    ASSERT_NE(sampler, nullptr);
    EXPECT_GT(sampler->total_samples(), 0u);

    std::vector<obs::TimeSample> samples = sampler->collect();
    ASSERT_FALSE(samples.empty());

    // Policy-time timestamps never go backwards in the retained
    // window, even across the overwrite boundary.
    for (std::size_t i = 1; i < samples.size(); ++i)
        EXPECT_GE(samples[i].timestamp, samples[i - 1].timestamp);

    // The ring retains at most its capacity and accounts for every
    // overwritten sample.
    EXPECT_LE(samples.size(), sampler->capacity());
    EXPECT_EQ(sampler->dropped(),
              sampler->total_samples() > sampler->capacity()
                  ? sampler->total_samples() - sampler->capacity()
                  : 0u);

    // The forced sample ran quiesced, so it must agree exactly with
    // the snapshot: global gauges and every heap's u_i/a_i.
    const obs::TimeSample& last = samples.back();
    EXPECT_EQ(last.in_use, snap.stats.in_use_bytes);
    EXPECT_EQ(last.held, snap.stats.held_bytes);
    EXPECT_EQ(last.cached_bytes, snap.cached_bytes);
    ASSERT_EQ(last.heaps.size(), snap.heaps.size());
    for (std::size_t h = 0; h < snap.heaps.size(); ++h) {
        EXPECT_EQ(last.heaps[h].in_use, snap.heaps[h].in_use) << h;
        EXPECT_EQ(last.heaps[h].held, snap.heaps[h].held) << h;
    }

    // The workload allocated and freed; the cumulative counters in the
    // final sample saw it.
    EXPECT_GT(last.allocs, 0u);
    EXPECT_GT(last.frees, 0u);

    // Every JSONL line is one valid JSON document with the schema tag
    // and a heap array matching the allocator's shape.
    std::ostringstream os;
    obs::write_timeseries_jsonl(os, *sampler);
    std::istringstream lines(os.str());
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        ++count;
        ASSERT_TRUE(testutil::json_valid(line)) << line;
        metrics::JsonValue doc = metrics::JsonValue::parse(line);
        EXPECT_EQ(doc.string_or("schema", ""), "hoard-timeline-v7");
        const metrics::JsonValue* heaps = doc.find("heaps");
        ASSERT_NE(heaps, nullptr);
        EXPECT_EQ(heaps->items().size(), snap.heaps.size());
    }
    EXPECT_EQ(count, samples.size());
}

TEST(TimeseriesWorld, NativeLarsonRun)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP() << "observability compiled out (HOARD_OBS=OFF)";

    constexpr int kThreads = 4;
    Config config;
    config.heap_count = kThreads;
    config.observability = true;
    config.obs_sample_interval = 1;  // sample at every cadence check
    config.obs_sample_slots = 8;     // small: force overwrites
    HoardAllocator<NativePolicy> allocator(config);
    ASSERT_NE(allocator.sampler(), nullptr);

    workloads::LarsonParams params = small_larson(kThreads);
    workloads::native_run(kThreads, [&allocator, &params](int tid) {
        workloads::larson_thread<NativePolicy>(allocator, params, tid);
    });

    ASSERT_TRUE(allocator.sample_now());
    obs::AllocatorSnapshot snap = allocator.take_snapshot();
    EXPECT_TRUE(snap.reconciles());
    check_quiesced(allocator, snap);

    // interval=1 with a multi-epoch workload overruns 64 slots; the
    // overwrite path (not just the happy path) was exercised.
    EXPECT_GT(allocator.sampler()->dropped(), 0u);
}

TEST(TimeseriesWorld, SimLarsonRun)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP() << "observability compiled out (HOARD_OBS=OFF)";

    constexpr int kThreads = 4;
    Config config;
    config.heap_count = kThreads;
    config.observability = true;
    config.obs_sample_interval = 1000;  // virtual cycles
    config.obs_sample_slots = 64;
    HoardAllocator<SimPolicy> allocator(config);
    ASSERT_NE(allocator.sampler(), nullptr);

    workloads::LarsonParams params = small_larson(kThreads);
    params.rounds_per_epoch = 400;  // virtual time is serial; keep short
    std::uint64_t makespan = workloads::sim_run(
        kThreads, kThreads, [&allocator, &params](int tid) {
            workloads::larson_thread<SimPolicy>(allocator, params, tid);
        });
    EXPECT_GT(makespan, 0u);

    // Sampling and snapshotting take virtual mutexes, so both run on a
    // fresh one-processor checker machine.  Its clock restarts at
    // zero; sample_now() must still stamp the flush at or after the
    // last in-run sample.
    obs::AllocatorSnapshot snap;
    bool sampled = false;
    sim::Machine checker(1);
    checker.spawn(0, 0, [&allocator, &snap, &sampled] {
        sampled = allocator.sample_now();
        snap = allocator.take_snapshot();
    });
    checker.run();
    ASSERT_TRUE(sampled);
    EXPECT_TRUE(snap.reconciles());

    check_quiesced(allocator, snap);

    // In-run samples carry virtual-cycle timestamps within the
    // makespan (the flush is clamped to the last in-run stamp, so it
    // obeys the same bound).
    for (const obs::TimeSample& s : allocator.sampler()->collect())
        EXPECT_LE(s.timestamp, makespan);
}

}  // namespace
}  // namespace hoard
