/**
 * @file
 * ABL-global-fetch: the global-heap batched-transfer depth.
 *
 * `Config::global_fetch_batch` is the N of the slow path: a heap that
 * misses locally pulls up to N superblocks from its per-class global
 * bin under one bin-lock acquisition, and `maybe_release_superblock`
 * splices every eligible victim back in one visit.  Larger N
 * amortizes the lock hand-off and the transfer latency over more
 * superblocks; the cost is over-fetch — superblocks parked on a heap
 * that needed only one, which the emptiness invariant then has to
 * shed again.  This bench sweeps N on the virtual multiprocessor
 * (threadtest and larson makespans at P=8, global-heap bin-lock
 * traffic) and on the native build (fetch/transfer counter totals),
 * with `release_threshold = empty_fraction` so superblocks actually
 * migrate through the global heap instead of idling in band 0.
 */

#include <iostream>
#include <vector>

#include "core/hoard_allocator.h"
#include "metrics/speedup.h"
#include "metrics/table.h"
#include "policy/native_policy.h"
#include "workloads/native_bodies.h"
#include "workloads/runners.h"
#include "workloads/sim_bodies.h"

int
main()
{
    using namespace hoard;
    const std::vector<std::size_t> batch_sizes = {1, 2, 4, 8, 16};
    const int nthreads = 4;

    workloads::ThreadtestParams tt;
    tt.total_objects = 16000;
    tt.iterations = 6;

    workloads::LarsonParams la;
    la.rounds_per_epoch = 60000;
    la.epochs = 2;

    std::cout << "# ABL-global-fetch: fetch/transfer batch sweep"
                 " (hoard only)\n";
    metrics::Table table(
        {"batch sbs", "threadtest P=8 makespan", "larson P=8 makespan",
         "larson contended locks", "fetches (native larson)",
         "transfers (native larson)", "bin hits", "cache pops",
         "A-peak (native larson)"});

    for (std::size_t batch : batch_sizes) {
        Config config = sim_config();
        config.heap_count = nthreads;
        config.global_fetch_batch = batch;
        // Paper-literal transfer mode (any superblock at least f
        // empty is a victim) with zero slack, so the global bins see
        // steady two-way traffic and the batch depth actually
        // matters; the default K=8 absorbs these workloads entirely
        // inside the per-processor heaps.
        config.release_threshold = config.empty_fraction;
        config.slack_superblocks = 0;

        metrics::SpeedupOptions opt;
        opt.procs = {1, 8};
        opt.base_config = config;
        opt.kinds = {baselines::AllocatorKind::hoard};
        auto tt_sim = metrics::run_speedup_experiment(
            "abl-global-fetch", opt, workloads::threadtest_body(tt));
        auto la_sim = metrics::run_speedup_experiment(
            "abl-global-fetch", opt, workloads::larson_body(la));

        HoardAllocator<NativePolicy> allocator(config);
        auto body = workloads::native_larson_body(la);
        workloads::native_run(nthreads, [&](int tid) {
            body(allocator, tid, nthreads);
        });

        table.begin_row();
        table.cell_u64(batch);
        table.cell_u64(tt_sim.cells[1][0].makespan);
        table.cell_u64(la_sim.cells[1][0].makespan);
        table.cell_u64(la_sim.cells[1][0].lock_contentions);
        table.cell_u64(allocator.stats().global_fetches.get());
        table.cell_u64(allocator.stats().superblock_transfers.get());
        table.cell_u64(allocator.stats().global_bin_hits.get());
        table.cell_u64(allocator.stats().cache_pops.get());
        table.cell(metrics::format_bytes(
            allocator.stats().held_bytes.peak()));
    }
    table.print(std::cout);

    std::cout << "\n# Expected: threadtest (thread-local churn)"
                 " improves as one batch covers a whole allocation"
                 " burst; larson (cross-thread recycling) worsens —"
                 " at zero slack every over-fetched superblock is"
                 " extra material for the free/transfer ping-pong."
                 " The default batch is a compromise between the"
                 " two shapes.\n";
    return 0;
}
