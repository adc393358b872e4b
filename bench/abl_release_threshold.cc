/**
 * @file
 * ABL-release (DESIGN.md §6): sweep of the victim release threshold t.
 *
 * The paper's Figure 3 transfers any superblock that is at least f
 * empty.  Implemented literally (t = f), a workload whose natural heap
 * density sits below (1-f) is pinned at the emptiness boundary: every
 * free sends a partial superblock to the global heap and the next
 * allocation of that class fetches it straight back.  This bench
 * measures the pinning on the shbench mix (many size classes at
 * moderate occupancy) — simulated scalability at P=8 plus native
 * transfer counts and footprint — as t sweeps from the paper-literal
 * f up to "completely empty only".
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
    const std::vector<double> thresholds = {0.25, 0.5, 0.75, 0.875, 1.0};
    const int nthreads = 4;

    workloads::ShbenchParams sh;
    sh.operations = 60000;  // total, split over threads
    sh.working_set = 400;

    std::cout << "# ABL-release: victim release threshold sweep"
                 " (hoard only), shbench mix\n";
    std::cout << "# t = 0.25 is the paper-literal rule (any f-empty"
                 " superblock moves)\n";
    metrics::Table table({"t", "A-peak", "frag", "transfers",
                          "global fetches", "sim speedup P=8"});

    for (double t : thresholds) {
        Config config = sim_config();
        config.release_threshold = t;
        config.heap_count = nthreads;

        HoardAllocator<NativePolicy> allocator(config);
        auto body = workloads::native_shbench_body(sh);
        workloads::native_run(nthreads, [&](int tid) {
            body(allocator, tid, nthreads);
        });

        metrics::SpeedupOptions opt;
        opt.procs = {1, 8};
        opt.base_config = config;
        opt.kinds = {baselines::AllocatorKind::hoard};
        auto sim = metrics::run_speedup_experiment(
            "abl-release", opt, workloads::shbench_body(sh));

        const detail::AllocatorStats& stats = allocator.stats();
        table.begin_row();
        table.cell_double(t, 3);
        table.cell(metrics::format_bytes(stats.held_bytes.peak()));
        table.cell_double(stats.fragmentation());
        table.cell_u64(stats.superblock_transfers.get());
        table.cell_u64(stats.global_fetches.get());
        table.cell_double(sim.cells[1][0].speedup);
    }
    table.print(std::cout);

    std::cout << "\n# Expected: transfers and fetches collapse and"
                 " scalability recovers as t rises; footprint grows"
                 " mildly (bounded by 1/(1-t) of live bytes).\n";
    return 0;
}
