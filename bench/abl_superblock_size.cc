/**
 * @file
 * ABL-S (DESIGN.md §6): sweep of the superblock size S.
 *
 * Bigger superblocks amortize locking and OS traffic over more blocks
 * (fewer fetches, fewer transfers) but coarsen the emptiness granule —
 * a heap can strand almost a whole superblock per size class, so
 * fragmentation rises.  Measured natively on shbench (mixed sizes make
 * the per-class stranding visible) and simulated on threadtest at P=8.
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
    const std::vector<std::size_t> sizes = {4096, 8192, 16384, 65536};
    const int nthreads = 4;

    workloads::ShbenchParams sh;
    sh.operations = 60000;
    sh.working_set = 300;

    workloads::ThreadtestParams tt;
    tt.total_objects = 8000;
    tt.iterations = 4;

    std::cout << "# ABL-S: superblock size sweep (hoard only)\n";
    metrics::Table table({"S", "A-peak", "frag", "os superblocks",
                          "global fetches", "sim makespan P=8"});

    for (std::size_t s : sizes) {
        Config config = sim_config();
        config.superblock_bytes = s;
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
            "abl-S", opt, workloads::threadtest_body(tt));

        const detail::AllocatorStats& stats = allocator.stats();
        table.begin_row();
        table.cell(metrics::format_bytes(s));
        table.cell(metrics::format_bytes(stats.held_bytes.peak()));
        table.cell_double(stats.fragmentation());
        table.cell_u64(stats.superblock_allocs.get());
        table.cell_u64(stats.global_fetches.get());
        table.cell_u64(sim.cells[1][0].makespan);
    }
    table.print(std::cout);

    std::cout << "\n# Expected: OS superblock count and global traffic"
                 " fall as S grows; fragmentation rises.\n";
    return 0;
}
