/**
 * @file
 * Example: Barnes-Hut n-body simulation with per-step octrees drawn
 * from Hoard.
 *
 * A real scientific-kernel shape (the paper's Table 2 uses the same
 * application): every step builds a fresh octree — thousands of small
 * node allocations — computes approximate gravity, integrates, and
 * frees the tree.  Prints a physics sanity check (momentum drift) plus
 * the allocator's view of the run.
 *
 *   ./build/examples/nbody [bodies-per-thread] [steps] [threads]
 */

#include <cstdio>
#include <cstdlib>

#include "core/hoard_allocator.h"
#include "metrics/table.h"
#include "policy/native_policy.h"
#include "workloads/barneshut.h"
#include "workloads/runners.h"

int
main(int argc, char** argv)
{
    using namespace hoard;

    workloads::BarnesHutParams params;
    params.bodies_per_system = argc > 1 ? std::atoi(argv[1]) : 400;
    params.steps = argc > 2 ? std::atoi(argv[2]) : 6;
    params.nthreads = argc > 3 ? std::atoi(argv[3]) : 4;
    params.total_systems = 4 * params.nthreads;
    if (params.bodies_per_system < 8 || params.steps < 1 ||
        params.nthreads < 1 || params.nthreads > 64) {
        std::fprintf(stderr,
                     "usage: nbody [bodies-per-system>=8] [steps>=1]"
                     " [threads 1..64]\n");
        return 1;
    }

    Config config;
    config.heap_count = params.nthreads;
    HoardAllocator<NativePolicy> allocator(config);

    std::printf("nbody: %d systems x %d bodies on %d threads, %d steps,"
                " theta=%.2f\n",
                params.total_systems, params.bodies_per_system,
                params.nthreads, params.steps, params.theta);

    workloads::native_run(params.nthreads, [&](int tid) {
        workloads::barneshut_thread<NativePolicy>(allocator, params, tid);
    });

    const detail::AllocatorStats& stats = allocator.stats();
    // Every allocation of the run is one octree node.
    std::printf("\n  tree nodes allocated  %llu (%s)\n",
                static_cast<unsigned long long>(stats.allocs.get()),
                metrics::format_bytes(stats.allocs.get() *
                                      sizeof(workloads::bh::Node))
                    .c_str());
    std::printf("  peak in use           %s\n",
                metrics::format_bytes(stats.in_use_bytes.peak()).c_str());
    std::printf("  peak held             %s\n",
                metrics::format_bytes(stats.held_bytes.peak()).c_str());
    std::printf("  fragmentation         %.3f\n", stats.fragmentation());
    std::printf("  leaks                 %llu\n",
                static_cast<unsigned long long>(stats.allocs.get() -
                                                stats.frees.get()));
    allocator.check_invariants();
    std::printf("  emptiness invariant   ok\n");
    return 0;
}
