/**
 * @file
 * ABL-f (DESIGN.md §6): sweep of the empty fraction f.
 *
 * f governs how empty a heap may get before it must shed superblocks:
 * the invariant keeps a_i <= u_i/(1-f) + K*S.  Its trade-off shows on
 * workloads whose live set *oscillates* — after each trough, a small f
 * forces most of the peak's superblocks back to the global heap (low
 * footprint, many transfers), while a large f lets heaps keep them for
 * the next crest (fewer transfers, fatter heaps).  Runs in the
 * paper-literal victim mode (release_threshold = f), since that is the
 * mechanism f modulates.
 *
 * Workload: 4 threads, each repeatedly growing its live set to 3000
 * 64-byte objects and cutting it to a quarter.
 */

#include <iostream>
#include <vector>

#include "common/rng.h"
#include "core/hoard_allocator.h"
#include "metrics/table.h"
#include "policy/native_policy.h"
#include "workloads/runners.h"

namespace {

using namespace hoard;

void
oscillating_churn(Allocator& allocator, int tid, int rounds)
{
    NativePolicy::rebind_thread_index(tid);
    detail::Rng rng(static_cast<std::uint64_t>(tid) + 5);
    std::vector<void*> live;
    for (int round = 0; round < rounds; ++round) {
        while (live.size() < 3000)
            live.push_back(allocator.allocate(64));
        // Trough: free a random three quarters of the live set.
        while (live.size() > 750) {
            auto idx = static_cast<std::size_t>(rng.below(live.size()));
            allocator.deallocate(live[idx]);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    for (void* p : live)
        allocator.deallocate(p);
}

}  // namespace

int
main()
{
    const std::vector<double> fractions = {0.125, 0.25, 0.5, 0.75};
    const int nthreads = 4;
    const int rounds = 40;

    std::cout << "# ABL-f: empty fraction sweep (hoard only,"
                 " paper-literal victim rule), oscillating live set\n";
    metrics::Table table({"f", "A-peak", "frag", "transfers",
                          "global fetches"});

    for (double f : fractions) {
        Config config = sim_config();
        config.empty_fraction = f;
        config.release_threshold = f;  // paper-literal mode
        config.heap_count = nthreads;

        HoardAllocator<NativePolicy> allocator(config);
        workloads::native_run(nthreads, [&](int tid) {
            oscillating_churn(allocator, tid, rounds);
        });

        const detail::AllocatorStats& stats = allocator.stats();
        table.begin_row();
        table.cell_double(f, 3);
        table.cell(metrics::format_bytes(stats.held_bytes.peak()));
        table.cell_double(stats.fragmentation());
        table.cell_u64(stats.superblock_transfers.get());
        table.cell_u64(stats.global_fetches.get());
    }
    table.print(std::cout);

    std::cout << "\n# Expected: transfers and global fetches fall as f"
                 " grows (heaps may stay emptier); retained footprint"
                 " rises.\n";
    return 0;
}
