/**
 * @file
 * micro-global-contention: phase-locked cold-start churn that funnels
 * every thread through the allocator's slow path at the same instant.
 *
 * A barrier phase-locks P threads so they all (a) allocate a working
 * set far larger than the K*S slack, then (b) free all of it, every
 * round.  The free phase pushes every heap below the emptiness
 * invariant, so superblocks stream to the global heap; the next
 * allocation phase starts with every per-processor heap cold, so every
 * thread misses its heap simultaneously and hammers
 * fetch_from_global.  Magazines are off — the bench isolates the slow
 * path the fast path cannot hide.
 *
 * Two configurations, same churn body:
 *
 *  - "churn": the default release threshold (t = 1) transfers only
 *    completely-empty superblocks, so the traffic is empty-superblock
 *    recycling — the reuse-cache path.  All threads share one object
 *    size.
 *  - "bins": paper-literal mode (t = f = 1/4) transfers partial
 *    superblocks mid-free-phase, and each thread uses a distinct size
 *    class, so the traffic lands in (and is fetched back from)
 *    per-class global bins.
 *
 * Measurements: simulated machine at P in {2,4,8} — virtual-time
 * makespan (deterministic, gated, lower is better) and slow-path fetch
 * throughput global_fetches/makespan (gated, higher is better) — plus
 * a native wall-clock fetch rate at P=8 as ungated context.
 *
 *   ./build/bench/micro_global_contention [--quick] [--json FILE]
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench/fig_common.h"
#include "core/hoard_allocator.h"
#include "metrics/bench_report.h"
#include "metrics/table.h"
#include "policy/native_policy.h"
#include "policy/sim_policy.h"
#include "workloads/runners.h"

namespace {

using namespace hoard;

/**
 * One spin-loop beat: virtual work under the simulator (so the
 * scheduler preempts at quantum edges) and a scheduler yield on real
 * threads (so a 1-core host does not burn a whole timeslice spinning).
 */
template <typename Policy>
void
spin_pause()
{
    if constexpr (std::is_same_v<Policy, NativePolicy>)
        std::this_thread::yield();
    else
        Policy::work(CostKind::list_op);
}

/**
 * Sense-reversing barrier usable from both worlds: the last arriver
 * flips the generation, everyone else spins on it.  This is the
 * phase-lock — it lines every thread up at the start of each
 * allocation phase so the slow-path misses collide.
 */
struct SpinBarrier
{
    explicit SpinBarrier(int n) : nthreads(n) {}

    template <typename Policy>
    void
    wait()
    {
        int gen = generation.load(std::memory_order_acquire);
        if (count.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            nthreads) {
            count.store(0, std::memory_order_relaxed);
            generation.fetch_add(1, std::memory_order_release);
        } else {
            while (generation.load(std::memory_order_acquire) == gen)
                spin_pause<Policy>();
        }
    }

    const int nthreads;
    std::atomic<int> count{0};
    std::atomic<int> generation{0};
};

struct ChurnParams
{
    int rounds = 0;
    /** Superblocks' worth of working set per thread per round; must
        comfortably exceed Config::slack_superblocks so the free phase
        pushes every heap through the transfer path. */
    int superblocks_per_thread = 32;
    /** Shared object size ("churn" mode); 0 = per-thread distinct
        classes ("bins" mode).  Near S/2 so superblocks hold only a
        couple of blocks each — the slow path dominates the round
        instead of being amortized over hundreds of block operations. */
    std::size_t object_bytes = 3300;
};

/** Distinct-size schedule for "bins" mode: ratio 1.25 > the 1.2 class
    base keeps the classes distinct; all sizes stay <= S/2 and large
    enough that superblocks hold only a handful of blocks. */
std::size_t
bins_object_bytes(int tid)
{
    std::size_t size = 1700;
    for (int i = 0; i < tid % 5; ++i)
        size = size * 5 / 4;
    return size;
}

/**
 * One thread's churn body.  @p slots is this thread's preallocated
 * pointer store (>= blocks slots).
 */
template <typename Policy>
void
churn_thread(HoardAllocator<Policy>& allocator, const ChurnParams& params,
             SpinBarrier& barrier, int tid, std::vector<void*>& slots)
{
    Policy::rebind_thread_index(tid);
    const SizeClasses& classes = allocator.size_classes();
    // Clamp to the largest non-huge class: anything bigger would be
    // served by a dedicated chunk and never touch the global heap.
    const std::size_t bytes =
        std::min(params.object_bytes != 0 ? params.object_bytes
                                          : bins_object_bytes(tid),
                 classes.largest());
    const std::size_t block =
        classes.block_size(classes.class_for(bytes));
    const std::size_t payload = Superblock::payload_bytes_for(
        allocator.config().superblock_bytes);
    const std::size_t blocks =
        static_cast<std::size_t>(params.superblocks_per_thread) *
        (payload / block);

    for (int round = 0; round < params.rounds; ++round) {
        barrier.template wait<Policy>();
        for (std::size_t i = 0; i < blocks; ++i)
            slots[i] = allocator.allocate(bytes);
        barrier.template wait<Policy>();
        for (std::size_t i = 0; i < blocks; ++i)
            allocator.deallocate(slots[i]);
    }
}

std::size_t
max_slots(const Config& config, const ChurnParams& params)
{
    // Room for the smallest class any thread uses (block >= 1700 B).
    const std::size_t payload =
        Superblock::payload_bytes_for(config.superblock_bytes);
    return static_cast<std::size_t>(params.superblocks_per_thread) *
           (payload / 1700);
}

struct SimResult
{
    std::uint64_t makespan = 0;
    std::uint64_t fetches = 0;
    std::uint64_t transfers = 0;
};

/** Simulated run: P fibers on P processors, phase-locked. */
SimResult
sim_churn(int nprocs, const ChurnParams& params, double release_threshold)
{
    Config config = sim_config();
    config.heap_count = nprocs;
    config.release_threshold = release_threshold;
    HoardAllocator<SimPolicy> allocator(config);

    std::vector<std::vector<void*>> slots(
        static_cast<std::size_t>(nprocs),
        std::vector<void*>(max_slots(config, params)));

    // Warm-up pass on its own virtual machine: maps the working set
    // (os_map is 25x a transfer in the cost model) and takes the
    // first-touch cache misses, so the measured pass is steady-state
    // slow-path traffic rather than mmap amortization.
    {
        ChurnParams warm = params;
        warm.rounds = 2;
        SpinBarrier barrier(nprocs);
        workloads::sim_run(nprocs, nprocs, [&](int tid) {
            churn_thread<SimPolicy>(allocator, warm, barrier, tid,
                                    slots[static_cast<std::size_t>(tid)]);
        });
    }
    const std::uint64_t fetches0 = allocator.stats().global_fetches.get();
    const std::uint64_t transfers0 =
        allocator.stats().superblock_transfers.get();

    SpinBarrier barrier(nprocs);
    SimResult result;
    result.makespan = workloads::sim_run(nprocs, nprocs, [&](int tid) {
        churn_thread<SimPolicy>(allocator, params, barrier, tid,
                                slots[static_cast<std::size_t>(tid)]);
    });
    result.fetches = allocator.stats().global_fetches.get() - fetches0;
    result.transfers =
        allocator.stats().superblock_transfers.get() - transfers0;
    return result;
}

/** Native run at @p nthreads OS threads; returns fetches per second. */
double
native_churn(int nthreads, const ChurnParams& params,
             double release_threshold, std::uint64_t* fetches)
{
    Config config = sim_config();  // magazines would absorb the churn
    config.heap_count = nthreads;
    config.release_threshold = release_threshold;
    HoardAllocator<NativePolicy> allocator(config);

    SpinBarrier barrier(nthreads);
    std::vector<std::vector<void*>> slots(
        static_cast<std::size_t>(nthreads),
        std::vector<void*>(max_slots(config, params)));

    auto t0 = std::chrono::steady_clock::now();
    workloads::native_run(nthreads, [&](int tid) {
        churn_thread<NativePolicy>(allocator, params, barrier, tid,
                                   slots[static_cast<std::size_t>(tid)]);
    });
    auto t1 = std::chrono::steady_clock::now();
    double seconds = std::chrono::duration<double>(t1 - t0).count();
    *fetches = allocator.stats().global_fetches.get();
    return static_cast<double>(*fetches) / seconds;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::FigCli cli = bench::parse_cli(argc, argv);

    ChurnParams params;
    params.rounds = cli.quick ? 6 : 16;

    Config echo = sim_config();  // every cell's, modulo heap_count and t
    metrics::BenchReport report(cli.bench_name, cli.quick);
    report.set_title(
        "micro-global-contention: phase-locked cold-start churn");
    report.set_config(echo);

    struct Mode
    {
        const char* name;
        double release_threshold;
        std::size_t object_bytes;  ///< 0 = per-thread distinct classes
    };
    const Mode modes[] = {
        {"churn", 1.0, 3300},  // empty-superblock recycling traffic
        {"bins", 0.25, 0},     // partial transfers into per-class bins
    };

    std::cout << "# micro-global-contention: every thread misses its"
                 " magazine and heap at the same instant\n";
    for (const Mode& mode : modes) {
        params.object_bytes = mode.object_bytes;
        std::cout << "\n## mode " << mode.name
                  << " (t=" << mode.release_threshold << ")\n";
        metrics::Table table({"P", "makespan (cycles)", "global fetches",
                              "transfers", "fetch/Mcycle"});
        for (int nprocs : {2, 4, 8}) {
            SimResult r =
                sim_churn(nprocs, params, mode.release_threshold);
            double rate = r.makespan == 0
                              ? 0.0
                              : static_cast<double>(r.fetches) * 1e6 /
                                    static_cast<double>(r.makespan);
            table.begin_row();
            table.cell_u64(static_cast<std::uint64_t>(nprocs));
            table.cell_u64(r.makespan);
            table.cell_u64(r.fetches);
            table.cell_u64(r.transfers);
            table.cell_double(rate);
            const std::string p = "/p" + std::to_string(nprocs);
            report.add_metric(std::string(mode.name) + "/makespan" + p,
                              static_cast<double>(r.makespan), "cycles",
                              metrics::Better::lower);
            report.add_metric(
                std::string(mode.name) + "/fetch_per_mcycle" + p, rate,
                "1/Mcycle", metrics::Better::higher);
            report.add_metric(std::string(mode.name) + "/fetches" + p,
                              static_cast<double>(r.fetches), "count",
                              metrics::Better::info);
        }
        table.print(std::cout);
    }

    // Native context: wall-clock on whatever host runs this (noisy on
    // loaded or single-core machines), never gated.
    ChurnParams native_params = params;
    native_params.rounds = cli.quick ? 4 : 10;
    native_params.object_bytes = 3300;
    std::uint64_t fetches = 0;
    double rate = native_churn(8, native_params, 1.0, &fetches);
    std::printf("\nnative P=8: %.0f slow-path fetches/sec (%llu"
                " fetches)\n",
                rate, static_cast<unsigned long long>(fetches));
    report.add_metric("native/churn_fetch_per_sec/p8", rate, "1/s",
                      metrics::Better::info);

    std::cout << "\n# Expected: with a sharded global heap the"
                 " phase-locked fetch storm stops serializing on one"
                 " mutex — fetch/Mcycle rises and makespan falls as P"
                 " grows.\n";

    if (!cli.json_path.empty() && !report.write_file(cli.json_path))
        return 1;
    return 0;
}
