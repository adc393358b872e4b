/**
 * @file
 * micro-prodcons: producer-consumer pipeline throughput.
 *
 * Paired fibers hand allocation batches through a mailbox: the
 * producer allocates from its heap, the consumer frees cross-thread,
 * forever.  Every producer burns through its size class fast enough
 * that the global bin runs dry (refill work lands on the malloc
 * critical path as global_fetch misses and fresh maps), and every
 * free is remote: consumers' frees queue on the remote MPSC lists
 * until producers settle them inline.
 *
 * Throughput is measured as allocations per virtual megacycle against
 * the fibers' finish clocks, and the per-path latency histograms
 * (exact mode) attribute the slow paths' cost.  Runs are
 * deterministic, so the throughput and p99 metrics are gated.  The
 * metric keys keep their `fg` segment so existing baselines still
 * match.
 *
 *   ./build/bench/micro_prodcons [--quick] [--json FILE]
 */

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/fig_common.h"
#include "core/hoard_allocator.h"
#include "metrics/bench_report.h"
#include "metrics/table.h"
#include "obs/gating.h"
#include "obs/latency.h"
#include "policy/sim_policy.h"
#include "sim/machine.h"

namespace {

using namespace hoard;

/** One producer/consumer handoff slot (micro_remote_free's idiom). */
struct Mailbox
{
    std::atomic<void**> batch{nullptr};  ///< null = empty, ready to fill
};

struct PipeParams
{
    int rounds = 0;        ///< batches handed per pair
    int batch_blocks = 0;  ///< blocks per batch
    std::size_t object_bytes = 64;
};

/** Spin-loop beat: virtual work so the scheduler can preempt. */
void
spin_pause()
{
    SimPolicy::work(CostKind::list_op);
}

struct CaseResult
{
    std::uint64_t workload_makespan = 0;  ///< max workload finish clock
    double allocs_per_mcycle = 0.0;
    obs::AllocatorSnapshot snap;
};

/** Runs P workload fibers (P/2 pairs) on P simulated processors. */
CaseResult
run_case(int nprocs, const PipeParams& params)
{
    Config config = sim_config();
    config.heap_count = nprocs;
    config.latency_histograms = true;
    config.latency_sample_period = 1;  // exact: every op in the histogram
    HoardAllocator<SimPolicy> allocator(config);

    const int pairs = nprocs / 2;
    std::vector<Mailbox> boxes(static_cast<std::size_t>(pairs));
    std::vector<std::vector<void*>> storage(
        static_cast<std::size_t>(pairs),
        std::vector<void*>(
            2 * static_cast<std::size_t>(params.batch_blocks)));
    std::vector<std::uint64_t> finish(static_cast<std::size_t>(nprocs),
                                      0);

    sim::Machine machine(nprocs);
    for (int tid = 0; tid < nprocs; ++tid) {
        machine.spawn(tid, tid, [&, tid] {
            SimPolicy::rebind_thread_index(tid);
            auto pair = static_cast<std::size_t>(tid / 2);
            Mailbox& box = boxes[pair];
            if (tid % 2 == 0) {
                // Producer: double-buffered so batch k+1 is being
                // carved while the consumer still frees batch k.
                void** store = storage[pair].data();
                for (int round = 0; round < params.rounds; ++round) {
                    void** batch =
                        store + (round % 2) * params.batch_blocks;
                    for (int i = 0; i < params.batch_blocks; ++i)
                        batch[i] =
                            allocator.allocate(params.object_bytes);
                    while (box.batch.load(std::memory_order_acquire) !=
                           nullptr)
                        spin_pause();
                    box.batch.store(batch, std::memory_order_release);
                }
                while (box.batch.load(std::memory_order_acquire) !=
                       nullptr)
                    spin_pause();
            } else {
                // Consumer: every free is cross-thread.
                for (int round = 0; round < params.rounds; ++round) {
                    void** batch;
                    while ((batch = box.batch.load(
                                std::memory_order_acquire)) == nullptr)
                        spin_pause();
                    for (int i = 0; i < params.batch_blocks; ++i)
                        allocator.deallocate(batch[i]);
                    box.batch.store(nullptr, std::memory_order_release);
                }
            }
            finish[static_cast<std::size_t>(tid)] =
                sim::Machine::current()->current_clock();
        });
    }
    machine.run();

    CaseResult result;
    result.workload_makespan =
        *std::max_element(finish.begin(), finish.end());
    const double allocs = static_cast<double>(pairs) *
                          static_cast<double>(params.rounds) *
                          static_cast<double>(params.batch_blocks);
    result.allocs_per_mcycle =
        allocs /
        (static_cast<double>(result.workload_makespan) / 1e6);

    // Snapshots take virtual mutexes: quiesced walk on a fresh
    // one-processor checker machine.
    sim::Machine checker(1);
    checker.spawn(0, 0, [&allocator, &result] {
        result.snap = allocator.take_snapshot();
    });
    checker.run();
    return result;
}

/** The slow-path p99s the pipeline exercises. */
const obs::LatencyPath kHotPaths[] = {
    obs::LatencyPath::malloc_refill,
    obs::LatencyPath::malloc_global_fetch,
    obs::LatencyPath::malloc_fresh_map,
    obs::LatencyPath::free_remote_push,
};

}  // namespace

int
main(int argc, char** argv)
{
    bench::FigCli cli = bench::parse_cli(argc, argv);

    PipeParams params;
    params.rounds = cli.quick ? 150 : 600;
    params.batch_blocks = 32;
    // A batch spans a whole superblock's worth of blocks, so every
    // round ends in bin-refill / fresh-map traffic.  Small objects
    // never deplete the heap and would skip the slow paths.
    params.object_bytes = 2048;

    if (!obs::kCompiledIn) {
        std::cout << "# micro-prodcons: skipped (HOARD_OBS=OFF build"
                     " has no latency histograms)\n";
        return 0;
    }

    Config echo = sim_config();
    metrics::BenchReport report(cli.bench_name, cli.quick);
    report.set_title("micro-prodcons: pipeline throughput");
    report.set_config(echo);

    std::cout << "# micro-prodcons: producers allocate, consumers free"
                 " cross-thread\n";
    metrics::Table table({"P", "allocs/Mcycle", "refill p99",
                          "fetch p99", "fresh p99"});
    bool healthy = true;
    for (int nprocs : {2, 4, 8}) {
        CaseResult r = run_case(nprocs, params);
        healthy = healthy && r.snap.reconciles() &&
                  r.snap.all_heaps_satisfy_invariant();

        table.begin_row();
        table.cell_u64(static_cast<std::uint64_t>(nprocs));
        table.cell_double(r.allocs_per_mcycle, 1);
        table.cell_double(
            r.snap.latency.path(obs::LatencyPath::malloc_refill)
                .percentile(99),
            0);
        table.cell_double(
            r.snap.latency.path(obs::LatencyPath::malloc_global_fetch)
                .percentile(99),
            0);
        table.cell_double(
            r.snap.latency.path(obs::LatencyPath::malloc_fresh_map)
                .percentile(99),
            0);

        const std::string prefix =
            "prodcons/p" + std::to_string(nprocs) + "/fg";
        report.add_metric(prefix + "/allocs_per_mcycle",
                          r.allocs_per_mcycle, "1/Mcycle",
                          metrics::Better::higher);
        for (obs::LatencyPath path : kHotPaths) {
            const obs::LatencyHistogram& h = r.snap.latency.path(path);
            if (h.count() == 0)
                continue;
            report.add_metric(prefix + "/p99/" + obs::to_string(path),
                              h.percentile(99), "cycles",
                              metrics::Better::info);
        }
    }
    table.print(std::cout);

    std::cout << "health (reconcile + invariant, every cell): "
              << (healthy ? "PASS" : "FAIL") << "\n";
    report.add_metric("prodcons/health", healthy ? 1.0 : 0.0, "bool",
                      metrics::Better::higher);

    if (!cli.json_path.empty() && !report.write_file(cli.json_path))
        return 1;
    return healthy ? 0 : 1;
}
