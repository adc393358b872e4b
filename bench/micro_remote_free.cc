/**
 * @file
 * micro-remote-free: cross-thread ping-pong free microbenchmark.
 *
 * The allocator-hostile half of producer/consumer: every block is
 * allocated by one thread and freed by another, so every free targets
 * a heap whose lock the producer is busy hammering.  Pre-remote-queue,
 * the consumer *blocked* on that lock once per free; with the per-heap
 * MPSC remote-free queue a contended free degrades to one lock-free
 * push, and the producer settles the whole chain at its next lock
 * visit.
 *
 * Two measurements:
 *
 *  - simulated machine, P in {2,4,8}: P/2 producer/consumer pairs of
 *    fibers hand batches through a mailbox; the virtual-time makespan
 *    is deterministic and gated (lower is better).  Thread caching is
 *    off, so the delta isolates the remote-queue path.
 *  - native, one producer/consumer pair of OS threads: wall-clock
 *    cross-thread frees per second.  Real-machine context only (noisy
 *    on loaded or single-core hosts), reported as an info metric.
 *
 *   ./build/bench/micro_remote_free [--quick] [--json FILE]
 */

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iostream>
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
 * One producer/consumer handoff slot.  The producer publishes a filled
 * batch; the consumer takes it, frees every block cross-thread, and
 * resets the slot.  Under SimPolicy the spin loops charge virtual
 * work, so the scheduler preempts spinners at quantum edges and the
 * partner always makes progress; under NativePolicy they yield.
 */
struct Mailbox
{
    std::atomic<void**> batch{nullptr};  ///< null = empty, ready to fill
};

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

struct PingPongParams
{
    int rounds = 0;        ///< batches handed per pair
    int batch_blocks = 0;  ///< blocks per batch
    std::size_t object_bytes = 64;
};

/**
 * Producer half: double-buffered so the contention is real.  While the
 * consumer is freeing batch k into this thread's heap, the producer is
 * already carving batch k+1 from it — allocator lock traffic from both
 * sides of the pair lands on one heap at once.  @p storage holds
 * 2 * batch_blocks slots.
 */
template <typename Policy>
void
producer_thread(Allocator& allocator, const PingPongParams& params,
                Mailbox& box, void** storage, int tid)
{
    Policy::rebind_thread_index(tid);
    for (int round = 0; round < params.rounds; ++round) {
        void** batch = storage + (round % 2) * params.batch_blocks;
        for (int i = 0; i < params.batch_blocks; ++i)
            batch[i] = allocator.allocate(params.object_bytes);
        while (box.batch.load(std::memory_order_acquire) != nullptr)
            spin_pause<Policy>();
        box.batch.store(batch, std::memory_order_release);
    }
    // Drain the handshake so nothing is in flight at join.
    while (box.batch.load(std::memory_order_acquire) != nullptr)
        spin_pause<Policy>();
}

/** Consumer half: take each batch and free every block cross-thread. */
template <typename Policy>
void
consumer_thread(Allocator& allocator, const PingPongParams& params,
                Mailbox& box, int tid)
{
    Policy::rebind_thread_index(tid);
    for (int round = 0; round < params.rounds; ++round) {
        void** batch;
        while ((batch = box.batch.load(std::memory_order_acquire)) ==
               nullptr)
            spin_pause<Policy>();
        for (int i = 0; i < params.batch_blocks; ++i)
            allocator.deallocate(batch[i]);
        box.batch.store(nullptr, std::memory_order_release);
    }
}

/**
 * Simulated run: P fibers on P processors, paired even/odd.  Producer
 * 2k allocates from its heap; consumer 2k+1 frees into it while the
 * producer is mid-allocation — the maximally contended cross-thread
 * pattern.  Returns the virtual-time makespan.
 */
std::uint64_t
sim_pingpong(int nprocs, const PingPongParams& params,
             std::uint64_t* remote_frees)
{
    Config config = sim_config();
    config.heap_count = nprocs;
    HoardAllocator<SimPolicy> allocator(config);

    const int pairs = nprocs / 2;
    std::vector<Mailbox> boxes(static_cast<std::size_t>(pairs));
    std::vector<std::vector<void*>> storage(
        static_cast<std::size_t>(pairs),
        std::vector<void*>(
            2 * static_cast<std::size_t>(params.batch_blocks)));

    std::uint64_t makespan = workloads::sim_run(
        nprocs, nprocs, [&](int tid) {
            auto pair = static_cast<std::size_t>(tid / 2);
            if (tid % 2 == 0) {
                producer_thread<SimPolicy>(allocator, params,
                                           boxes[pair],
                                           storage[pair].data(), tid);
            } else {
                consumer_thread<SimPolicy>(allocator, params,
                                           boxes[pair], tid);
            }
        });
    *remote_frees = allocator.stats().remote_frees.get();
    return makespan;
}

/** Native run: one OS-thread pair; returns cross-thread frees/sec. */
double
native_pingpong(const PingPongParams& params)
{
    Config config = sim_config();  // magazines would absorb the frees
    config.heap_count = 2;
    HoardAllocator<NativePolicy> allocator(config);

    Mailbox box;
    std::vector<void*> storage(
        2 * static_cast<std::size_t>(params.batch_blocks));

    auto t0 = std::chrono::steady_clock::now();
    workloads::native_run(2, [&](int tid) {
        if (tid == 0) {
            producer_thread<NativePolicy>(allocator, params, box,
                                          storage.data(), tid);
        } else {
            consumer_thread<NativePolicy>(allocator, params, box, tid);
        }
    });
    auto t1 = std::chrono::steady_clock::now();
    double seconds = std::chrono::duration<double>(t1 - t0).count();
    double frees = static_cast<double>(params.rounds) *
                   static_cast<double>(params.batch_blocks);
    return frees / seconds;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::FigCli cli = bench::parse_cli(argc, argv);

    PingPongParams params;
    params.rounds = cli.quick ? 150 : 600;
    params.batch_blocks = 32;

    Config echo = sim_config();  // every cell's, modulo heap_count
    metrics::BenchReport report(cli.bench_name, cli.quick);
    report.set_title(
        "micro-remote-free: cross-thread ping-pong free rate");
    report.set_config(echo);

    std::cout << "# micro-remote-free: every block is freed by a"
                 " thread that does not own its heap\n";
    metrics::Table table({"P", "makespan (cycles)", "remote frees"});
    for (int nprocs : {2, 4, 8}) {
        std::uint64_t remote_frees = 0;
        std::uint64_t makespan =
            sim_pingpong(nprocs, params, &remote_frees);
        table.begin_row();
        table.cell_u64(static_cast<std::uint64_t>(nprocs));
        table.cell_u64(makespan);
        table.cell_u64(remote_frees);
        report.add_metric("makespan/p" + std::to_string(nprocs),
                          static_cast<double>(makespan), "cycles",
                          metrics::Better::lower);
        report.add_metric("remote_frees/p" + std::to_string(nprocs),
                          static_cast<double>(remote_frees), "count",
                          metrics::Better::info);
    }
    table.print(std::cout);

    double rate = native_pingpong(params);
    std::printf("\nnative pair: %.0f cross-thread frees/sec\n", rate);
    // Wall-clock on whatever host runs this: context, never gated.
    report.add_metric("native/frees_per_sec", rate, "1/s",
                      metrics::Better::info);

    std::cout << "\n# Expected: makespan scales with pairs instead of"
                 " serializing on the producers' heap locks; remote"
                 " frees confirm the contended path was exercised.\n";

    if (!cli.json_path.empty() && !report.write_file(cli.json_path))
        return 1;
    return 0;
}
