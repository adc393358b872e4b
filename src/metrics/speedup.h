/**
 * @file
 * Speedup-figure harness.
 *
 * Regenerates one paper figure: for each allocator and each processor
 * count P, builds a fresh virtual-time machine and a fresh allocator
 * configured with P heaps, runs one workload thread per processor, and
 * reports speedup = makespan(1) / makespan(P) per allocator — exactly
 * the y-axis of the paper's figures (each allocator normalized to its
 * own single-processor run).
 */

#ifndef HOARD_METRICS_SPEEDUP_H_
#define HOARD_METRICS_SPEEDUP_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "core/config.h"
#include "sim/cost_model.h"

namespace hoard {
namespace metrics {

/**
 * Workload body bound to SimPolicy: (allocator, tid, nthreads).
 * The harness supplies a fresh allocator per cell.
 */
using SimWorkloadBody =
    std::function<void(Allocator& allocator, int tid, int nthreads)>;

/** Options for one speedup experiment. */
struct SpeedupOptions
{
    std::vector<int> procs = {1, 2, 4, 6, 8, 10, 12, 14};
    std::vector<baselines::AllocatorKind> kinds{
        baselines::kAllKinds.begin(), baselines::kAllKinds.end()};
    sim::CostModel costs;
    std::uint64_t quantum = 200;
    /// heap_count is overridden with P per cell; magazines off, like
    /// the paper (sim_config)
    Config base_config = sim_config();

    /**
     * Simulated threads per processor (default 1, the paper's setup).
     * With more, threads hash onto the P heaps — the oversubscription
     * regime the paper's thread-to-heap mapping is designed for.
     */
    int threads_per_proc = 1;

    /**
     * Enables the observability layer (src/obs/) per cell: event
     * tracing plus heap-lock contention profiling, surfaced in the
     * diagnostics table.  Profiling charges the cost model for extra
     * lock probes, so leave this off for paper-figure runs.
     */
    bool observability = false;

    /**
     * When non-empty, each Hoard cell dumps its retained event window
     * to <trace_dir>/<slug><allocator>_p<P>.trace.json (Chrome trace
     * format, timestamps in virtual cycles).  Implies observability.
     */
    std::string trace_dir;

    /**
     * When non-empty, each Hoard cell also writes its gauge timeline
     * to <timeline_dir>/<slug><allocator>_p<P>.timeline.jsonl (see
     * obs/trace_export.h).  Implies observability; the cell's config
     * gets obs_sample_interval = sample_interval.
     */
    std::string timeline_dir;

    /**
     * Virtual cycles between timeline samples when timeline_dir is
     * set.  The paper benches run ~10^7-10^8 cycles, so the default
     * yields hundreds of samples against the 256-slot ring.
     */
    std::uint64_t sample_interval = 1 << 18;

    /** Filename prefix for trace/timeline artifacts, e.g. "larson_". */
    std::string slug;
};

/** One measured cell. */
struct SpeedupCell
{
    std::uint64_t makespan = 0;
    double speedup = 0.0;
    std::uint64_t lock_contentions = 0;
    std::uint64_t remote_transfers = 0;

    /// @name Filled only when SpeedupOptions::observability is on and
    /// the allocator is Hoard (zeros otherwise).
    /// @{
    std::uint64_t heap_lock_acquires = 0;
    std::uint64_t heap_lock_contended = 0;
    std::uint64_t trace_events = 0;
    std::uint64_t timeline_samples = 0;
    /// @}
};

/** Results of one experiment: cells[proc_index][kind_index]. */
struct SpeedupResult
{
    std::string title;
    SpeedupOptions options;
    std::vector<std::vector<SpeedupCell>> cells;

    /** Speedup for (procs index, kind index). */
    const SpeedupCell&
    at(std::size_t proc_idx, std::size_t kind_idx) const
    {
        return cells[proc_idx][kind_idx];
    }

    /** Prints the figure as a table (and per-cell diagnostics). */
    void print(std::ostream& os, bool diagnostics = false) const;
};

/** Runs the experiment; see file comment. */
SpeedupResult run_speedup_experiment(const std::string& title,
                                     const SpeedupOptions& options,
                                     const SimWorkloadBody& body);

}  // namespace metrics
}  // namespace hoard

#endif  // HOARD_METRICS_SPEEDUP_H_
