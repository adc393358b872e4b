/**
 * @file
 * TBL-latency (DESIGN.md §4 extension): per-operation latency
 * percentiles under contention, externally and internally measured.
 *
 * The speedup figures show throughput; this table shows what the
 * averages hide.  Two views of the same phenomenon:
 *
 *  1. External (all allocators, P in {1, 8}): each simulated thread
 *     runs a larson-style replacement loop and timestamps every
 *     free+alloc pair with its virtual clock; the per-allocator
 *     histograms are merged and the p50/p90/p99/max spread printed.
 *     The paper-era lesson this reproduces: the serial allocator's
 *     *tail* latency explodes with queueing (every op waits behind
 *     P-1 others) even though each operation's own work is unchanged.
 *
 *  2. Internal (hoard only): the allocator's own per-path latency
 *     histograms (src/obs/latency.h, armed in exact mode) attribute
 *     that tail to the stage that caused it — magazine hit vs refill
 *     vs global-bin fetch vs fresh map.  The bench cross-checks the
 *     instrumentation: histogram op counts must reconcile with the
 *     allocator's alloc/free counters, and the percentiles re-read
 *     from the Prometheus exposition must match the snapshot's.
 *
 * External percentiles ride on the same obs::LatencyHistogram the
 * allocator uses internally, so the bucket math is exercised from
 * both sides of the API.
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "bench/fig_common.h"
#include "common/rng.h"
#include "core/hoard_allocator.h"
#include "metrics/bench_report.h"
#include "metrics/table.h"
#include "obs/gating.h"
#include "obs/latency.h"
#include "obs/trace_export.h"
#include "policy/sim_policy.h"
#include "sim/machine.h"

namespace {

using namespace hoard;

/**
 * Larson-style replacement loop on @p allocator, one simulated thread
 * per processor; returns the merged whole-op latency histogram.
 */
obs::LatencyHistogram
measure(Allocator& allocator, int procs, int ops_per_thread)
{
    std::vector<obs::LatencyHistogram> per_thread(
        static_cast<std::size_t>(procs));
    sim::Machine machine(procs);
    for (int t = 0; t < procs; ++t) {
        machine.spawn(t, t, [&, t] {
            detail::Rng rng(static_cast<std::uint64_t>(t) + 17);
            std::vector<void*> slots(128, nullptr);
            auto& hist = per_thread[static_cast<std::size_t>(t)];
            sim::Machine* m = sim::Machine::current();
            for (int op = 0; op < ops_per_thread; ++op) {
                auto slot = static_cast<std::size_t>(
                    rng.below(slots.size()));
                std::uint64_t t0 = m->current_clock();
                if (slots[slot] != nullptr)
                    allocator.deallocate(slots[slot]);
                slots[slot] = allocator.allocate(rng.range(16, 128));
                hist.record(m->current_clock() - t0);
            }
            for (void* p : slots) {
                if (p != nullptr)
                    allocator.deallocate(p);
            }
        });
    }
    machine.run();

    obs::LatencyHistogram merged;
    for (const auto& h : per_thread)
        merged.merge(h);
    return merged;
}

/**
 * Re-reads one `hoard_latency{path=..,quantile=..}` gauge back out of
 * the Prometheus exposition @p prom.  Returns false when the series
 * is missing.  Values compare as formatted strings — the exporter's
 * own put_double formatting is the contract being checked.
 */
bool
prom_gauge_matches(const std::string& prom, const char* path,
                   const char* quantile, double expect)
{
    const std::string needle = std::string("hoard_latency{path=\"") +
                               path + "\",quantile=\"" + quantile +
                               "\"} ";
    const std::size_t at = prom.find(needle);
    if (at == std::string::npos)
        return false;
    const std::size_t eol = prom.find('\n', at);
    const std::string got =
        prom.substr(at + needle.size(), eol - at - needle.size());
    char want[64];
    std::snprintf(want, sizeof(want), "%.3f", expect);
    return got == want;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace hoard;
    bench::FigCli cli = bench::parse_cli(argc, argv);
    const bool quick = cli.quick;
    const int ops = quick ? 2000 : 6000;
    metrics::BenchReport report(cli.bench_name, quick);
    report.set_title(
        "TBL-latency: per-op latency percentiles at P=1 and P=8");

    // External view: every allocator, uniprocessor and 8-way.  The
    // report keys for P=8 predate the P=1 column and keep their
    // original spelling (latency/<allocator>/...); the P=1 run adds
    // latency/p1/<allocator>/... alongside (BENCHMARKING.md: keys are
    // append-only).
    for (int procs : {1, 8}) {
        std::cout << "# TBL-latency: per-op latency (virtual cycles) "
                     "at P="
                  << procs << ", larson-style replacement loop\n";
        metrics::Table table(
            {"allocator", "mean", "p50", "p90", "p99", "max"});
        for (auto kind : baselines::kAllKinds) {
            Config config = sim_config();
            config.heap_count = procs;
            auto allocator =
                baselines::make_allocator<SimPolicy>(kind, config);
            obs::LatencyHistogram hist =
                measure(*allocator, procs, ops);
            table.begin_row();
            table.cell(baselines::to_string(kind));
            table.cell_double(hist.mean(), 0);
            table.cell_double(hist.percentile(50), 0);
            table.cell_double(hist.percentile(90), 0);
            table.cell_double(hist.percentile(99), 0);
            table.cell_u64(hist.max());

            // Only Hoard's percentiles are a contract; the baselines
            // are the comparison story.
            const metrics::Better gate =
                kind == baselines::AllocatorKind::hoard
                    ? metrics::Better::lower
                    : metrics::Better::info;
            const std::string prefix =
                std::string("latency/") +
                (procs == 1 ? "p1/" : "") +
                baselines::to_string(kind);
            report.add_metric(prefix + "/p50", hist.percentile(50),
                              "cycles", gate);
            report.add_metric(prefix + "/p99", hist.percentile(99),
                              "cycles", gate);
            report.add_metric(prefix + "/mean", hist.mean(), "cycles",
                              metrics::Better::info);
            report.add_metric(prefix + "/max",
                              static_cast<double>(hist.max()),
                              "cycles", metrics::Better::info);
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    // Internal view: hoard's own per-path histograms, exact mode.
    // Runs at P=8 where the slow paths actually fire.  Skipped (not
    // failed) when the instrumentation is compiled out.
    if (!obs::kCompiledIn) {
        std::cout << "# hoard internal per-path latency: skipped "
                     "(HOARD_OBS=OFF build)\n";
    } else {
        Config config = sim_config();
        config.heap_count = 8;
        config.latency_histograms = true;
        config.latency_sample_period = 1;
        HoardAllocator<SimPolicy> hoard_alloc(config);
        measure(hoard_alloc, 8, ops);

        // Snapshots take virtual mutexes: run the quiesced walk on a
        // fresh one-processor checker machine, like every other sim
        // introspection site.
        obs::AllocatorSnapshot snap;
        sim::Machine checker(1);
        checker.spawn(0, 0, [&hoard_alloc, &snap] {
            snap = hoard_alloc.take_snapshot();
        });
        checker.run();

        std::cout << "# hoard internal per-path latency (virtual "
                     "cycles, exact mode)\n";
        metrics::Table table(
            {"path", "n", "p50", "p99", "p99.9", "max"});
        for (int p = 0; p < obs::kLatencyPathCount; ++p) {
            const auto path = static_cast<obs::LatencyPath>(p);
            const obs::LatencyHistogram& h = snap.latency.path(path);
            if (h.count() == 0)
                continue;
            table.begin_row();
            table.cell(obs::to_string(path));
            table.cell_u64(h.count());
            table.cell_double(h.percentile(50), 0);
            table.cell_double(h.percentile(99), 0);
            table.cell_double(h.percentile(99.9), 0);
            table.cell_u64(h.max());
            const std::string prefix =
                std::string("latency/internal/") + obs::to_string(path);
            report.add_metric(prefix + "/p50", h.percentile(50),
                              "cycles", metrics::Better::info);
            report.add_metric(prefix + "/p99", h.percentile(99),
                              "cycles", metrics::Better::info);
            report.add_metric(prefix + "/p999", h.percentile(99.9),
                              "cycles", metrics::Better::info);
        }
        table.print(std::cout);

        // Exact mode records every accepted op exactly once, so the
        // histogram mass must reconcile with the op counters.
        std::uint64_t malloc_ops = 0, free_ops = 0;
        using obs::LatencyPath;
        for (LatencyPath p : {LatencyPath::malloc_fast,
                              LatencyPath::malloc_refill,
                              LatencyPath::malloc_global_fetch,
                              LatencyPath::malloc_fresh_map,
                              LatencyPath::malloc_huge})
            malloc_ops += snap.latency.path(p).count();
        for (LatencyPath p : {LatencyPath::free_fast,
                              LatencyPath::free_spill,
                              LatencyPath::free_remote_push,
                              LatencyPath::free_huge})
            free_ops += snap.latency.path(p).count();
        const bool counts_ok = malloc_ops == snap.stats.allocs &&
                               free_ops == snap.stats.frees;

        // And the Prometheus exposition must re-serialize the same
        // percentiles the snapshot computes.
        std::ostringstream prom;
        obs::write_prometheus(prom, snap);
        bool prom_ok = true;
        for (int p = 0; p < obs::kLatencyPathCount; ++p) {
            const auto path = static_cast<obs::LatencyPath>(p);
            const obs::LatencyHistogram& h = snap.latency.path(path);
            prom_ok = prom_ok &&
                      prom_gauge_matches(prom.str(), obs::to_string(path),
                                         "0.5", h.percentile(50)) &&
                      prom_gauge_matches(prom.str(), obs::to_string(path),
                                         "0.99", h.percentile(99)) &&
                      prom_gauge_matches(prom.str(), obs::to_string(path),
                                         "0.999", h.percentile(99.9));
        }

        std::cout << "count reconcile (histograms vs op counters): "
                  << (counts_ok ? "PASS" : "FAIL") << " ("
                  << malloc_ops << "/" << snap.stats.allocs
                  << " mallocs, " << free_ops << "/" << snap.stats.frees
                  << " frees)\n";
        std::cout << "prometheus reconcile (gauges vs snapshot): "
                  << (prom_ok ? "PASS" : "FAIL") << "\n";
        report.add_metric("latency/internal/count_reconcile",
                          counts_ok ? 1.0 : 0.0, "bool",
                          metrics::Better::higher);
        report.add_metric("latency/internal/prom_reconcile",
                          prom_ok ? 1.0 : 0.0, "bool",
                          metrics::Better::higher);
        if (!counts_ok || !prom_ok)
            return 1;
    }

    std::cout << "\n# Expected: hoard's tail stays within a small"
                 " multiple of its median; the serial allocator's p99"
                 " and max blow up with queueing delay.\n";
    if (!cli.json_path.empty() && !report.write_file(cli.json_path))
        return 1;
    return 0;
}
