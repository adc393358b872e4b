/**
 * @file
 * Regression gate: diffs two suite (or single-bench) report files.
 *
 * Loads BASE and NEXT (hoard-bench-suite-v1 or hoard-bench-report-v1),
 * pairs their metrics by key, and prints the per-metric delta.  A
 * metric regresses when it moves more than the threshold in its
 * declared worse direction ("better": "higher"|"lower"; "info"
 * metrics are never gated).  Exits 1 when any metric regressed, 2 on
 * usage or parse errors — so CI can gate on the exit code.
 *
 *   ./build/bench/bench_compare BASE.json NEXT.json \
 *       [--max-regress-pct 10]
 *
 * Metrics present in BASE but missing from NEXT are listed as
 * warnings, not regressions: benches come and go across revisions.
 *
 * A second mode summarizes a gauge timeline instead of diffing
 * reports:
 *
 *   ./build/bench/bench_compare --timeline RUN.jsonl
 *
 * reads the schema the sampler writes, hoard-timeline-v7 (key list in
 * obs/trace_export.h).  Exits 0 on a clean read, 2 on parse errors or
 * any other schema.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "metrics/bench_report.h"
#include "metrics/json_value.h"

namespace {

using hoard::metrics::CompareResult;
using hoard::metrics::JsonValue;
using hoard::metrics::MetricDelta;

bool
load(const std::string& path, JsonValue& out)
{
    std::ifstream is(path);
    if (!is) {
        std::perror(path.c_str());
        return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    std::string error;
    out = JsonValue::parse(ss.str(), &error);
    if (!out.is_object()) {
        std::cerr << path << ": invalid JSON: " << error << "\n";
        return false;
    }
    return true;
}

void
usage(std::ostream& os)
{
    os << "usage: bench_compare BASE.json NEXT.json"
          " [--max-regress-pct PCT]\n"
       << "       bench_compare --timeline RUN.jsonl\n"
       << "  exits 0 when no gated metric regressed past PCT"
          " (default 10),\n"
       << "  1 on regression, 2 on usage/parse errors\n"
       << "  --timeline summarizes a gauge timeline (schema\n"
       << "  hoard-timeline-v7) instead of diffing reports\n";
}

/**
 * Summarizes one timeline JSONL file.  The counters in a sample are
 * cumulative, so the last line carries the run totals; gauges are
 * scanned for peaks.  Returns the process exit code.
 */
int
summarize_timeline(const std::string& path)
{
    std::ifstream is(path);
    if (!is) {
        std::perror(path.c_str());
        return 2;
    }

    std::size_t samples = 0;
    std::uint64_t first_ts = 0;
    double peak_in_use = 0.0, peak_held = 0.0, peak_blowup = 0.0;
    JsonValue last;
    std::string line;
    for (std::size_t lineno = 1; std::getline(is, line); ++lineno) {
        if (line.empty())
            continue;
        std::string error;
        JsonValue doc = JsonValue::parse(line, &error);
        if (!doc.is_object()) {
            std::cerr << path << ":" << lineno
                      << ": invalid JSON: " << error << "\n";
            return 2;
        }
        const std::string schema = doc.string_or("schema", "");
        if (schema != "hoard-timeline-v7") {
            std::cerr << path << ":" << lineno << ": unknown schema '"
                      << schema << "' (expected hoard-timeline-v7)\n";
            return 2;
        }
        if (samples == 0)
            first_ts = static_cast<std::uint64_t>(
                doc.number_or("ts", 0.0));
        peak_in_use = std::max(peak_in_use, doc.number_or("in_use", 0));
        peak_held = std::max(peak_held, doc.number_or("held", 0));
        peak_blowup = std::max(peak_blowup, doc.number_or("blowup", 0));
        last = std::move(doc);
        ++samples;
    }
    if (samples == 0) {
        std::cerr << path << ": no samples\n";
        return 2;
    }

    const double bin_hits = last.number_or("global_bin_hits", 0.0);
    const double bin_misses = last.number_or("global_bin_misses", 0.0);
    const double bin_lookups = bin_hits + bin_misses;
    const double bad_frees = last.number_or("bad_free_wild", 0.0) +
                             last.number_or("bad_free_foreign", 0.0) +
                             last.number_or("bad_free_interior", 0.0) +
                             last.number_or("bad_free_double", 0.0);

    std::printf("timeline %s: %zu samples, %.3f ms span\n",
                path.c_str(), samples,
                (last.number_or("ts", 0.0) -
                 static_cast<double>(first_ts)) /
                    1e6);
    std::printf("  final in_use %.0f, held %.0f, cached %.0f bytes\n",
                last.number_or("in_use", 0.0),
                last.number_or("held", 0.0),
                last.number_or("cached", 0.0));
    // committed + purged == held at quiescence.
    std::printf("  final committed %.0f, reserved %.0f, purged %.0f "
                "bytes\n",
                last.number_or("committed", 0.0),
                last.number_or("reserved", 0.0),
                last.number_or("purged", 0.0));
    std::printf("  peak in_use %.0f, peak held %.0f, peak blowup "
                "%.3f\n",
                peak_in_use, peak_held, peak_blowup);
    std::printf("  allocs %.0f, frees %.0f, transfers %.0f, global "
                "fetches %.0f\n",
                last.number_or("allocs", 0.0),
                last.number_or("frees", 0.0),
                last.number_or("transfers", 0.0),
                last.number_or("global_fetches", 0.0));
    std::printf("  global bin hit rate %.1f%% (%.0f/%.0f)\n",
                bin_lookups > 0.0 ? bin_hits / bin_lookups * 100.0
                                  : 0.0,
                bin_hits, bin_lookups);
    std::printf("  bad frees rejected: %.0f\n", bad_frees);
    std::printf("  profiler sampled: %.0f requested / %.0f rounded "
                "bytes\n",
                last.number_or("prof_sampled_requested", 0.0),
                last.number_or("prof_sampled_rounded", 0.0));
    // The latency keys mirror obs::LatencyPath; names are part of the
    // schema, so they are spelled out here rather than linking the obs
    // library into the comparer.
    static const char* const kLatPaths[] = {
        "malloc_fast",      "malloc_refill",
        "malloc_global_fetch", "malloc_fresh_map",
        "free_fast",        "free_spill",
        "free_remote_push", "owner_drain",
        "malloc_huge",      "free_huge"};
    bool any = false;
    for (const char* name : kLatPaths) {
        const double n =
            last.number_or(std::string("lat_") + name + "_n", 0.0);
        if (n <= 0.0)
            continue;
        if (!any)
            std::printf("  latency p99 (cycles):\n");
        any = true;
        std::printf("    %-20s n=%-12.0f p99=%.0f\n", name, n,
                    last.number_or(std::string("lat_") + name + "_p99",
                                   0.0));
    }
    if (!any)
        std::printf("  latency: histograms disarmed (all-zero "
                    "series)\n");
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string base_path, next_path, timeline_path;
    double max_regress_pct = 10.0;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--timeline") == 0 && i + 1 < argc) {
            timeline_path = argv[++i];
        } else if (std::strcmp(argv[i], "--max-regress-pct") == 0 &&
                   i + 1 < argc) {
            char* end = nullptr;
            max_regress_pct = std::strtod(argv[++i], &end);
            if (end == argv[i] || max_regress_pct < 0.0) {
                std::cerr << "bench_compare: bad threshold '" << argv[i]
                          << "'\n";
                return 2;
            }
        } else if (std::strcmp(argv[i], "--help") == 0) {
            usage(std::cout);
            return 0;
        } else if (argv[i][0] == '-') {
            std::cerr << "bench_compare: unknown option '" << argv[i]
                      << "'\n";
            usage(std::cerr);
            return 2;
        } else if (base_path.empty()) {
            base_path = argv[i];
        } else if (next_path.empty()) {
            next_path = argv[i];
        } else {
            std::cerr << "bench_compare: too many arguments\n";
            usage(std::cerr);
            return 2;
        }
    }
    if (!timeline_path.empty()) {
        if (!base_path.empty() || !next_path.empty()) {
            std::cerr << "bench_compare: --timeline takes no report "
                         "files\n";
            usage(std::cerr);
            return 2;
        }
        return summarize_timeline(timeline_path);
    }
    if (base_path.empty() || next_path.empty()) {
        usage(std::cerr);
        return 2;
    }

    JsonValue base, next;
    if (!load(base_path, base) || !load(next_path, next))
        return 2;

    CompareResult result =
        hoard::metrics::compare_reports(base, next, max_regress_pct);

    std::printf("%-58s %14s %14s %9s\n", "metric", "base", "next",
                "change");
    for (const MetricDelta& d : result.deltas) {
        std::printf("%-58s %14.4g %14.4g %+8.2f%%%s\n", d.key.c_str(),
                    d.base, d.next, d.change_pct,
                    d.regression ? "  REGRESSION" : "");
    }
    for (const std::string& key : result.missing)
        std::printf("%-58s missing from %s\n", key.c_str(),
                    next_path.c_str());

    std::printf("\n%zu metric(s) compared, %d regression(s) past "
                "%.1f%%, %zu missing\n",
                result.deltas.size(), result.regressions,
                max_regress_pct, result.missing.size());
    return result.ok() ? 0 : 1;
}
