/**
 * @file
 * macro-rss: spike-then-idle footprint under the LD_PRELOAD shim,
 * measuring what the purge pass buys in *resident* memory.
 *
 * The throughput benches ask "how fast"; a production deployment is
 * judged just as hard on "how big" — specifically RSS after a load
 * spike has passed.  The workload models that shape directly: a
 * multi-threaded burst allocates a large working set, frees all of it,
 * and then idles with a trickle of small churn (the light traffic that
 * keeps a server's free path warm).  Hoard's empty-superblock retention
 * means the spike's pages stay resident forever unless the
 * virtual-memory layer gives them back.
 *
 * The bench re-executes itself twice under LD_PRELOAD=libhoard.so
 * (same child protocol as macro_preload: HOARD_MACRO_RSS_RESULT names
 * the result file, HOARD_MACRO_QUICK shrinks the spike):
 *
 *  - retention run: purge disarmed — the seed behaviour, empties stay
 *    committed;
 *  - purge run: HOARD_RSS_TARGET=1 and HOARD_PURGE_INTERVAL=1, so the
 *    free-path cadence decommits every idle empty superblock via
 *    madvise while keeping the spans mapped for O(1) revival.
 *
 * Each child samples its own RSS from /proc/self/statm at the spike
 * peak and after the idle phase.  The gated metric is the idle-RSS
 * reduction the purge run achieves over the retention run (ISSUE 9
 * acceptance: >= 40%); peak RSS of both runs is reported as context
 * and as a sanity check that the two children did the same work.
 *
 *   ./build/bench/macro_rss [--quick] [--json FILE]
 *
 * HOARD_SHIM_PATH overrides the libhoard.so location.  A set
 * HOARD_TIMELINE passes through to the children, so the purge child
 * (executed last) leaves a v4 timeline whose committed-bytes column
 * falls through the idle phase — the CI rss-smoke leg greps for that.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/fig_common.h"
#include "metrics/bench_report.h"

namespace {

struct RssParams
{
    int threads = 4;
    std::size_t block_bytes = 1024;
    std::size_t blocks_per_thread = 65536;  // 4 threads -> 256 MiB
    std::size_t trickle_ops = 400000;
};

RssParams
params_for(bool quick)
{
    RssParams params;
    if (quick) {
        params.blocks_per_thread = 16384;  // 64 MiB spike
        params.trickle_ops = 200000;
    }
    return params;
}

/** Resident set in bytes, from /proc/self/statm (field 2, pages). */
std::size_t
rss_bytes()
{
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0;
    unsigned long long vsz = 0;
    unsigned long long resident = 0;
    const int got = std::fscanf(f, "%llu %llu", &vsz, &resident);
    std::fclose(f);
    if (got != 2)
        return 0;
    const long page = ::sysconf(_SC_PAGESIZE);
    return static_cast<std::size_t>(resident) *
           (page > 0 ? static_cast<std::size_t>(page) : 4096);
}

/**
 * Child half: spike, free, idle-with-trickle, report.  Every malloc
 * here goes through whatever allocator LD_PRELOAD installed.  Writes
 * "<peak_rss> <idle_rss>" to @p result_path.
 */
int
child_main(const char* result_path)
{
    const char* quick = std::getenv("HOARD_MACRO_QUICK");
    const RssParams params =
        params_for(quick != nullptr && quick[0] == '1');

    // Spike: every thread builds and touches a private slab of blocks.
    // Touching matters — an untouched block costs no RSS, and the
    // whole point is to commit real pages.
    std::vector<std::vector<void*>> slabs(
        static_cast<std::size_t>(params.threads));
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(params.threads));
    for (int t = 0; t < params.threads; ++t) {
        workers.emplace_back([&, t] {
            std::vector<void*>& slab =
                slabs[static_cast<std::size_t>(t)];
            slab.reserve(params.blocks_per_thread);
            for (std::size_t i = 0; i < params.blocks_per_thread; ++i) {
                void* p = std::malloc(params.block_bytes);
                if (p == nullptr)
                    std::abort();
                std::memset(p, 0x5a, params.block_bytes);
                slab.push_back(p);
            }
        });
    }
    for (std::thread& w : workers)
        w.join();
    const std::size_t peak = rss_bytes();

    // The spike passes: free everything (each slab from the main
    // thread — the cross-thread frees drive superblocks through the
    // global heap, exactly where idle empties accumulate).
    for (std::vector<void*>& slab : slabs) {
        for (void* p : slab)
            std::free(p);
        slab.clear();
        slab.shrink_to_fit();
    }

    // Idle: light trickle churn.  Under an armed purge config the
    // deallocate-tail cadence runs passes from inside these frees; the
    // retention run does the identical work so the comparison is fair.
    volatile char sink = 0;
    for (std::size_t i = 0; i < params.trickle_ops; ++i) {
        void* p = std::malloc(64);
        if (p == nullptr)
            std::abort();
        static_cast<char*>(p)[0] = static_cast<char>(i);
        sink = static_cast<char*>(p)[0];
        std::free(p);
    }
    (void)sink;
    const std::size_t idle = rss_bytes();

    std::ofstream os(result_path);
    os << peak << " " << idle << "\n";
    os.flush();
    return os.good() ? 0 : 1;
}

/** libhoard.so next to this binary's build tree, or the env override. */
std::string
shim_path(const char* argv0)
{
    if (const char* env = std::getenv("HOARD_SHIM_PATH"))
        return env;
    std::string dir = argv0 != nullptr ? argv0 : ".";
    std::size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    return dir + "/../src/shim/libhoard.so";
}

struct ChildRss
{
    double peak = 0.0;
    double idle = 0.0;
    bool ok = false;
};

/** Re-executes this binary under the shim with @p extra_env. */
ChildRss
run_child(const char* argv0, const std::string& shim,
          const std::string& result_path, bool quick,
          const std::string& extra_env)
{
    // Both children start without the calling environment's purge
    // knobs; the purge run then sets its own.
    std::string cmd = "env -u HOARD_RSS_TARGET -u HOARD_PURGE_AGE "
                      "HOARD_MACRO_RSS_RESULT='" +
                      result_path + "'";
    if (quick)
        cmd += " HOARD_MACRO_QUICK=1";
    if (!extra_env.empty())
        cmd += " " + extra_env;
    cmd += " LD_PRELOAD='" + shim + "' '" + std::string(argv0) + "'";

    ChildRss out;
    const int rc = std::system(cmd.c_str());
    if (rc == 0) {
        std::ifstream is(result_path);
        out.ok = static_cast<bool>(is >> out.peak >> out.idle) &&
                 out.peak > 0 && out.idle > 0;
    }
    std::remove(result_path.c_str());
    return out;
}

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

int
main(int argc, char** argv)
{
    if (const char* result = std::getenv("HOARD_MACRO_RSS_RESULT"))
        return child_main(result);

    hoard::bench::FigCli cli = hoard::bench::parse_cli(argc, argv);
    const RssParams params = params_for(cli.quick);

    hoard::metrics::BenchReport report(cli.bench_name, cli.quick);
    report.set_title(
        "macro-rss: spike-then-idle RSS, purge pass vs retention");

    const double spike_mib =
        static_cast<double>(params.threads) *
        static_cast<double>(params.blocks_per_thread) *
        static_cast<double>(params.block_bytes) / kMiB;
    std::printf("# macro-rss: %d threads x %zu x %zu B spike "
                "(%.0f MiB), freed, then %zu-op idle trickle\n",
                params.threads, params.blocks_per_thread,
                params.block_bytes, spike_mib, params.trickle_ops);

    const std::string shim = shim_path(argc > 0 ? argv[0] : nullptr);
    if (::access(shim.c_str(), R_OK) != 0) {
        std::printf("  libhoard.so not found at %s — bench skipped\n",
                    shim.c_str());
        if (!cli.json_path.empty() &&
            !report.write_file(cli.json_path))
            return 1;
        return 0;
    }

    const std::string result_path =
        (cli.json_path.empty() ? std::string("macro_rss")
                               : cli.json_path) +
        ".child.tmp";
    const char* argv0 = argv[0];

    // Retention run first, purge run second: with HOARD_TIMELINE set
    // the last child's timeline survives, and the purge child's is the
    // one whose falling committed-bytes column CI asserts on.
    // Both runs use 64 KiB superblocks: at the 8 KiB default the 4 KiB
    // header page is half the span, capping what any purge could
    // reclaim; at 64 KiB a purged superblock gives back 15/16 of its
    // pages, so the measurement reflects the purge pass rather than
    // header overhead.
    const std::string common = "HOARD_SUPERBLOCK_BYTES=65536";
    const ChildRss keep =
        run_child(argv0, shim, result_path, cli.quick, common);
    const ChildRss purge = run_child(
        argv0, shim, result_path, cli.quick,
        common + " HOARD_RSS_TARGET=1 HOARD_PURGE_INTERVAL=1");
    if (!keep.ok || !purge.ok) {
        std::fprintf(stderr, "macro_rss: preload child failed "
                             "(retention ok=%d, purge ok=%d)\n",
                     keep.ok, purge.ok);
        return 1;
    }

    const double reduction_pct =
        (keep.idle - purge.idle) / keep.idle * 100.0;
    std::printf("  retention: peak %8.1f MiB   idle %8.1f MiB\n",
                keep.peak / kMiB, keep.idle / kMiB);
    std::printf("  purge:     peak %8.1f MiB   idle %8.1f MiB\n",
                purge.peak / kMiB, purge.idle / kMiB);
    std::printf("  idle RSS reduction:      %8.1f %%\n", reduction_pct);

    report.add_metric("retention_peak_rss_mib", keep.peak / kMiB,
                      "MiB", hoard::metrics::Better::info);
    report.add_metric("retention_idle_rss_mib", keep.idle / kMiB,
                      "MiB", hoard::metrics::Better::info);
    report.add_metric("purge_peak_rss_mib", purge.peak / kMiB, "MiB",
                      hoard::metrics::Better::info);
    report.add_metric("purge_idle_rss_mib", purge.idle / kMiB, "MiB",
                      hoard::metrics::Better::lower);
    report.add_metric("idle_rss_reduction_pct", reduction_pct, "%",
                      hoard::metrics::Better::higher);

    if (!cli.json_path.empty() && !report.write_file(cli.json_path))
        return 1;
    return 0;
}
