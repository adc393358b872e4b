/**
 * @file
 * End-to-end child of the native benchmark.  It runs one workload
 * through this process's malloc/free, which is libhoard.so when the
 * driver starts it under LD_PRELOAD and glibc when it does not, and
 * prints one JSON line.
 *
 *   perfbench_workload --workload W --seed N --seconds S [--setup-only]
 *   perfbench_workload --ladder --seconds S
 *
 * `first_op_ns` is CLOCK_MONOTONIC just before the first workload
 * operation, so the driver can measure set-up from its own exec call.
 * With --setup-only the child exits there.  Sampled malloc and free
 * calls (1 in sample_period(W, false)) are timed around the call; a
 * warm-up of min(S / 4, 0.25 s) precedes the S measured seconds.
 * After timing stops the
 * child reads hoard::hoard_stats() from libhoard.so through dlsym,
 * when that symbol is present, and reports the counter deltas over the
 * measured phase.  --ladder prices a single-thread 64 B malloc/free
 * pair through the shim and through the facade behind it.
 */

#include <dlfcn.h>
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::now_ns;

/** The calls of one workload thread: the process's own malloc/free. */
struct SystemOps
{
    perfbench::Samples malloc_ns;
    perfbench::Samples free_ns;

    void*
    alloc(std::size_t n, bool sampled)
    {
        if (!sampled)
            return std::malloc(n);
        const std::uint64_t t0 = now_ns();
        void* p = std::malloc(n);
        malloc_ns.record(now_ns() - t0);
        return p;
    }

    void
    release(void* p, bool sampled)
    {
        if (!sampled) {
            std::free(p);
            return;
        }
        const std::uint64_t t0 = now_ns();
        std::free(p);
        free_ns.record(now_ns() - t0);
    }

    std::size_t usable(void* p) { return malloc_usable_size(p); }
    void begin_window() {}
    void end_window() {}
};

using StatsFn = const hoard::detail::AllocatorStats& (*)();
using MallocFn = void* (*)(std::size_t);
using FreeFn = void (*)(void*);

/** hoard::hoard_stats of a preloaded libhoard.so, or null under glibc. */
StatsFn
shim_stats()
{
    return reinterpret_cast<StatsFn>(
        dlsym(RTLD_DEFAULT, "_ZN5hoard11hoard_statsEv"));
}

/** Kilobytes on the /proc/self/status line starting with @p key. */
long
status_kib(const char* key)
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return -1;
    char line[256];
    long kib = -1;
    const std::size_t len = std::strlen(key);
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, key, len) == 0) {
            kib = std::strtol(line + len, nullptr, 10);
            break;
        }
    }
    std::fclose(f);
    return kib;
}

/**
 * Single-thread 64 B pair ladder: shim (malloc/free) and facade
 * (hoard_malloc/hoard_free of the same instance) in alternating rounds,
 * so a drift in host speed hits both alike.  The calls go through
 * function pointers, so the compiler cannot pair up and delete them.
 */
int
ladder(double seconds)
{
    MallocFn volatile sys_malloc = &std::malloc;
    FreeFn volatile sys_free = &std::free;
    auto facade_malloc = reinterpret_cast<MallocFn>(
        dlsym(RTLD_DEFAULT, "_ZN5hoard12hoard_mallocEm"));
    auto facade_free = reinterpret_cast<FreeFn>(
        dlsym(RTLD_DEFAULT, "_ZN5hoard10hoard_freeEPv"));
    if (facade_malloc == nullptr || facade_free == nullptr) {
        std::fprintf(stderr, "perfbench_workload: --ladder needs "
                             "libhoard.so preloaded\n");
        return 1;
    }
    const auto round_ns = static_cast<std::uint64_t>(
        seconds * 1e9 / (2 * perfbench::kLadderRounds));
    std::vector<double> shim;
    std::vector<double> facade;
    std::vector<double> self;
    for (int r = 0; r < perfbench::kLadderRounds; ++r) {
        shim.push_back(perfbench::pair_round_ns(
            [&] { sys_free(sys_malloc(64)); }, round_ns));
        facade.push_back(perfbench::pair_round_ns(
            [&] { facade_free(facade_malloc(64)); }, round_ns));
        self.push_back(shim.back() - facade.back());
    }
    perfbench::JsonFields json(stdout);
    std::fputs("{", stdout);
    json.num("shim_pair_ns", perfbench::median(shim));
    json.num("facade_pair_ns", perfbench::median(facade));
    json.num("shim_self_ns", perfbench::median(self));
    std::fputs("}\n", stdout);
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    perfbench::Args args;
    perfbench::Run run;
    if (!perfbench::parse_args(argc, argv, "--setup-only", false, args, run)) {
        std::fprintf(stderr, "usage: perfbench_workload --workload W --seed N "
                             "--seconds S [--setup-only] "
                             "| --ladder --seconds S\n");
        return 2;
    }
    if (args.ladder)
        return ladder(args.seconds);

    const std::uint64_t first_op_ns = now_ns();
    if (args.mode) {  // --setup-only
        void* p = std::malloc(64);
        std::free(p);
        std::printf("{\"first_op_ns\": %llu}\n",
                    static_cast<unsigned long long>(first_op_ns));
        return p == nullptr ? 1 : 0;
    }

    std::vector<SystemOps> ops(perfbench::kThreads);
    const StatsFn stats = shim_stats();
    std::optional<perfbench::Counters> before;
    std::optional<perfbench::Counters> after;
    const perfbench::Outcome out = perfbench::run_workload(
        run, ops, static_cast<std::uint64_t>(args.seconds * 1e9),
        [&] {
            if (stats != nullptr)
                before = perfbench::Counters::read(stats());
        },
        [&] {
            if (stats != nullptr)
                after = perfbench::Counters::read(stats());
        });

    perfbench::Pooled malloc_ns;
    perfbench::Pooled free_ns;
    for (const SystemOps& o : ops) {
        malloc_ns.add(o.malloc_ns);
        free_ns.add(o.free_ns);
    }
    ops.clear();
    ops.shrink_to_fit();
    const double window_s = static_cast<double>(out.window_ns) / 1e9;

    perfbench::JsonFields json(stdout);
    std::fputs("{", stdout);
    json.str("workload", args.workload.c_str());
    json.num("first_op_ns", static_cast<double>(first_op_ns));
    json.num("pairs", static_cast<double>(out.tally.pairs));
    json.num("attempted", static_cast<double>(out.tally.attempted));
    json.num("failed", static_cast<double>(out.tally.failed));
    json.num("window_s", window_s);
    json.num("throughput_ops_s", static_cast<double>(out.tally.pairs) / window_s);
    json.num("period", run.period);
    json.num("malloc_samples", static_cast<double>(malloc_ns.kept.size()));
    json.num("free_samples", static_cast<double>(free_ns.kept.size()));
    json.num("malloc_p50_ns", malloc_ns.at(0.50));
    json.num("malloc_p99_ns", malloc_ns.at(0.99));
    json.num("free_p50_ns", free_ns.at(0.50));
    json.num("free_p99_ns", free_ns.at(0.99));
    malloc_ns = {};
    free_ns = {};
    json.num("peak_rss_kib", static_cast<double>(status_kib("VmHWM:")));
    json.num("end_rss_kib", static_cast<double>(status_kib("VmRSS:")));
    if (before && after) {
        json.key("hoard");
        after->minus(*before).write_json(stdout);
        json.num("bg_wakeups_total", static_cast<double>(after->bg_wakeups));
    }
    std::fputs("}\n", stdout);
    return 0;
}
