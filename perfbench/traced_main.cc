/**
 * @file
 * Traced run of the native benchmark: prices each allocator layer from
 * outside, without touching the allocator's code.
 *
 * It runs a workload of workloads.h against an in-process
 * HoardAllocator<NativePolicy> built the way the facade builds the
 * shipped instance (default Config, heap_count = hardware threads).  Its
 * page provider is os::default_page_provider() behind a timing
 * decorator.  Every sampled allocate/deallocate is a core span; every
 * map/unmap/purge/unpurge the decorator sees during the measured phase
 * is an os span, and a child of the core span it happened in.  Counts
 * are deltas of the instance's stats() over the measured phase.
 *
 *   perfbench_traced --workload W --seed N --seconds S [--plain]
 *   perfbench_traced --ladder --seconds S
 *
 * Spans cover 1 in sample_period(W, true) calls.  --plain runs the
 * same instance without spans or the decorator, for the tracing
 * overhead.  --ladder prices a single-thread 64 B
 * allocate/deallocate pair on the core.  Output is one JSON line.
 */

#include <cstdio>
#include <memory>

#include "core/heap.h"
#include "core/hoard_allocator.h"
#include "core/superblock.h"
#include "harness.h"
#include "os/page_provider.h"
#include "policy/native_policy.h"
#include "workloads.h"

namespace {

using perfbench::now_ns;
using Alloc = hoard::HoardAllocator<hoard::NativePolicy>;

/** The facade's shipped configuration with no HOARD_* variables set. */
hoard::Config
shipped_config()
{
    hoard::Config config;
    const unsigned hw = std::thread::hardware_concurrency();
    config.heap_count = hw == 0 ? 1 : static_cast<int>(hw);
    return config;
}

enum OsCall { kMap, kUnmap, kPurge, kUnpurge, kOsCalls };

/** Spans of one workload thread during the measured phase. */
struct ThreadTrace
{
    bool window = false;   ///< inside the measured phase
    bool in_span = false;  ///< inside a sampled core call
    std::uint64_t span_os_ns = 0;

    perfbench::Samples alloc_ns;   ///< sampled core allocate spans
    perfbench::Samples free_ns;    ///< sampled core deallocate spans
    std::uint64_t alloc_os_ns = 0;  ///< os time inside alloc spans
    std::uint64_t free_os_ns = 0;   ///< os time inside free spans
    std::uint64_t local_frees = 0;  ///< sampled small frees, own heap
    std::uint64_t remote_frees = 0;  ///< ... another heap owns the block

    std::uint64_t os_calls[kOsCalls] = {};
    std::uint64_t os_ns[kOsCalls] = {};
    perfbench::Samples map_ns;    ///< every map in the phase
    perfbench::Samples unmap_ns;  ///< every unmap in the phase
};

thread_local ThreadTrace* t_trace = nullptr;

/** Times every call into the wrapped provider as an os span. */
class TimingProvider final : public hoard::os::PageProvider
{
  public:
    explicit TimingProvider(hoard::os::PageProvider& inner) : inner_(inner) {}

    void*
    map(std::size_t bytes, std::size_t align) override
    {
        const std::uint64_t t0 = now_ns();
        void* p = inner_.map(bytes, align);
        note(kMap, t0);
        return p;
    }

    void
    unmap(void* p, std::size_t bytes) override
    {
        const std::uint64_t t0 = now_ns();
        inner_.unmap(p, bytes);
        note(kUnmap, t0);
    }

    bool
    purge(void* p, std::size_t bytes) override
    {
        const std::uint64_t t0 = now_ns();
        const bool ok = inner_.purge(p, bytes);
        note(kPurge, t0);
        return ok;
    }

    void
    unpurge(void* p, std::size_t bytes) override
    {
        const std::uint64_t t0 = now_ns();
        inner_.unpurge(p, bytes);
        note(kUnpurge, t0);
    }

    std::size_t mapped_bytes() const override { return inner_.mapped_bytes(); }
    std::size_t
    peak_mapped_bytes() const override
    {
        return inner_.peak_mapped_bytes();
    }
    std::size_t
    reserved_bytes() const override
    {
        return inner_.reserved_bytes();
    }
    std::size_t
    peak_reserved_bytes() const override
    {
        return inner_.peak_reserved_bytes();
    }
    std::size_t
    prewarm(std::size_t bytes, std::size_t count) override
    {
        return inner_.prewarm(bytes, count);
    }

  private:
    static void
    note(OsCall call, std::uint64_t t0)
    {
        const std::uint64_t ns = now_ns() - t0;
        ThreadTrace* tt = t_trace;
        if (tt == nullptr || !tt->window)
            return;
        ++tt->os_calls[call];
        tt->os_ns[call] += ns;
        if (call == kMap)
            tt->map_ns.record(ns);
        else if (call == kUnmap)
            tt->unmap_ns.record(ns);
        if (tt->in_span)
            tt->span_os_ns += ns;
    }

    hoard::os::PageProvider& inner_;
};

/** The calls of one workload thread: the in-process core. */
struct CoreOps
{
    Alloc* core = nullptr;
    bool traced = false;
    std::unique_ptr<ThreadTrace> trace;

    void
    begin_window()
    {
        if (traced) {
            t_trace = trace.get();
            trace->window = true;
        }
    }

    void
    end_window()
    {
        if (traced)
            trace->window = false;
    }

    void*
    alloc(std::size_t n, bool sampled)
    {
        if (!traced || !sampled)
            return core->allocate(n);
        trace->in_span = true;
        trace->span_os_ns = 0;
        const std::uint64_t t0 = now_ns();
        void* p = core->allocate(n);
        trace->alloc_ns.record(now_ns() - t0);
        trace->in_span = false;
        trace->alloc_os_ns += trace->span_os_ns;
        return p;
    }

    void
    release(void* p, bool sampled)
    {
        if (!traced || !sampled) {
            core->deallocate(p);
            return;
        }
        const hoard::Superblock* sb = hoard::Superblock::from_pointer(
            p, core->config().superblock_bytes);
        if (!sb->huge()) {
            const auto* owner =
                static_cast<const hoard::HeapBase<hoard::NativePolicy>*>(
                    sb->owner());
            if (owner->index == core->my_heap_index())
                ++trace->local_frees;
            else
                ++trace->remote_frees;
        }
        trace->in_span = true;
        trace->span_os_ns = 0;
        const std::uint64_t t0 = now_ns();
        core->deallocate(p);
        trace->free_ns.record(now_ns() - t0);
        trace->in_span = false;
        trace->free_os_ns += trace->span_os_ns;
    }

    std::size_t usable(void* p) { return core->usable_size(p); }
};

/** Median over rounds of a 64 B allocate/deallocate pair on the core. */
int
ladder(double seconds)
{
    Alloc core(shipped_config());
    Alloc* volatile target = &core;  // keeps the pairs from being elided
    const auto round_ns = static_cast<std::uint64_t>(
        seconds * 1e9 / perfbench::kLadderRounds);
    std::vector<double> rounds;
    for (int r = 0; r < perfbench::kLadderRounds; ++r)
        rounds.push_back(perfbench::pair_round_ns(
            [&] { target->deallocate(target->allocate(64)); }, round_ns));
    std::printf("{\"core_pair_ns\": %.17g}\n", perfbench::median(rounds));
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    perfbench::Args args;
    perfbench::Run run;
    if (!perfbench::parse_args(argc, argv, "--plain", true, args, run)) {
        std::fprintf(stderr, "usage: perfbench_traced --workload W --seed N "
                             "--seconds S [--plain] | --ladder --seconds S\n");
        return 2;
    }
    if (args.ladder)
        return ladder(args.seconds);
    const bool plain = args.mode;

    TimingProvider timing(hoard::os::default_page_provider());
    hoard::os::PageProvider& provider =
        plain ? hoard::os::default_page_provider() : timing;
    Alloc core(shipped_config(), provider);
    std::vector<CoreOps> ops(perfbench::kThreads);
    for (CoreOps& o : ops) {
        o.core = &core;
        o.traced = !plain;
        if (o.traced)
            o.trace = std::make_unique<ThreadTrace>();
    }
    perfbench::Counters before;
    perfbench::Counters after;
    const perfbench::Outcome out = perfbench::run_workload(
        run, ops, static_cast<std::uint64_t>(args.seconds * 1e9),
        [&] { before = perfbench::Counters::read(core.stats()); },
        [&] { after = perfbench::Counters::read(core.stats()); });
    const perfbench::Counters d = after.minus(before);
    const double pairs = static_cast<double>(out.tally.pairs);
    const double kops = pairs / 1000.0;

    perfbench::JsonFields json(stdout);
    std::fputs("{", stdout);
    json.str("workload", args.workload.c_str());
    json.num("pairs", pairs);
    json.num("attempted", static_cast<double>(out.tally.attempted));
    json.num("failed", static_cast<double>(out.tally.failed));
    json.num("throughput_ops_s",
             pairs / (static_cast<double>(out.window_ns) / 1e9));
    json.key("hoard");
    d.write_json(stdout);
    if (!plain) {
        perfbench::Pooled alloc_ns;
        perfbench::Pooled free_ns;
        perfbench::Pooled map_ns;
        perfbench::Pooled unmap_ns;
        std::uint64_t alloc_os_ns = 0;
        std::uint64_t free_os_ns = 0;
        std::uint64_t local_frees = 0;
        std::uint64_t remote_frees = 0;
        std::uint64_t os_calls[kOsCalls] = {};
        double os_ns = 0;
        for (const CoreOps& o : ops) {
            const ThreadTrace& t = *o.trace;
            alloc_ns.add(t.alloc_ns);
            free_ns.add(t.free_ns);
            map_ns.add(t.map_ns);
            unmap_ns.add(t.unmap_ns);
            alloc_os_ns += t.alloc_os_ns;
            free_os_ns += t.free_os_ns;
            local_frees += t.local_frees;
            remote_frees += t.remote_frees;
            for (int c = 0; c < kOsCalls; ++c) {
                os_calls[c] += t.os_calls[c];
                os_ns += static_cast<double>(t.os_ns[c]);
            }
        }
        const double core_ns = alloc_ns.total_ns + free_ns.total_ns;
        const double span_os_ns = static_cast<double>(alloc_os_ns + free_os_ns);
        const auto per_kop = [&](double n) { return kops > 0 ? n / kops : 0.0; };
        const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
        const hoard::detail::AllocatorStats& s = core.stats();

        json.key("metrics");
        perfbench::JsonFields m(stdout);
        std::fputs("{", stdout);
        m.num("core.alloc_ns_p50", alloc_ns.at(0.50));
        m.num("core.alloc_ns_p99", alloc_ns.at(0.99));
        m.num("core.free_ns_p50", free_ns.at(0.50));
        m.num("core.free_ns_p99", free_ns.at(0.99));
        m.num("core.self_ns_per_op",
              ratio(alloc_ns.total_ns - static_cast<double>(alloc_os_ns),
                    static_cast<double>(alloc_ns.count)) +
                  ratio(free_ns.total_ns - static_cast<double>(free_os_ns),
                        static_cast<double>(free_ns.count)));
        m.num("core.samples",
              static_cast<double>(alloc_ns.kept.size() + free_ns.kept.size()));
        m.num("magazine.refills_per_kop", per_kop(static_cast<double>(d.batch_refills)));
        m.num("magazine.flushes_per_kop", per_kop(static_cast<double>(d.batch_flushes)));
        m.num("heap.remote_free_frac",
              ratio(static_cast<double>(remote_frees),
                    static_cast<double>(remote_frees + local_frees)));
        m.num("heap.remote_pushes_per_kop", per_kop(static_cast<double>(d.remote_frees)));
        m.num("heap.remote_drains_per_kop", per_kop(static_cast<double>(d.remote_drains)));
        m.num("heap.transfers_per_kop", per_kop(static_cast<double>(d.superblock_transfers)));
        m.num("global.fetches_per_kop", per_kop(static_cast<double>(d.global_fetches)));
        m.num("global.bin_hit_ratio",
              ratio(static_cast<double>(d.global_bin_hits),
                    static_cast<double>(d.global_bin_hits + d.global_bin_misses)));
        m.num("reuse_cache.pops_per_kop", per_kop(static_cast<double>(d.cache_pops)));
        m.num("reuse_cache.pushes_per_kop", per_kop(static_cast<double>(d.cache_pushes)));
        m.num("huge.allocs_per_kop", per_kop(static_cast<double>(d.huge_allocs)));
        m.num("os.map_calls_per_kop", per_kop(static_cast<double>(os_calls[kMap])));
        m.num("os.unmap_calls_per_kop", per_kop(static_cast<double>(os_calls[kUnmap])));
        m.num("os.purge_calls_per_kop",
              per_kop(static_cast<double>(os_calls[kPurge] + os_calls[kUnpurge])));
        m.num("os.map_ns_p50", map_ns.at(0.50));
        m.num("os.unmap_ns_p50", unmap_ns.at(0.50));
        m.num("os.ns_per_op", ratio(os_ns, pairs));
        m.num("os.share", ratio(span_os_ns, core_ns));
        m.num("os.fresh_superblocks_per_kop", per_kop(static_cast<double>(d.superblock_allocs)));
        m.num("footprint.blowup", s.fragmentation());
        m.num("footprint.committed_peak_mib",
              static_cast<double>(s.committed_bytes.peak()) / (1 << 20));
        m.num("bg.wakeups", static_cast<double>(s.bg_wakeups.get()));
        std::fputs("}", stdout);
    }
    std::fputs("}\n", stdout);
    return 0;
}
