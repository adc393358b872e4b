/**
 * @file
 * allocbench: the swiss-army driver for this repository.
 *
 * Runs any workload from the paper's suite against any allocator, in
 * either execution world, from the command line:
 *
 *   allocbench --workload larson --allocator hoard --mode sim \
 *              --procs 8 --scale 2
 *
 *   --workload   threadtest|shbench|larson|activefalse|passivefalse|
 *                bemsim|barneshut        (default threadtest)
 *   --allocator  hoard|serial|private|ownership|all  (default all)
 *   --mode       sim|native              (default sim)
 *   --procs      simulated processors / native threads (default 4)
 *   --scale      work multiplier (default 1)
 *
 * In sim mode it prints the virtual makespan plus contention and
 * cache diagnostics; in native mode, wall time and the memory books.
 * This is what "adopting the library" looks like for measurement
 * work: everything the fig and tbl benches do is reachable from here.
 */

#include <chrono>
#include <sstream>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "baselines/factory.h"
#include "metrics/table.h"
#include "policy/native_policy.h"
#include "policy/sim_policy.h"
#include "workloads/native_bodies.h"
#include "workloads/runners.h"
#include "workloads/sim_bodies.h"

namespace {

using namespace hoard;

struct Options
{
    std::string workload = "threadtest";
    std::string allocator = "all";
    std::string mode = "sim";
    int procs = 4;
    int scale = 1;
};

bool
parse(int argc, char** argv, Options* out)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--workload") {
            const char* v = next();
            if (v == nullptr)
                return false;
            out->workload = v;
        } else if (arg == "--allocator") {
            const char* v = next();
            if (v == nullptr)
                return false;
            out->allocator = v;
        } else if (arg == "--mode") {
            const char* v = next();
            if (v == nullptr)
                return false;
            out->mode = v;
        } else if (arg == "--procs") {
            const char* v = next();
            if (v == nullptr)
                return false;
            out->procs = std::atoi(v);
        } else if (arg == "--scale") {
            const char* v = next();
            if (v == nullptr)
                return false;
            out->scale = std::atoi(v);
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            return false;
        }
    }
    return out->procs >= 1 && out->procs <= 32 && out->scale >= 1 &&
           out->scale <= 1000;
}

metrics::SimWorkloadBody
make_sim_body(const Options& opt)
{
    int s = opt.scale;
    if (opt.workload == "threadtest") {
        workloads::ThreadtestParams p;
        p.total_objects = 8000 * s;
        p.iterations = 4;
        return workloads::threadtest_body(p);
    }
    if (opt.workload == "shbench") {
        workloads::ShbenchParams p;
        p.operations = 30000 * s;
        return workloads::shbench_body(p);
    }
    if (opt.workload == "larson") {
        workloads::LarsonParams p;
        p.rounds_per_epoch = 40000 * s;
        p.epochs = 2;
        return workloads::larson_body(p);
    }
    if (opt.workload == "activefalse") {
        workloads::FalseSharingParams p;
        p.total_objects = 800 * s;
        return workloads::active_false_body(p);
    }
    if (opt.workload == "passivefalse") {
        workloads::FalseSharingParams p;
        p.total_objects = 800 * s;
        return workloads::passive_false_body(p);
    }
    if (opt.workload == "bemsim") {
        workloads::BemSimParams p;
        p.phases = s;
        return workloads::bemsim_body(p);
    }
    if (opt.workload == "barneshut") {
        workloads::BarnesHutParams p;
        p.steps = s;
        return workloads::barneshut_body(p);
    }
    return nullptr;
}

workloads::NativeWorkloadBody
make_native_body(const Options& opt)
{
    int s = opt.scale;
    if (opt.workload == "threadtest") {
        workloads::ThreadtestParams p;
        p.total_objects = 8000 * s;
        p.iterations = 4;
        return workloads::native_threadtest_body(p);
    }
    if (opt.workload == "shbench") {
        workloads::ShbenchParams p;
        p.operations = 30000 * s;
        return workloads::native_shbench_body(p);
    }
    if (opt.workload == "larson") {
        workloads::LarsonParams p;
        p.rounds_per_epoch = 40000 * s;
        p.epochs = 2;
        return workloads::native_larson_body(p);
    }
    if (opt.workload == "activefalse") {
        workloads::FalseSharingParams p;
        p.total_objects = 800 * s;
        return workloads::native_active_false_body(p);
    }
    if (opt.workload == "passivefalse") {
        workloads::FalseSharingParams p;
        p.total_objects = 800 * s;
        return workloads::native_passive_false_body(p);
    }
    if (opt.workload == "bemsim") {
        workloads::BemSimParams p;
        p.phases = s;
        return workloads::native_bemsim_body(p);
    }
    if (opt.workload == "barneshut") {
        workloads::BarnesHutParams p;
        p.steps = s;
        return workloads::native_barneshut_body(p);
    }
    return nullptr;
}

std::vector<baselines::AllocatorKind>
selected_kinds(const Options& opt)
{
    if (opt.allocator == "all") {
        return {baselines::kAllKinds.begin(), baselines::kAllKinds.end()};
    }
    for (auto kind : baselines::kAllKinds) {
        if (opt.allocator == baselines::to_string(kind))
            return {kind};
    }
    return {};
}

int
run_sim(const Options& opt)
{
    metrics::SimWorkloadBody body = make_sim_body(opt);
    if (!body) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return 1;
    }
    metrics::Table table({"allocator", "makespan (vcycles)",
                          "contended locks", "remote transfers"});
    for (auto kind : selected_kinds(opt)) {
        Config config = sim_config();
        config.heap_count = opt.procs;
        auto allocator =
            baselines::make_allocator<SimPolicy>(kind, config);
        sim::Machine machine(opt.procs);
        for (int t = 0; t < opt.procs; ++t) {
            machine.spawn(t, t, [&, t] {
                body(*allocator, t, opt.procs);
            });
        }
        std::uint64_t makespan = machine.run();
        table.begin_row();
        table.cell(baselines::to_string(kind));
        table.cell_u64(makespan);
        table.cell_u64(machine.lock_contentions());
        table.cell_u64(machine.cache().remote_transfers());
    }
    std::printf("workload=%s mode=sim procs=%d scale=%d\n",
                opt.workload.c_str(), opt.procs, opt.scale);
    std::ostringstream os;
    table.print(os);
    std::fputs(os.str().c_str(), stdout);
    return 0;
}

int
run_native(const Options& opt)
{
    workloads::NativeWorkloadBody body = make_native_body(opt);
    if (!body) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return 1;
    }
    metrics::Table table({"allocator", "wall (ms)", "Mops/s",
                          "peak in use", "peak held", "frag"});
    for (auto kind : selected_kinds(opt)) {
        Config config;
        config.heap_count = opt.procs;
        auto allocator =
            baselines::make_allocator<NativePolicy>(kind, config);
        auto start = std::chrono::steady_clock::now();
        workloads::native_run(opt.procs, [&](int tid) {
            body(*allocator, tid, opt.procs);
        });
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        const detail::AllocatorStats& stats = allocator->stats();
        double mops =
            static_cast<double>(stats.allocs.get() + stats.frees.get()) /
            (ms / 1000.0) / 1e6;
        table.begin_row();
        table.cell(baselines::to_string(kind));
        table.cell_double(ms, 1);
        table.cell_double(mops, 2);
        table.cell(metrics::format_bytes(stats.in_use_bytes.peak()));
        table.cell(metrics::format_bytes(stats.held_bytes.peak()));
        table.cell_double(stats.fragmentation());
    }
    std::printf("workload=%s mode=native threads=%d scale=%d\n",
                opt.workload.c_str(), opt.procs, opt.scale);
    std::ostringstream os;
    table.print(os);
    std::fputs(os.str().c_str(), stdout);
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opt;
    if (!parse(argc, argv, &opt)) {
        std::fprintf(
            stderr,
            "usage: allocbench [--workload W] [--allocator A]"
            " [--mode sim|native] [--procs N] [--scale K]\n");
        return 1;
    }
    if (selected_kinds(opt).empty()) {
        std::fprintf(stderr, "unknown allocator '%s'\n",
                     opt.allocator.c_str());
        return 1;
    }
    return opt.mode == "native" ? run_native(opt) : run_sim(opt);
}
