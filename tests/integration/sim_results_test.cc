/**
 * @file
 * Headline-result guards: small simulated runs of every figure, with
 * assertions on the paper's qualitative claims (who wins, what
 * collapses, where the gaps are).  If a refactor breaks the shapes the
 * benches reproduce, these tests fail first.
 */

#include <gtest/gtest.h>

#include "metrics/speedup.h"
#include "workloads/sim_bodies.h"

namespace hoard {
namespace {

using baselines::AllocatorKind;

constexpr std::size_t kHoard = 0;      // index in kAllKinds
constexpr std::size_t kSerial = 1;
constexpr std::size_t kPrivate = 2;
constexpr std::size_t kOwnership = 3;

metrics::SpeedupOptions
small_options()
{
    metrics::SpeedupOptions options;
    options.procs = {1, 8};
    return options;
}

TEST(SimResults, ThreadtestShapes)
{
    workloads::ThreadtestParams params;
    params.total_objects = 6000;
    params.iterations = 3;
    auto result = metrics::run_speedup_experiment(
        "guard", small_options(), workloads::threadtest_body(params));

    double hoard = result.at(1, kHoard).speedup;
    double serial = result.at(1, kSerial).speedup;
    EXPECT_GT(hoard, 6.0) << "Hoard must be near-linear at P=8";
    EXPECT_LT(serial, 1.0) << "one lock must not scale";
    EXPECT_GT(hoard / serial, 5.0) << "the paper's headline gap";
}

TEST(SimResults, ActiveFalseShapes)
{
    workloads::FalseSharingParams params;
    params.total_objects = 640;
    params.writes_per_object = 400;
    auto result = metrics::run_speedup_experiment(
        "guard", small_options(),
        workloads::active_false_body(params));

    EXPECT_GT(result.at(1, kHoard).speedup, 5.0)
        << "Hoard avoids active false sharing";
    EXPECT_LT(result.at(1, kSerial).speedup, 2.5)
        << "line-splitting allocator must be crushed by ping-pong";
    // The cache model must show the mechanism, not just the outcome.
    EXPECT_GT(result.at(1, kSerial).remote_transfers,
              50 * result.at(1, kHoard).remote_transfers + 1);
}

/**
 * Runs the passive-false workload with Hoard built on @p base_config,
 * checks the paper's shape (near-linear at P=8, well ahead of pure
 * private heaps), and returns Hoard's line transfers per write.
 */
double
passive_false_guard(const Config& base_config)
{
    workloads::FalseSharingParams params;
    params.total_objects = 640;
    params.writes_per_object = 400;
    metrics::SpeedupOptions options = small_options();
    options.base_config = base_config;
    auto result = metrics::run_speedup_experiment(
        "guard", options, workloads::passive_false_body(params));

    double hoard = result.at(1, kHoard).speedup;
    double priv = result.at(1, kPrivate).speedup;
    EXPECT_GT(hoard, 5.0);
    EXPECT_GT(hoard, priv * 1.3)
        << "pure private heaps inherit the handed-off line fragments";
    const double writes = static_cast<double>(params.total_objects) *
                          params.writes_per_object;
    return static_cast<double>(result.at(1, kHoard).remote_transfers) /
           writes;
}

TEST(SimResults, PassiveFalseShapes)
{
    passive_false_guard(sim_config());
}

TEST(SimResults, PassiveFalseShapesShippedConfig)
{
    // The same guard on the configuration that ships, magazines on: a
    // worker's freed gift goes home instead of parking in the worker's
    // magazine, so the worker's next objects come from its own heap
    // and share no line with thread 0's.  The transfer bound is
    // tbl_taxonomy's "no passive FS" verdict line.
    EXPECT_LT(passive_false_guard(Config{}), 0.05);
}

TEST(SimResults, LarsonShapes)
{
    workloads::LarsonParams params;
    params.slots_per_thread = 800;
    params.rounds_per_epoch = 120000;
    params.epochs = 2;
    auto result = metrics::run_speedup_experiment(
        "guard", small_options(), workloads::larson_body(params));

    double hoard = result.at(1, kHoard).speedup;
    double serial = result.at(1, kSerial).speedup;
    EXPECT_GT(hoard, 3.0) << "Hoard must scale under thread churn";
    EXPECT_LT(serial, 1.0);
    // The ownership baseline models the LKmalloc end of its class,
    // which the paper also shows scaling on larson (its failure mode
    // is O(P) blowup, demonstrated in the blowup tests); Hoard must be
    // competitive with it, not necessarily ahead.
    EXPECT_GT(hoard, result.at(1, kOwnership).speedup * 0.75);
}

TEST(SimResults, BemAndBarnesScaleForEveryone)
{
    workloads::BemSimParams bem;
    bem.phases = 1;
    bem.total_panels = 16;
    bem.elements_per_panel = 150;
    auto bem_result = metrics::run_speedup_experiment(
        "guard", small_options(), workloads::bemsim_body(bem));

    workloads::BarnesHutParams bh;
    bh.total_systems = 16;
    bh.bodies_per_system = 120;
    bh.steps = 1;
    auto bh_result = metrics::run_speedup_experiment(
        "guard", small_options(), workloads::barneshut_body(bh));

    // Compute-heavy applications: even serial scales somewhat, Hoard
    // leads or ties.
    EXPECT_GT(bem_result.at(1, kHoard).speedup, 3.0);
    EXPECT_GE(bem_result.at(1, kHoard).speedup,
              bem_result.at(1, kSerial).speedup);
    EXPECT_GT(bh_result.at(1, kHoard).speedup, 3.0);
    EXPECT_GE(bh_result.at(1, kHoard).speedup,
              bh_result.at(1, kSerial).speedup * 0.95);
}

TEST(SimResults, SpeedupMonotonicallyImprovesForHoard)
{
    metrics::SpeedupOptions options;
    options.procs = {1, 2, 4, 8};
    options.kinds = {AllocatorKind::hoard};
    workloads::ThreadtestParams params;
    params.total_objects = 6000;
    params.iterations = 3;
    auto result = metrics::run_speedup_experiment(
        "guard", options, workloads::threadtest_body(params));
    for (std::size_t pi = 1; pi < options.procs.size(); ++pi) {
        EXPECT_GT(result.at(pi, 0).speedup,
                  result.at(pi - 1, 0).speedup)
            << "P=" << options.procs[pi];
    }
}

}  // namespace
}  // namespace hoard
