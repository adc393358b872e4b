/** @file Unit tests for the per-path latency histograms. */

#include "obs/latency.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace hoard {
namespace obs {
namespace {

using Hist = LatencyHistogram;

TEST(LatencyBuckets, GoldenBoundaries)
{
    // Exact buckets for 0..3.
    EXPECT_EQ(Hist::bucket_for(0), 0);
    EXPECT_EQ(Hist::bucket_for(1), 1);
    EXPECT_EQ(Hist::bucket_for(2), 2);
    EXPECT_EQ(Hist::bucket_for(3), 3);
    // Octave [4, 8): 4 linear sub-buckets of width 1.
    EXPECT_EQ(Hist::bucket_for(4), 4);
    EXPECT_EQ(Hist::bucket_for(5), 5);
    EXPECT_EQ(Hist::bucket_for(6), 6);
    EXPECT_EQ(Hist::bucket_for(7), 7);
    // Octave [8, 16): sub-buckets of width 2.
    EXPECT_EQ(Hist::bucket_for(8), 8);
    EXPECT_EQ(Hist::bucket_for(9), 8);
    EXPECT_EQ(Hist::bucket_for(10), 9);
    EXPECT_EQ(Hist::bucket_for(15), 11);
    // Octave [16, 32): width 4.
    EXPECT_EQ(Hist::bucket_for(16), 12);

    EXPECT_EQ(Hist::bucket_lower(8), 8u);
    EXPECT_EQ(Hist::bucket_lower(9), 10u);
    EXPECT_EQ(Hist::bucket_lower(11), 14u);
    EXPECT_EQ(Hist::bucket_lower(12), 16u);
    EXPECT_EQ(Hist::bucket_upper(11), 16u);
}

TEST(LatencyBuckets, SaturationAtMaxOctave)
{
    const std::uint64_t top = std::uint64_t{1} << Hist::kMaxOctave;
    EXPECT_EQ(Hist::bucket_for(top), Hist::kBuckets - 1);
    EXPECT_EQ(Hist::bucket_for(top - 1), Hist::kBuckets - 2);
    EXPECT_EQ(Hist::bucket_for(~std::uint64_t{0}), Hist::kBuckets - 1);
    EXPECT_EQ(Hist::bucket_lower(Hist::kBuckets - 1), top);
    EXPECT_EQ(Hist::bucket_upper(Hist::kBuckets - 1),
              ~std::uint64_t{0});
}

TEST(LatencyBuckets, RoundTripsEveryBucket)
{
    for (int b = 0; b < Hist::kBuckets; ++b) {
        EXPECT_EQ(Hist::bucket_for(Hist::bucket_lower(b)), b)
            << "lower edge of bucket " << b;
        if (b + 1 < Hist::kBuckets) {
            EXPECT_EQ(Hist::bucket_for(Hist::bucket_upper(b) - 1), b)
                << "upper edge of bucket " << b;
            EXPECT_EQ(Hist::bucket_upper(b), Hist::bucket_lower(b + 1))
                << "buckets must tile without gaps at " << b;
        }
    }
}

// Whole-histogram properties: empty and exact summaries, tail
// separation, monotone percentiles, saturation, and merge.

TEST(LatencyHistogram, EmptyIsZero)
{
    Hist hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
    EXPECT_DOUBLE_EQ(hist.percentile(50), 0.0);
    EXPECT_EQ(hist.max(), 0u);
}

TEST(LatencyHistogram, MeanAndMaxAreExact)
{
    Hist hist;
    hist.record(10);
    hist.record(20);
    hist.record(90);
    EXPECT_EQ(hist.count(), 3u);
    EXPECT_DOUBLE_EQ(hist.mean(), 40.0);
    EXPECT_EQ(hist.max(), 90u);
}

TEST(LatencyHistogram, PercentileWithinBucketFactor)
{
    Hist hist;
    for (int i = 0; i < 1000; ++i)
        hist.record(100);
    const double p50 = hist.percentile(50);
    EXPECT_GE(p50, 100.0 / 1.125);
    EXPECT_LE(p50, 100.0);
}

TEST(LatencyHistogram, TailSeparatesFromBody)
{
    Hist hist;
    for (int i = 0; i < 990; ++i)
        hist.record(100);
    for (int i = 0; i < 10; ++i)
        hist.record(100000);
    EXPECT_LT(hist.percentile(50), 200.0);
    EXPECT_GT(hist.percentile(99.5), 50000.0);
    EXPECT_GT(hist.percentile(99.5), 100 * hist.percentile(50));
}

TEST(LatencyHistogram, PercentilesMonotonic)
{
    Hist hist;
    detail::Rng rng(3);
    for (int i = 0; i < 20000; ++i)
        hist.record(rng.range(1, 1 << 20));
    double prev = 0.0;
    for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
        const double v = hist.percentile(p);
        EXPECT_GE(v, prev) << "p" << p;
        prev = v;
    }
}

TEST(LatencyHistogram, HugeValuesClampToLastBucket)
{
    Hist hist;
    hist.record(~std::uint64_t{0});
    EXPECT_EQ(hist.count(), 1u);
    EXPECT_EQ(hist.bucket(Hist::kBuckets - 1), 1u);
    EXPECT_GT(hist.percentile(50), 1e12);
}

TEST(LatencyHistogram, LastBucketSaturatesButKeepsExactMax)
{
    // Everything at or beyond 2^kMaxOctave shares the last bucket, but
    // max() stays exact.
    Hist hist;
    const std::uint64_t lo = std::uint64_t{1} << Hist::kMaxOctave;
    hist.record(lo);
    hist.record(lo * 4);
    hist.record(~std::uint64_t{0});
    EXPECT_EQ(hist.count(), 3u);
    EXPECT_EQ(hist.bucket(Hist::kBuckets - 1), 3u);
    EXPECT_EQ(hist.max(), ~std::uint64_t{0});
}

TEST(LatencyHistogram, MergeCombines)
{
    Hist a, b;
    for (int i = 0; i < 100; ++i)
        a.record(10);
    for (int i = 0; i < 100; ++i)
        b.record(100000);
    a.merge(b);
    EXPECT_EQ(a.count(), 200u);
    EXPECT_EQ(a.max(), 100000u);
    EXPECT_LT(a.percentile(25), 100.0);
    EXPECT_GT(a.percentile(75), 10000.0);
}

TEST(LatencyHistogramTest, RecordTracksCountSumMax)
{
    Hist h;
    h.record(5);
    h.record(100);
    h.record(3);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 108u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 36.0);
}

TEST(LatencyHistogramTest, MergeIsAssociativeAndCommutative)
{
    Hist a, b, c;
    for (std::uint64_t v : {1u, 7u, 300u})
        a.record(v);
    for (std::uint64_t v : {12u, 12u, 9000u})
        b.record(v);
    for (std::uint64_t v : {0u, 1u << 20})
        c.record(v);

    Hist ab = a;
    ab.merge(b);
    Hist ab_c = ab;
    ab_c.merge(c);

    Hist bc = b;
    bc.merge(c);
    Hist a_bc = a;
    a_bc.merge(bc);

    Hist cba = c;
    cba.merge(b);
    cba.merge(a);

    EXPECT_EQ(ab_c, a_bc);
    EXPECT_EQ(ab_c, cba);
    EXPECT_EQ(ab_c.count(), 8u);
}

TEST(LatencyHistogramTest, PercentileOfEmptyIsZero)
{
    Hist h;
    EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.9), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 0.0);
}

TEST(LatencyHistogramTest, PercentileSingleBucketClampsToMax)
{
    // One sample: every percentile must land on a value that was
    // actually possible — between the bucket's lower edge and the
    // recorded max, never past the max.
    Hist h;
    h.record(9);  // bucket [8, 10)
    for (double p : {1.0, 50.0, 99.0, 99.9, 100.0}) {
        EXPECT_GE(h.percentile(p), 8.0) << "p" << p;
        EXPECT_LE(h.percentile(p), 9.0) << "p" << p;
    }
    EXPECT_DOUBLE_EQ(h.percentile(100), 9.0);
}

TEST(LatencyHistogramTest, PercentileInterpolatesWithinBucket)
{
    // 4 samples all in bucket [16, 20); interpolation walks the
    // bucket linearly with the capped upper edge (max = 19).
    Hist h;
    for (int i = 0; i < 4; ++i)
        h.record(19);
    const double p25 = h.percentile(25);
    const double p75 = h.percentile(75);
    EXPECT_GE(p25, 16.0);
    EXPECT_LT(p25, p75);
    EXPECT_LE(p75, 19.0);
}

TEST(LatencyHistogramTest, PercentileSaturatingLastBucket)
{
    // A sample beyond 2^48 saturates into the open-ended last bucket;
    // the interpolation's upper edge must be capped at the recorded
    // max, not the bucket's astronomically large span.
    Hist h;
    const std::uint64_t huge_v = (std::uint64_t{1} << 50) + 12345;
    h.record(huge_v);
    const double lo =
        static_cast<double>(std::uint64_t{1} << Hist::kMaxOctave);
    for (double p : {1.0, 50.0, 99.9}) {
        EXPECT_GE(h.percentile(p), lo) << "p" << p;
        EXPECT_LE(h.percentile(p), static_cast<double>(huge_v))
            << "p" << p;
    }
    EXPECT_DOUBLE_EQ(h.percentile(100),
                     static_cast<double>(huge_v));
}

TEST(LatencyHistogramTest, PercentileEdgesOrdered)
{
    Hist h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.record(v);
    double prev = -1.0;
    for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
        const double v = h.percentile(p);
        EXPECT_GE(v, prev) << "p" << p;
        prev = v;
    }
    EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
}

TEST(AtomicLatencyHistogramTest, MatchesPlainHistogram)
{
    AtomicLatencyHistogram atomic;
    Hist plain;
    for (std::uint64_t v : {0u, 1u, 63u, 64u, 65u, 4096u, 1u << 30}) {
        atomic.record(v);
        plain.record(v);
    }
    Hist merged;
    atomic.merge_into(merged);
    EXPECT_EQ(merged, plain);
}

TEST(AtomicLatencyHistogramTest, ConcurrentRecordsAllLand)
{
    AtomicLatencyHistogram atomic;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&atomic, t] {
            for (int i = 0; i < kPerThread; ++i)
                atomic.record(
                    static_cast<std::uint64_t>(t * 1000 + i % 997));
        });
    }
    for (auto& th : threads)
        th.join();
    Hist merged;
    atomic.merge_into(merged);
    EXPECT_EQ(merged.count(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(LatencyCollectorTest, SnapshotMergesShardsPerPath)
{
    LatencyCollector collector(/*sample_period=*/1,
                               /*outlier_cycles=*/0);
    // Same path from many tids lands in different shards but one
    // histogram; different paths stay separate.
    for (int tid = 0; tid < 40; ++tid)
        collector.record(tid, LatencyPath::malloc_fast, 10);
    collector.record(3, LatencyPath::free_spill, 777);

    LatencySnapshot snap = collector.snapshot();
    EXPECT_EQ(snap.path(LatencyPath::malloc_fast).count(), 40u);
    EXPECT_EQ(snap.path(LatencyPath::free_spill).count(), 1u);
    EXPECT_EQ(snap.path(LatencyPath::free_spill).max(), 777u);
    EXPECT_EQ(snap.path(LatencyPath::owner_drain).count(), 0u);
    EXPECT_EQ(snap.total_count(), 41u);
    EXPECT_EQ(snap.sample_period, 1u);
}

TEST(LatencyCollectorTest, TickHonorsSamplePeriod)
{
    LatencyCollector collector(/*sample_period=*/4,
                               /*outlier_cycles=*/0);
    // The countdown is thread-local and may be mid-stride from other
    // tests on this thread; after the first firing the cadence must
    // be exactly one in four.
    while (!collector.tick()) {
    }
    int fired = 0;
    for (int i = 0; i < 40; ++i)
        fired += collector.tick() ? 1 : 0;
    EXPECT_EQ(fired, 10);
}

TEST(LatencyCollectorTest, ExactModeTicksEveryOp)
{
    LatencyCollector collector(/*sample_period=*/1,
                               /*outlier_cycles=*/0);
    while (!collector.tick()) {
    }
    for (int i = 0; i < 16; ++i)
        EXPECT_TRUE(collector.tick());
}

TEST(LatencyCollectorTest, OutlierThreshold)
{
    LatencyCollector off(/*sample_period=*/1, /*outlier_cycles=*/0);
    EXPECT_FALSE(off.is_outlier(~std::uint64_t{0}));

    LatencyCollector on(/*sample_period=*/1, /*outlier_cycles=*/500);
    EXPECT_FALSE(on.is_outlier(499));
    EXPECT_TRUE(on.is_outlier(500));
    EXPECT_TRUE(on.is_outlier(501));
}

TEST(LatencyCollectorTest, OutlierRingRetainsNewest)
{
    LatencyCollector collector(/*sample_period=*/1,
                               /*outlier_cycles=*/100);
    const int total = LatencyCollector::kOutlierSlots + 10;
    for (int i = 0; i < total; ++i) {
        std::uintptr_t frames[2] = {0x1000u + i, 0x2000u};
        collector.record_outlier(
            /*timestamp=*/static_cast<std::uint64_t>(i),
            /*tid=*/i & 7, LatencyPath::malloc_fresh_map,
            /*cycles=*/200 + static_cast<std::uint64_t>(i), frames, 2);
    }
    EXPECT_EQ(collector.outliers(), static_cast<std::uint64_t>(total));
    std::vector<LatencyOutlier> kept = collector.recent_outliers();
    ASSERT_EQ(kept.size(),
              static_cast<std::size_t>(LatencyCollector::kOutlierSlots));
    // Oldest retained is record #10; newest is the last written.
    EXPECT_EQ(kept.front().timestamp, 10u);
    EXPECT_EQ(kept.back().timestamp,
              static_cast<std::uint64_t>(total - 1));
    EXPECT_EQ(kept.back().path, LatencyPath::malloc_fresh_map);
    EXPECT_EQ(kept.back().frame_count, 2);
    EXPECT_EQ(kept.back().frames[1], 0x2000u);
}

TEST(LatencyCollectorTest, NullFramesRecordZeroFrameCount)
{
    LatencyCollector collector(/*sample_period=*/1,
                               /*outlier_cycles=*/1);
    collector.record_outlier(1, 0, LatencyPath::free_fast, 50, nullptr,
                             8);
    std::vector<LatencyOutlier> kept = collector.recent_outliers();
    ASSERT_EQ(kept.size(), 1u);
    EXPECT_EQ(kept[0].frame_count, 0);
}

TEST(LatencyPathTest, NamesAreStable)
{
    EXPECT_STREQ(to_string(LatencyPath::malloc_fast), "malloc_fast");
    EXPECT_STREQ(to_string(LatencyPath::malloc_refill),
                 "malloc_refill");
    EXPECT_STREQ(to_string(LatencyPath::malloc_global_fetch),
                 "malloc_global_fetch");
    EXPECT_STREQ(to_string(LatencyPath::malloc_fresh_map),
                 "malloc_fresh_map");
    EXPECT_STREQ(to_string(LatencyPath::free_fast), "free_fast");
    EXPECT_STREQ(to_string(LatencyPath::free_spill), "free_spill");
    EXPECT_STREQ(to_string(LatencyPath::free_remote_push),
                 "free_remote_push");
    EXPECT_STREQ(to_string(LatencyPath::owner_drain), "owner_drain");
    EXPECT_STREQ(to_string(LatencyPath::malloc_huge), "malloc_huge");
    EXPECT_STREQ(to_string(LatencyPath::free_huge), "free_huge");
}

TEST(LatencyProbeTest, DeepestStageWins)
{
    LatencyProbe probe;
    EXPECT_FALSE(probe.active);
    probe.begin(1000);
    EXPECT_TRUE(probe.active);
    EXPECT_EQ(probe.t0, 1000u);
    probe.begin(2000);  // second begin must not restart the clock
    EXPECT_EQ(probe.t0, 1000u);

    probe.raise(LatencyPath::malloc_global_fetch);
    EXPECT_EQ(probe.stage, LatencyPath::malloc_global_fetch);
    probe.raise(LatencyPath::malloc_refill);  // shallower: ignored
    EXPECT_EQ(probe.stage, LatencyPath::malloc_global_fetch);
    probe.raise(LatencyPath::malloc_fresh_map);
    EXPECT_EQ(probe.stage, LatencyPath::malloc_fresh_map);
}

}  // namespace
}  // namespace obs
}  // namespace hoard
