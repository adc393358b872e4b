/** @file Unit tests for the Chrome trace / Prometheus / human exporters. */

#include "obs/trace_export.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/event_ring.h"
#include "obs/snapshot.h"
#include "tests/common/json_check.h"

namespace hoard {
namespace obs {
namespace {

using testutil::json_valid;

EventRecorder
recorder_with_events()
{
    EventRecorder recorder(16);
    recorder.record(1000, 0, EventKind::cache_miss, 1, 3, 64);
    recorder.record(2000, 1, EventKind::class_refill, 2, 3, 8192);
    recorder.record(3000, 0, EventKind::transfer_to_global, 1, 3, 8192);
    recorder.record(4000, 2, EventKind::huge_alloc, 0, -1, 1 << 20);
    return recorder;
}

AllocatorSnapshot
sample_snapshot()
{
    AllocatorSnapshot snap;
    snap.allocator_name = "hoard";
    snap.superblock_bytes = 8192;
    snap.empty_fraction = 0.25;
    snap.release_threshold = 0.5;
    snap.slack_superblocks = 2;
    snap.heap_count = 2;
    for (int i = 0; i < 3; ++i) {
        HeapSnapshot h;
        h.index = i;
        h.in_use = static_cast<std::uint64_t>(i) * 1000;
        h.held = static_cast<std::uint64_t>(i) * 8192;
        if (i == 2) {
            ClassSnapshot c;
            c.size_class = 3;
            c.block_bytes = 64;
            c.superblocks = 2;
            c.used_blocks = 31;
            c.capacity_blocks = 254;
            c.group_counts.assign(9, 0);
            c.group_counts[1] = 2;
            h.classes.push_back(c);
            h.lock.acquires = 10;
            h.lock.contended = 2;
            h.lock.wait.record(500);
            h.lock.wait.record(900);
        }
        snap.heaps.push_back(std::move(h));
    }
    snap.stats.in_use_bytes = 3000;
    snap.stats.held_bytes = 24576;
    snap.stats.huge_cache_releases = 5;
    snap.stats.medium_reuses = 6;
    snap.stats.medium_decommits = 7;
    return snap;
}

TEST(ChromeTrace, EmitsValidJson)
{
    std::ostringstream os;
    write_chrome_trace(os, recorder_with_events());
    std::string out = os.str();
    EXPECT_TRUE(json_valid(out)) << out;
}

TEST(ChromeTrace, ContainsEveryEventWithMetadata)
{
    std::ostringstream os;
    write_chrome_trace(os, recorder_with_events());
    std::string out = os.str();
    EXPECT_NE(out.find("\"name\":\"cache_miss\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"class_refill\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"transfer_to_global\""),
              std::string::npos);
    EXPECT_NE(out.find("\"name\":\"huge_alloc\""), std::string::npos);
    // Instant-event phase markers and the drop accounting footer.
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(out.find("\"recorded\":4"), std::string::npos);
    EXPECT_NE(out.find("\"dropped\":0"), std::string::npos);
    // The huge event's sentinel size class survives as a signed value.
    EXPECT_NE(out.find("\"size_class\":-1"), std::string::npos);
}

TEST(ChromeTrace, TimestampScalingIsApplied)
{
    // ts_per_us=1000 (ns -> us): 2000 ns must print as 2.000 us.
    std::ostringstream os;
    write_chrome_trace(os, recorder_with_events(), 1000.0);
    EXPECT_NE(os.str().find("\"ts\":2.000"), std::string::npos);

    // Identity scaling keeps virtual cycles as-is.
    std::ostringstream raw;
    write_chrome_trace(raw, recorder_with_events(), 1.0);
    EXPECT_NE(raw.str().find("\"ts\":2000.000"), std::string::npos);
}

TEST(ChromeTrace, EmptyRecorderStillValid)
{
    EventRecorder empty(2);
    std::ostringstream os;
    write_chrome_trace(os, empty);
    std::string out = os.str();
    EXPECT_TRUE(json_valid(out)) << out;
    EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(out.find("\"recorded\":0"), std::string::npos);
}

TEST(JsonChecker, CatchesMalformedDocuments)
{
    // Sanity-check the checker itself so a vacuous pass can't hide.
    EXPECT_TRUE(json_valid("{\"a\":[1,2.5,-3e2,\"x\\n\",true,null]}"));
    EXPECT_FALSE(json_valid("{\"a\":1,}"));
    EXPECT_FALSE(json_valid("{\"a\":1} junk"));
    EXPECT_FALSE(json_valid("[1,2"));
    EXPECT_FALSE(json_valid("{'a':1}"));
    EXPECT_FALSE(json_valid("{\"a\":01}"));
}

TEST(Prometheus, EmitsWellFormedExposition)
{
    std::ostringstream os;
    write_prometheus(os, sample_snapshot());
    std::string out = os.str();

    // Every metric family gets HELP/TYPE headers.
    EXPECT_NE(out.find("# HELP hoard_heap_in_use_bytes"),
              std::string::npos);
    EXPECT_NE(out.find("# TYPE hoard_heap_in_use_bytes gauge"),
              std::string::npos);
    EXPECT_NE(out.find("# TYPE hoard_lock_acquires_total counter"),
              std::string::npos);

    // Labeled samples carry the heap index and values.
    EXPECT_NE(out.find("hoard_heap_in_use_bytes{heap=\"1\"} 1000"),
              std::string::npos);
    EXPECT_NE(out.find("hoard_heap_superblocks{heap=\"2\","
                       "size_class=\"3\"} 2"),
              std::string::npos);
    EXPECT_NE(out.find("hoard_lock_acquires_total{heap=\"2\"} 10"),
              std::string::npos);
    EXPECT_NE(out.find("quantile=\"0.99\""), std::string::npos);

    // Global totals appear unlabeled.
    EXPECT_NE(out.find("hoard_in_use_bytes 3000"), std::string::npos);
    EXPECT_NE(out.find("hoard_held_bytes 24576"), std::string::npos);
    EXPECT_NE(out.find("hoard_huge_cache_releases_total 5"),
              std::string::npos);
    EXPECT_NE(out.find("hoard_medium_reuses_total 6"), std::string::npos);
    EXPECT_NE(out.find("hoard_medium_decommits_total 7"),
              std::string::npos);

    // Exposition format: no tabs, every non-empty line is either a
    // comment or "name{labels} value".
    std::istringstream lines(out);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        EXPECT_EQ(line.find('\t'), std::string::npos) << line;
        if (line[0] == '#')
            continue;
        std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_GT(space, 0u) << line;
    }
}

TEST(Prometheus, SkipsGlobalHeapSlackSample)
{
    std::ostringstream os;
    write_prometheus(os, sample_snapshot());
    EXPECT_EQ(os.str().find("hoard_heap_invariant_slack_bytes"
                            "{heap=\"0\"}"),
              std::string::npos);
}

TEST(HumanDump, SummarizesVerdictsAndHeaps)
{
    std::ostringstream os;
    write_human(os, sample_snapshot());
    std::string out = os.str();
    EXPECT_NE(out.find("hoard snapshot"), std::string::npos);
    EXPECT_NE(out.find("reconciles:"), std::string::npos);
    EXPECT_NE(out.find("invariant:"), std::string::npos);
    EXPECT_NE(out.find("heap 0 (global)"), std::string::npos);
    EXPECT_NE(out.find("class 3 (64 B)"), std::string::npos);
    EXPECT_NE(out.find("lock(acq=10"), std::string::npos);
    EXPECT_NE(out.find("huge give-backs 5"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace hoard
