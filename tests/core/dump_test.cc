/** @file Tests for the human-readable heap report (obs::write_human). */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/hoard_allocator.h"
#include "obs/trace_export.h"
#include "policy/native_policy.h"

namespace hoard {
namespace {

std::string
human(HoardAllocator<NativePolicy>& allocator)
{
    std::ostringstream os;
    obs::write_human(os, allocator.take_snapshot());
    return os.str();
}

TEST(Dump, ReportsConfigAndHeaps)
{
    Config config;
    config.heap_count = 3;
    HoardAllocator<NativePolicy> allocator(config);
    NativePolicy::rebind_thread_index(0);
    std::vector<void*> blocks;
    for (int i = 0; i < 300; ++i)
        blocks.push_back(allocator.allocate(64));

    const std::string out = human(allocator);
    EXPECT_NE(out.find("S=8192"), std::string::npos);
    EXPECT_NE(out.find("P=3"), std::string::npos);
    EXPECT_NE(out.find("heap 0 (global)"), std::string::npos);
    EXPECT_NE(out.find("superblock(s)"), std::string::npos);
    EXPECT_NE(out.find("64 B"), std::string::npos);

    for (void* p : blocks)
        allocator.deallocate(p);
}

TEST(Dump, EmptyAllocatorStillPrints)
{
    HoardAllocator<NativePolicy> allocator{Config{}};
    EXPECT_NE(human(allocator).find("heap 0 (global)"), std::string::npos);
}

TEST(Dump, ShowsThreadCacheWhenEnabled)
{
    Config config;
    config.thread_cache_blocks = 16;
    config.thread_cache_batch = 1;  // refill singly: exactly one parks
    HoardAllocator<NativePolicy> allocator(config);
    void* p = allocator.allocate(32);
    allocator.deallocate(p);  // parks in the cache
    EXPECT_NE(human(allocator).find(" cached 32 "), std::string::npos);
    allocator.flush_thread_caches();
}

}  // namespace
}  // namespace hoard
