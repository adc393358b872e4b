/** @file Unit tests for the malloc-style facade. */

#include "core/facade.h"

#include <gtest/gtest.h>
#include <pthread.h>

#include <cerrno>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/span_cache.h"
#include "core/superblock.h"
#include "os/reserved_arena.h"
#include "tests/core/span_cache_util.h"

namespace hoard {
namespace {

TEST(Facade, MallocFreeBasics)
{
    void* p = hoard_malloc(100);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xaa, 100);
    EXPECT_GE(hoard_usable_size(p), 100u);
    hoard_free(p);
    hoard_free(nullptr);  // no-op
}

TEST(Facade, MallocZeroGivesUniquePointers)
{
    void* a = hoard_malloc(0);
    void* b = hoard_malloc(0);
    EXPECT_NE(a, nullptr);
    EXPECT_NE(b, nullptr);
    EXPECT_NE(a, b);
    hoard_free(a);
    hoard_free(b);
}

TEST(Facade, CallocZeroes)
{
    auto* p = static_cast<unsigned char*>(hoard_calloc(100, 7));
    ASSERT_NE(p, nullptr);
    for (int i = 0; i < 700; ++i)
        EXPECT_EQ(p[i], 0u);
    // Dirty it, free, re-calloc: must be zero again despite reuse.
    std::memset(p, 0xff, 700);
    hoard_free(p);
    auto* q = static_cast<unsigned char*>(hoard_calloc(100, 7));
    for (int i = 0; i < 700; ++i)
        EXPECT_EQ(q[i], 0u);
    hoard_free(q);
}

TEST(Facade, CallocOverflowReturnsNull)
{
    std::size_t half = std::numeric_limits<std::size_t>::max() / 2 + 2;
    errno = 0;
    EXPECT_EQ(hoard_calloc(half, 2), nullptr);
    EXPECT_EQ(errno, ENOMEM);
}

TEST(Facade, CallocRecycledSmallBlockIsZeroed)
{
    // Regression for the huge-path memset skip: small blocks recycle
    // through free lists, so calloc must keep clearing them even
    // though huge spans are handed out untouched.
    const std::size_t bytes = 3000;
    auto* p = static_cast<unsigned char*>(hoard_malloc(bytes));
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xee, bytes);
    hoard_free(p);
    auto* q = static_cast<unsigned char*>(hoard_calloc(1, bytes));
    ASSERT_NE(q, nullptr);
    for (std::size_t i = 0; i < bytes; ++i)
        ASSERT_EQ(q[i], 0u) << "byte " << i;
    hoard_free(q);
}

TEST(Facade, CallocHugeIsZeroed)
{
    // Served memset-free from freshly mapped (zero) pages.
    const std::size_t bytes = 256 * 1024;
    auto* p = static_cast<unsigned char*>(hoard_calloc(1, bytes));
    ASSERT_NE(p, nullptr);
    for (std::size_t i = 0; i < bytes; i += 256)
        ASSERT_EQ(p[i], 0u) << "byte " << i;
    EXPECT_EQ(p[bytes - 1], 0u);
    hoard_free(p);
}

/**
 * Dirties a medium buffer of @p dirty bytes, frees it into the span
 * cache, and checks that calloc of @p bytes (by default the same size)
 * gets that very span back (so the test sees recycled memory, not a
 * fresh map) with every byte zero.
 */
void
expect_recycled_calloc_zeroed(std::size_t bytes, std::size_t dirty = 0)
{
    if (dirty == 0)
        dirty = bytes;
    std::vector<void*> live = testing_util::prime_span_cache(
        hoard_malloc, hoard_free, [] { hoard_release_free_memory(); });
    auto* p = static_cast<unsigned char*>(hoard_malloc(dirty));
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xee, dirty);
    hoard_free(p);
    auto* q = static_cast<unsigned char*>(hoard_calloc(1, bytes));
    ASSERT_EQ(q, p) << "the span was not recycled";
    for (std::size_t i = 0; i < bytes; ++i)
        ASSERT_EQ(q[i], 0u) << "byte " << i;
    hoard_free(q);
    for (void* l : live)
        hoard_free(l);
}

TEST(Facade, TinyAlignedRequestsHonourSixteenBytes)
{
    // A 1-byte request fits the 8-byte class, which is only 8-aligned;
    // asking for 16 must still get 16.
    std::vector<void*> blocks;
    for (int i = 0; i < 8; ++i) {
        void* p = nullptr;
        ASSERT_EQ(hoard_posix_memalign(&p, 16, 1), 0);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
        blocks.push_back(p);
        void* q = hoard_aligned_alloc(16, 1);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % 16, 0u);
        blocks.push_back(q);
    }
    for (void* p : blocks)
        hoard_free(p);
}

TEST(Facade, CallocRecycled5KiBSpanIsZeroed)
{
    expect_recycled_calloc_zeroed(std::size_t{5} << 10);
}

TEST(Facade, CallocRecycled32KiBSpanIsZeroed)
{
    expect_recycled_calloc_zeroed(std::size_t{32} << 10);
}

TEST(Facade, CallocRecycledTopMediumClassSpanIsZeroed)
{
    // The largest request whose span (header included) is the ceiling.
    expect_recycled_calloc_zeroed(SpanCache<NativePolicy>::kCeilingBytes -
                                  Superblock::header_bytes());
}

TEST(Facade, CallocCrossClassReuseIsZeroed)
{
    // A span that held 40 KiB serves a 200 KiB calloc: the pages past
    // its old contents were never touched and fault in zero.
    expect_recycled_calloc_zeroed(std::size_t{200} << 10,
                                  std::size_t{40} << 10);
}

TEST(Facade, CallocRecycledHugeSpanIsZeroed)
{
    // Above the span cache's ceiling every free decommits its span, so
    // a reused span refaults as zero pages and calloc skips the memset.
    const std::size_t bytes = 256 * 1024;
    auto* p = static_cast<unsigned char*>(hoard_malloc(bytes));
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xee, bytes);
    hoard_free(p);
    auto* q = static_cast<unsigned char*>(hoard_calloc(1, bytes));
    ASSERT_NE(q, nullptr);
    for (std::size_t i = 0; i < bytes; ++i)
        ASSERT_EQ(q[i], 0u) << "byte " << i;
    hoard_free(q);
}

TEST(Facade, ErrnoSetOnMallocExhaustion)
{
    errno = 0;
    EXPECT_EQ(hoard_malloc(std::numeric_limits<std::size_t>::max() / 4),
              nullptr);
    EXPECT_EQ(errno, ENOMEM);
}

TEST(Facade, ErrnoSetOnReallocExhaustionAndBlockSurvives)
{
    auto* p = static_cast<char*>(hoard_malloc(64));
    ASSERT_NE(p, nullptr);
    std::memcpy(p, "payload", 8);
    errno = 0;
    EXPECT_EQ(
        hoard_realloc(p, std::numeric_limits<std::size_t>::max() / 4),
        nullptr);
    EXPECT_EQ(errno, ENOMEM);
    EXPECT_STREQ(p, "payload");  // failure must not disturb the block
    hoard_free(p);
}

TEST(Facade, ReallocBehavesLikeLibc)
{
    auto* p = static_cast<char*>(hoard_realloc(nullptr, 10));
    ASSERT_NE(p, nullptr);
    std::memcpy(p, "123456789", 10);
    p = static_cast<char*>(hoard_realloc(p, 10000));
    EXPECT_STREQ(p, "123456789");
    EXPECT_EQ(hoard_realloc(p, 0), nullptr);
}

TEST(Facade, AlignedAlloc)
{
    void* p = hoard_aligned_alloc(512, 100);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 512, 0u);
    hoard_free(p);
}

TEST(Facade, AlignedAllocZeroSizeGivesFreeablePointer)
{
    // Size 0 clamps to 1 (like hoard_malloc) instead of tripping the
    // allocator's size validation.
    void* p = hoard_aligned_alloc(256, 0);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 256, 0u);
    hoard_free(p);
}

TEST(Facade, AlignedAllocRefusesWithoutAborting)
{
    const std::size_t half = global_allocator().config().superblock_bytes / 2;
    errno = 0;
    EXPECT_EQ(hoard_aligned_alloc(48, 100), nullptr);
    EXPECT_EQ(errno, EINVAL) << "not a power of two";
    errno = 0;
    EXPECT_EQ(hoard_aligned_alloc(0, 100), nullptr);
    EXPECT_EQ(errno, EINVAL);
    for (std::size_t align : {half * 2, half * 4, std::size_t{1} << 30}) {
        SCOPED_TRACE(align);
        errno = 0;
        EXPECT_EQ(hoard_aligned_alloc(align, 100), nullptr);
        EXPECT_EQ(errno, ENOMEM) << "a power of two past S/2 is unservable";
    }
    // S/2 itself is served, small and above S/2 in size.
    for (std::size_t size : {std::size_t{1}, half * 3}) {
        void* p = hoard_aligned_alloc(half, size);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % half, 0u);
        hoard_free(p);
    }
}

TEST(Facade, PosixMemalign)
{
    void* p = nullptr;
    EXPECT_EQ(hoard_posix_memalign(&p, 256, 100), 0);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 256, 0u);
    hoard_free(p);

    EXPECT_EQ(hoard_posix_memalign(&p, 3, 100), EINVAL);
    EXPECT_EQ(hoard_posix_memalign(&p, 4, 100), EINVAL)
        << "alignment must be a multiple of sizeof(void*)";
    EXPECT_EQ(hoard_posix_memalign(&p, 1 << 20, 100), ENOMEM)
        << "a valid alignment beyond S/2 cannot be served, not fatal";
    EXPECT_EQ(hoard_posix_memalign(nullptr, 256, 100), EINVAL);

    EXPECT_EQ(hoard_posix_memalign(&p, 256, 0), 0);
    hoard_free(p);
}

TEST(Facade, StatsAreLive)
{
    std::uint64_t before = hoard_stats().allocs.get();
    void* p = hoard_malloc(32);
    EXPECT_EQ(hoard_stats().allocs.get(), before + 1);
    hoard_free(p);
}

TEST(Facade, ShardedCountsFoldExactlyAfterJoin)
{
    // allocs and frees are per-thread shards; once the workers have
    // joined, the folded counts include every call they made.
    constexpr int kThreads = 4;
    constexpr int kCalls = 20000;
    const std::uint64_t allocs0 = hoard_stats().allocs.get();
    const std::uint64_t frees0 = hoard_stats().frees.get();
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([] {
            for (int i = 0; i < kCalls; ++i) {
                // Mostly small blocks, with a huge one now and then.
                void* p = hoard_malloc(i % 1000 == 0
                                           ? 64 * 1024
                                           : static_cast<std::size_t>(
                                                 16 + i % 700));
                hoard_free(p);
            }
        });
    }
    for (std::thread& w : workers)
        w.join();
    EXPECT_EQ(hoard_stats().allocs.get() - allocs0,
              std::uint64_t{kThreads} * kCalls);
    EXPECT_EQ(hoard_stats().frees.get() - frees0,
              std::uint64_t{kThreads} * kCalls);
}

/** What a worker's late pthread key destructor saw (see below). */
struct LateFree
{
    pthread_key_t key;
    void* block = nullptr;
    int rounds = 0;
    bool slot_empty = false;
    bool slot_stayed_empty = false;
    unsigned shard = 0;
};

/**
 * A key destructor that runs after the allocator's own exit hook (it
 * re-arms itself for a later round until the hook has emptied the
 * thread's cache slot): it frees a block the thread allocated and
 * churns another, which must take the locked path and leave the slot
 * empty rather than reach the magazine metadata the hook recycled, and
 * count on the overflow shard rather than the one the hook released.
 */
void
late_free(void* arg)
{
    auto* late = static_cast<LateFree*>(arg);
    if (NativePolicy::thread_cache_slot() != nullptr &&
        ++late->rounds < 4) {
        pthread_setspecific(late->key, late);
        return;
    }
    late->slot_empty = NativePolicy::thread_cache_slot() == nullptr;
    hoard_free(late->block);
    hoard_free(hoard_malloc(48));
    late->slot_stayed_empty = NativePolicy::thread_cache_slot() == nullptr;
    late->shard = detail::stat_shard();
}

TEST(FacadeThreadExit, FreesAfterTheExitHookTakeTheLockedPath)
{
    ASSERT_GT(global_allocator().config().thread_cache_blocks, 0u);
    LateFree late;
    ASSERT_EQ(pthread_key_create(&late.key, &late_free), 0);
    const std::uint64_t allocs0 = hoard_stats().allocs.get();
    const std::uint64_t frees0 = hoard_stats().frees.get();
    std::thread([&late] {
        late.block = hoard_malloc(48);
        hoard_free(hoard_malloc(48));  // a magazine hit
        ASSERT_NE(NativePolicy::thread_cache_slot(), nullptr);
        pthread_setspecific(late.key, &late);
    }).join();
    pthread_key_delete(late.key);
    EXPECT_TRUE(late.slot_empty);
    EXPECT_TRUE(late.slot_stayed_empty);
    EXPECT_EQ(late.shard, detail::kOverflowShard);
    EXPECT_EQ(hoard_stats().allocs.get() - allocs0, 3u);
    EXPECT_EQ(hoard_stats().frees.get() - frees0, 3u);
}

using FacadeThreadExitDeathTest = ::testing::Test;

TEST(FacadeThreadExitDeathTest, MainThreadFreesFromExitTimeDestructors)
{
    // exit() runs the main thread's thread_local destructors, then the
    // static ones (a gtest binary's UnitTest is one), and never the
    // thread's key destructors: both kinds must find its magazines
    // alive.  The thread_local is touched before this thread's first
    // allocator call, so its destructor runs after anything the
    // allocator could have registered for the thread.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    struct FreeAtExit
    {
        void* block = nullptr;
        ~FreeAtExit()
        {
            hoard_free(block);
            hoard_free(hoard_malloc(48));
        }
    };
    EXPECT_EXIT(
        {
            static thread_local FreeAtExit at_thread_exit;
            at_thread_exit.block = nullptr;
            static FreeAtExit at_exit;
            at_thread_exit.block = hoard_malloc(48);
            at_exit.block = hoard_malloc(48);
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(Facade, GlobalAllocatorIsStable)
{
    EXPECT_EQ(&global_allocator(), &global_allocator());
}

TEST(Facade, MixedSizesStressRoundTrip)
{
    std::vector<void*> blocks;
    for (int i = 1; i <= 300; ++i) {
        void* p = hoard_malloc(static_cast<std::size_t>(i * 13 % 5000) + 1);
        ASSERT_NE(p, nullptr);
        blocks.push_back(p);
    }
    for (void* p : blocks)
        hoard_free(p);
    global_allocator().check_invariants();
}

/**
 * The facade reads its HOARD_* knobs once, when the singleton is built,
 * so each check runs in a fresh child process (threadsafe death-test
 * style re-executes the binary).  The child builds the singleton with
 * stderr captured, replays what it captured for the matcher, and exits
 * 0 only when @p check holds for the captured text.
 */
template <typename Check>
void
build_singleton_and_exit(Check check)
{
    testing::internal::CaptureStderr();
    global_allocator();
    const std::string err = testing::internal::GetCapturedStderr();
    std::fputs(err.c_str(), stderr);
    std::exit(check(err) ? 0 : 1);
}

std::size_t
count_lines(const std::string& text, const char* needle)
{
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

using FacadeEnvDeathTest = ::testing::Test;

TEST(FacadeEnvDeathTest, MalformedKnobsAreReportedOnceAndIgnored)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    static const char* const kBad[][2] = {
        {"HOARD_RSS_TARGET", "64M"},
        {"HOARD_PURGE_AGE", "1s"},
        {"HOARD_PURGE_INTERVAL", "-1"},
        {"HOARD_PROFILE_RATE", "512K"},
        {"HOARD_SUPERBLOCK_BYTES", "64K"},
        {"HOARD_LATENCY_PERIOD", "12abc"},
        {"HOARD_BG", ""},
        {"HOARD_BG_INTERVAL", "100000"},  // well-formed, but removed
        {"HOARD_HARDENED_FREE", "yes"},
        {"HOARD_LATENCY", "yes"},
        {"HOARD_BAD_FREE", "log"},
        {"HOARD_ARENA_SPAN", "4M"},
    };
    EXPECT_EXIT(
        {
            for (const auto& kv : kBad)
                setenv(kv[0], kv[1], 1);
            build_singleton_and_exit([](const std::string& err) {
                const Config defaults;
                const Config& c = global_allocator().config();
                const auto* arena =
                    dynamic_cast<const os::ReservedArenaProvider*>(
                        &global_allocator().provider());
                bool ok =
                    c.rss_target_bytes == defaults.rss_target_bytes &&
                    c.purge_age_ticks == defaults.purge_age_ticks &&
                    c.purge_interval_ticks ==
                        defaults.purge_interval_ticks &&
                    c.profile_sample_rate ==
                        defaults.profile_sample_rate &&
                    c.superblock_bytes == defaults.superblock_bytes &&
                    c.latency_sample_period ==
                        defaults.latency_sample_period &&
                    c.hardened_free == defaults.hardened_free &&
                    c.latency_histograms ==
                        defaults.latency_histograms &&
                    c.on_bad_free == defaults.on_bad_free &&
                    arena != nullptr &&
                    arena->options().max_span_bytes ==
                        os::ReservedArenaProvider::Options()
                            .max_span_bytes;
                // Exactly one line per variable, and nothing else.
                ok = ok && count_lines(err, "\n") == std::size(kBad);
                for (const auto& kv : kBad) {
                    const std::string line = std::string("hoard: ignoring ") +
                                             kv[0] + "=\"" + kv[1] + "\"";
                    ok = ok && count_lines(err, line.c_str()) == 1;
                }
                return ok;
            });
        },
        ::testing::ExitedWithCode(0), "HOARD_RSS_TARGET=\"64M\"");
}

TEST(FacadeEnvDeathTest, ValidKnobsApplySilently)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("HOARD_RSS_TARGET", "67108864", 1);
            setenv("HOARD_SUPERBLOCK_BYTES", "65536", 1);
            setenv("HOARD_HARDENED_FREE", "false", 1);
            build_singleton_and_exit([](const std::string& err) {
                const Config& c = global_allocator().config();
                return err.empty() && c.rss_target_bytes == 67108864 &&
                       c.superblock_bytes == 65536 &&
                       !c.hardened_free;
            });
        },
        ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace hoard
