/**
 * @file
 * Unit tests for the reserved-arena page provider: reservation vs
 * commit accounting, syscall-free span recycling, purge/unpurge, the
 * over-max-span fallback, through the protected syscall seams
 * survival of reservation, commit, and decommit failures, and a fork
 * taken while another thread is inside arena growth.
 */

#include "os/reserved_arena.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/mathutil.h"
#include "common/memutil.h"
#include "os/page_provider.h"

namespace hoard {
namespace os {
namespace {

constexpr std::size_t kSpan = std::size_t{64} << 10;  // 64 KiB spans

/** Small arenas so tests reserve 4 MiB, not the production 1 GiB. */
ReservedArenaProvider::Options
small_options()
{
    ReservedArenaProvider::Options o;
    o.arena_bytes = std::size_t{4} << 20;
    o.max_span_bytes = std::size_t{1} << 20;
    return o;
}

TEST(ReservedArena, SpansAreAlignedZeroedWritable)
{
    ReservedArenaProvider provider(small_options());
    for (std::size_t bytes : {std::size_t{4096}, std::size_t{8192},
                              kSpan, std::size_t{1} << 20}) {
        auto* p =
            static_cast<unsigned char*>(provider.map(bytes, bytes));
        ASSERT_NE(p, nullptr) << bytes;
        EXPECT_TRUE(detail::is_aligned(p, bytes));
        for (std::size_t i = 0; i < bytes; i += 1021)
            EXPECT_EQ(p[i], 0u);
        std::memset(p, 0xcd, bytes);
        EXPECT_EQ(p[bytes - 1], 0xcd);
        provider.unmap(p, bytes);
    }
}

TEST(ReservedArena, ReservesArenasCommitsLazily)
{
    ReservedArenaProvider provider(small_options());
    EXPECT_EQ(provider.reserved_bytes(), 0u);
    EXPECT_EQ(provider.mapped_bytes(), 0u);

    void* p = provider.map(kSpan, kSpan);
    ASSERT_NE(p, nullptr);
    // One whole arena is reserved, but only the carved span commits.
    EXPECT_EQ(provider.reserved_bytes(), provider.options().arena_bytes);
    EXPECT_EQ(provider.mapped_bytes(), kSpan);
    EXPECT_EQ(provider.reservations(), 1u);
    EXPECT_EQ(provider.commit_calls(), 1u);
    EXPECT_EQ(provider.span_carves(), 1u);

    // A second span splits from the same reservation: no new arena.
    void* q = provider.map(kSpan, kSpan);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(provider.reservations(), 1u);
    EXPECT_EQ(provider.mapped_bytes(), 2 * kSpan);

    provider.unmap(p, kSpan);
    provider.unmap(q, kSpan);
    EXPECT_EQ(provider.mapped_bytes(), 0u);
    // Unmap decommits but keeps the address space reserved.
    EXPECT_EQ(provider.reserved_bytes(), provider.options().arena_bytes);
}

TEST(ReservedArena, RecyclesSpansWithoutCommitSyscalls)
{
    ReservedArenaProvider provider(small_options());
    void* p = provider.map(kSpan, kSpan);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0x5a, kSpan);
    provider.unmap(p, kSpan);
    EXPECT_EQ(provider.decommit_calls(), 1u);

    // The recycled span comes back at the same address, already RW
    // (zero commit syscalls), and refaults zeroed after the
    // MADV_DONTNEED in unmap().
    auto* q = static_cast<unsigned char*>(provider.map(kSpan, kSpan));
    EXPECT_EQ(q, p);
    EXPECT_EQ(provider.commit_calls(), 1u);
    EXPECT_EQ(provider.span_recycles(), 1u);
    for (std::size_t i = 0; i < kSpan; i += 1021)
        EXPECT_EQ(q[i], 0u);
    provider.unmap(q, kSpan);
}

TEST(ReservedArena, ManySpansDistinctAndNonOverlapping)
{
    ReservedArenaProvider provider(small_options());
    std::vector<char*> spans;
    for (int i = 0; i < 32; ++i) {
        auto* p = static_cast<char*>(provider.map(kSpan, kSpan));
        ASSERT_NE(p, nullptr);
        for (char* q : spans) {
            EXPECT_TRUE(p + kSpan <= q || q + kSpan <= p)
                << "span overlap";
        }
        std::memset(p, i + 1, kSpan);
        spans.push_back(p);
    }
    for (std::size_t i = 0; i < spans.size(); ++i)
        EXPECT_EQ(spans[i][kSpan - 1], static_cast<char>(i + 1));
    for (char* p : spans)
        provider.unmap(p, kSpan);
    EXPECT_EQ(provider.mapped_bytes(), 0u);
}

TEST(ReservedArena, PurgeDropsCommittedKeepsSpanMapped)
{
    ReservedArenaProvider provider(small_options());
    auto* p = static_cast<unsigned char*>(provider.map(kSpan, kSpan));
    ASSERT_NE(p, nullptr);
    std::memset(p, 0x77, kSpan);
    EXPECT_EQ(provider.mapped_bytes(), kSpan);

    // Purge the tail of the span (as the allocator purges a
    // superblock's payload while keeping its header page committed).
    const std::size_t page = page_bytes();
    ASSERT_TRUE(provider.purge(p + page, kSpan - page));
    EXPECT_EQ(provider.mapped_bytes(), page);
    // The range is still mapped: reads refault zeroed pages, the
    // untouched head keeps its data.
    EXPECT_EQ(p[0], 0x77u);
    EXPECT_EQ(p[page], 0u);
    EXPECT_EQ(p[kSpan - 1], 0u);

    provider.unpurge(p + page, kSpan - page);
    EXPECT_EQ(provider.mapped_bytes(), kSpan);
    std::memset(p, 0x78, kSpan);
    provider.unmap(p, kSpan);
    EXPECT_EQ(provider.mapped_bytes(), 0u);
}

TEST(ReservedArena, FallbackServesOverMaxSpanRequests)
{
    ReservedArenaProvider provider(small_options());
    const std::size_t huge = provider.options().max_span_bytes * 2;
    auto* p = static_cast<char*>(provider.map(huge, kSpan));
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(detail::is_aligned(p, kSpan));
    EXPECT_EQ(provider.fallback_maps(), 1u);
    // Fallback mappings are committed memory: both gauges charge.
    EXPECT_EQ(provider.mapped_bytes(), huge);
    EXPECT_EQ(provider.reserved_bytes(), huge);
    std::memset(p, 0x31, huge);
    provider.unmap(p, huge);
    EXPECT_EQ(provider.mapped_bytes(), 0u);
    EXPECT_EQ(provider.reserved_bytes(), 0u);
}

TEST(ReservedArena, FallbackServesOverAlignedRequests)
{
    // Alignment stricter than the natural span size cannot use the
    // carve path (unmap could not recompute the span from bytes
    // alone), so it over-maps and trims like the mmap provider.
    ReservedArenaProvider provider(small_options());
    void* p = provider.map(4096, std::size_t{2} << 20);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(detail::is_aligned(p, std::size_t{2} << 20));
    EXPECT_EQ(provider.fallback_maps(), 1u);
    provider.unmap(p, 4096);
    EXPECT_EQ(provider.mapped_bytes(), 0u);
}

/** Syscall-seam override: each os_* hook can be failed on demand. */
class FlakyArena : public ReservedArenaProvider
{
  public:
    using ReservedArenaProvider::ReservedArenaProvider;

    bool fail_reserve = false;
    bool fail_commit = false;
    bool fail_decommit = false;
    bool fail_map_rw = false;

  protected:
    void*
    os_reserve(std::size_t bytes) override
    {
        return fail_reserve ? nullptr
                            : ReservedArenaProvider::os_reserve(bytes);
    }
    bool
    os_commit(void* p, std::size_t bytes) override
    {
        return !fail_commit &&
               ReservedArenaProvider::os_commit(p, bytes);
    }
    bool
    os_decommit(void* p, std::size_t bytes) override
    {
        return !fail_decommit &&
               ReservedArenaProvider::os_decommit(p, bytes);
    }
    void*
    os_map_rw(std::size_t bytes) override
    {
        return fail_map_rw ? nullptr
                           : ReservedArenaProvider::os_map_rw(bytes);
    }
};

TEST(ReservedArenaFaults, ReservationFailureFallsBackThenFailsClean)
{
    FlakyArena provider(small_options());
    provider.fail_reserve = true;

    // No arena can be reserved; the span request degrades to the
    // plain-mmap fallback instead of crashing.
    void* p = provider.map(kSpan, kSpan);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(provider.fallback_maps(), 1u);
    EXPECT_EQ(provider.reservations(), 0u);
    std::memset(p, 0x42, kSpan);
    provider.unmap(p, kSpan);

    // With the fallback failing too, map reports OOM with nullptr and
    // clean gauges — the contract the allocator's reclaim path needs.
    provider.fail_map_rw = true;
    EXPECT_EQ(provider.map(kSpan, kSpan), nullptr);
    EXPECT_EQ(provider.mapped_bytes(), 0u);
    EXPECT_EQ(provider.reserved_bytes(), 0u);

    // Pressure passes: the same provider serves spans again, from the
    // fallback, because a refused reservation is final for the
    // provider; it is not asked for again.
    provider.fail_reserve = false;
    provider.fail_map_rw = false;
    void* q = provider.map(kSpan, kSpan);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(provider.reservations(), 0u);
    EXPECT_EQ(provider.fallback_maps(), 2u);
    provider.unmap(q, kSpan);
}

TEST(ReservedArenaFaults, CommitFailureReportsOomAndRetries)
{
    FlakyArena provider(small_options());
    provider.fail_commit = true;

    // The span carves but cannot be committed: nullptr, nothing
    // charged, and the span is parked for a later retry.
    EXPECT_EQ(provider.map(kSpan, kSpan), nullptr);
    EXPECT_EQ(provider.commit_calls(), 1u);
    EXPECT_EQ(provider.mapped_bytes(), 0u);

    provider.fail_commit = false;
    auto* p = static_cast<unsigned char*>(provider.map(kSpan, kSpan));
    ASSERT_NE(p, nullptr);
    // The retry recycled the parked span and committed it this time.
    EXPECT_EQ(provider.span_recycles(), 1u);
    EXPECT_EQ(provider.commit_calls(), 2u);
    EXPECT_EQ(provider.mapped_bytes(), kSpan);
    std::memset(p, 0x13, kSpan);
    provider.unmap(p, kSpan);
}

TEST(ReservedArenaFaults, DecommitFailureOnUnmapLeavesVaHole)
{
    FlakyArena provider(small_options());
    void* p = provider.map(kSpan, kSpan);
    ASSERT_NE(p, nullptr);

    provider.fail_decommit = true;
    provider.unmap(p, kSpan);
    EXPECT_EQ(provider.decommit_failures(), 1u);
    // The span was released outright (a permanent VA hole): committed
    // and reserved both drop, and nothing was parked for recycling.
    EXPECT_EQ(provider.mapped_bytes(), 0u);
    EXPECT_EQ(provider.reserved_bytes(),
              provider.options().arena_bytes - kSpan);

    // The provider keeps working: the next map carves a fresh span.
    provider.fail_decommit = false;
    auto* q = static_cast<unsigned char*>(provider.map(kSpan, kSpan));
    ASSERT_NE(q, nullptr);
    EXPECT_NE(q, p);
    std::memset(q, 0x29, kSpan);
    provider.unmap(q, kSpan);
    EXPECT_EQ(provider.mapped_bytes(), 0u);
}

TEST(ReservedArenaFaults, PurgeFailureLeavesRangeCommitted)
{
    FlakyArena provider(small_options());
    auto* p = static_cast<unsigned char*>(provider.map(kSpan, kSpan));
    ASSERT_NE(p, nullptr);
    std::memset(p, 0x66, kSpan);

    provider.fail_decommit = true;
    EXPECT_FALSE(provider.purge(p, kSpan));
    EXPECT_EQ(provider.decommit_failures(), 1u);
    // "Nothing happened": the gauge is unchanged and the data intact.
    EXPECT_EQ(provider.mapped_bytes(), kSpan);
    EXPECT_EQ(p[kSpan - 1], 0x66u);

    provider.fail_decommit = false;
    EXPECT_TRUE(provider.purge(p, kSpan));
    EXPECT_EQ(provider.mapped_bytes(), 0u);
    provider.unpurge(p, kSpan);
    provider.unmap(p, kSpan);
}

/** Stops the first arena growth inside os_reserve, with the growth
    lock held, until the test releases it. */
class LatchedArena : public ReservedArenaProvider
{
  public:
    using ReservedArenaProvider::ReservedArenaProvider;

    std::atomic<bool> entered{false};
    std::atomic<bool> released{false};

  protected:
    void*
    os_reserve(std::size_t bytes) override
    {
        if (!entered.exchange(true)) {
            while (!released.load())
                std::this_thread::yield();
        }
        return ReservedArenaProvider::os_reserve(bytes);
    }
};

TEST(ReservedArenaFork, ChildGrowsAfterAForkDuringGrowth)
{
    // One max span per arena, so every max-span map past the first
    // grows the arena set.
    ReservedArenaProvider::Options o;
    o.arena_bytes = std::size_t{1} << 20;
    o.max_span_bytes = std::size_t{1} << 20;
    LatchedArena provider(o);
    std::thread grower([&provider] {
        void* p = provider.map(kSpan, kSpan);
        if (p != nullptr)
            provider.unmap(p, kSpan);
    });
    while (!provider.entered.load())
        std::this_thread::yield();

    // The grower is stopped inside growth.  Fork as the facade's
    // handlers do: prepare_fork() takes the growth lock, so it waits
    // for the grower, which a helper lets go once the fork has begun.
    std::atomic<bool> forking{false};
    std::thread releaser([&] {
        while (!forking.load())
            std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        provider.released.store(true);
    });
    forking.store(true);
    provider.prepare_fork();
    const pid_t pid = fork();
    if (pid == 0) {
        // Child: no gtest here.  A growth lock copied held would hang
        // the growth below; the alarm turns that into a failure.
        provider.after_fork();
        alarm(10);
        // The grower may not have carved from its new arena before the
        // fork, so the first map can still fit; the second cannot.
        const std::uint64_t before = provider.reservations();
        for (int i = 0; i < 2 && provider.reservations() == before; ++i) {
            if (provider.map(std::size_t{1} << 20, std::size_t{1} << 20) ==
                nullptr)
                _exit(1);
        }
        _exit(provider.reservations() > before ? 0 : 2);
    }
    provider.after_fork();
    releaser.join();
    grower.join();
    ASSERT_GT(pid, 0);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "the child hung in arena growth";
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace os
}  // namespace hoard
