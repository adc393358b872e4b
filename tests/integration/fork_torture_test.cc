/**
 * @file
 * Fork torture for the global instance: fork() while sibling threads
 * are mid-malloc/mid-free, then prove the child inherited a working
 * allocator — every lock released, remote queues settled, magazines
 * flushed, and the gauges recounted to byte-exact reconciliation
 * (snapshot.reconciles()).  Exercises the pthread_atfork handlers the
 * LD_PRELOAD shim installs (hoard_install_atfork; docs/SHIM.md).
 *
 * Children never run gtest assertions: they report through their exit
 * status and leave with _exit (no static destructors in a forked
 * child of a threaded parent).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "core/facade.h"

/** TSan aborts forked children of threaded parents by default; this
    test exists precisely to fork under thread churn. */
extern "C" const char*
__tsan_default_options()
{
    return "die_after_fork=0";
}

namespace hoard {
namespace {

/**
 * Child-side verdict: the inherited allocator must serve a fresh
 * churn, reconcile byte-exactly, and pass the emptiness invariant.
 * Exit codes name the failing check for the parent's message.
 */
int
child_verdict()
{
    std::vector<void*> blocks;
    blocks.reserve(256);
    for (std::size_t i = 0; i < 256; ++i) {
        void* p = hoard_malloc(i % 1999 + 1);
        if (p == nullptr)
            return 1;
        blocks.push_back(p);
    }
    void* big = hoard_malloc(32768);  // huge path too
    if (big == nullptr)
        return 1;
    hoard_free(big);
    for (void* p : blocks)
        hoard_free(p);

    obs::AllocatorSnapshot snap = hoard_snapshot();
    if (!snap.reconciles())
        return 2;
    if (!snap.all_heaps_satisfy_invariant())
        return 3;
    if (!global_allocator().check_invariants())
        return 4;
    return 0;
}

/** Allocation churn that keeps the allocator's locks hot while the
    main or a sibling thread forks.  One allocation in 16 is medium, so
    spans move in and out of the span cache across the fork too. */
void
churn(std::atomic<bool>& stop, int tid)
{
    std::vector<void*> slots(64, nullptr);
    std::uint64_t rng =
        0x9e3779b97f4a7c15ull ^ static_cast<std::uint64_t>(tid);
    while (!stop.load(std::memory_order_relaxed)) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        std::size_t slot = (rng >> 20) % slots.size();
        if (slots[slot] != nullptr) {
            hoard_free(slots[slot]);
            slots[slot] = nullptr;
        } else {
            const std::size_t n = (rng >> 60) == 0
                                      ? 4096 + (rng >> 33) % (60 << 10)
                                      : (rng >> 33) % 2048 + 1;
            slots[slot] = hoard_malloc(n);
        }
    }
    for (void* p : slots)
        if (p != nullptr)
            hoard_free(p);
}

/** Churn that trades blocks with sibling threads through @p table:
    each step parks a fresh allocation in a random slot and frees what
    the slot held, most often a sibling's block from another heap, so
    every thread's outbox keeps sending chains home across the fork. */
void
trade(std::atomic<bool>& stop, std::vector<std::atomic<void*>>& table,
      int tid)
{
    std::uint64_t rng =
        0x9e3779b97f4a7c15ull ^ static_cast<std::uint64_t>(tid);
    while (!stop.load(std::memory_order_relaxed)) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        void* p = hoard_malloc((rng >> 33) % 512 + 1);
        void* old = table[(rng >> 20) % table.size()].exchange(
            p, std::memory_order_acq_rel);
        if (old != nullptr)
            hoard_free(old);
    }
}

/** Forks @p rounds times, waits each child, returns the first nonzero
    child verdict (0 when every child passed). */
int
fork_rounds(int rounds)
{
    for (int round = 0; round < rounds; ++round) {
        pid_t pid = fork();
        if (pid < 0)
            return 100;
        if (pid == 0)
            _exit(child_verdict());
        int status = 0;
        if (waitpid(pid, &status, 0) != pid)
            return 101;
        if (!WIFEXITED(status))
            return 102;
        if (WEXITSTATUS(status) != 0)
            return WEXITSTATUS(status);
    }
    return 0;
}

TEST(ForkTorture, ForkWhileSiblingsChurn)
{
    hoard_install_atfork();
    std::atomic<bool> stop{false};
    std::vector<std::thread> churners;
    for (int t = 0; t < 4; ++t)
        churners.emplace_back([&stop, t] { churn(stop, t); });

    int verdict = fork_rounds(8);
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : churners)
        t.join();

    EXPECT_EQ(verdict, 0)
        << "1=alloc failed 2=gauges don't reconcile 3=heap invariant "
           "4=structural check 100+=fork/wait plumbing";
    EXPECT_TRUE(hoard_snapshot().reconciles())
        << "parent must reconcile after its atfork handlers too";
}

TEST(ForkTorture, ForkWhileSiblingsTradeBlocks)
{
    // The global instance has one heap per hardware thread, so with two
    // or more the traders free each other's blocks through their
    // outboxes and a fork can land half-way through an outbox send.
    if (std::thread::hardware_concurrency() < 2)
        GTEST_SKIP() << "one heap: no free is foreign";
    hoard_install_atfork();
    std::atomic<bool> stop{false};
    std::vector<std::atomic<void*>> table(256);
    std::vector<std::thread> traders;
    for (int t = 0; t < 4; ++t)
        traders.emplace_back(
            [&stop, &table, t] { trade(stop, table, t); });

    int verdict = fork_rounds(16);
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : traders)
        t.join();
    for (std::atomic<void*>& slot : table)
        hoard_free(slot.exchange(nullptr));

    EXPECT_EQ(verdict, 0)
        << "1=alloc failed 2=gauges don't reconcile 3=heap invariant "
           "4=structural check 100+=fork/wait plumbing";
    EXPECT_TRUE(hoard_snapshot().reconciles())
        << "parent must reconcile after its atfork handlers too";
}

TEST(ForkTorture, ForkFromSpawnedThread)
{
    hoard_install_atfork();
    std::atomic<bool> stop{false};
    std::vector<std::thread> churners;
    for (int t = 0; t < 3; ++t)
        churners.emplace_back([&stop, t] { churn(stop, t); });

    // fork() from a thread that is not main: the child's only thread
    // is then a *non-main* thread image, the shape that breaks naive
    // singletons.
    std::atomic<int> verdict{-1};
    std::thread forker(
        [&verdict] { verdict.store(fork_rounds(4)); });
    forker.join();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : churners)
        t.join();

    EXPECT_EQ(verdict.load(), 0)
        << "1=alloc failed 2=gauges don't reconcile 3=heap invariant "
           "4=structural check 100+=fork/wait plumbing";
    EXPECT_TRUE(global_allocator().check_invariants());
}

TEST(ForkTorture, ChildReleasesShardsOfThreadsItLacks)
{
    // The parent forks while kStatShards threads hold a stat shard
    // each, so every owned shard is taken.  Those threads do not exist
    // in the child, so the child's atfork handler must free their
    // shards: a thread the child creates then owns one instead of
    // falling back to the shared overflow shard.
#if defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "TSan cannot start a thread in the child of a "
                    "multithreaded fork";
#endif
    hoard_install_atfork();
    constexpr int kHolders = detail::kStatShards;
    std::barrier claimed(kHolders + 1);
    std::barrier forked(kHolders + 1);
    std::vector<std::thread> holders;
    for (int t = 0; t < kHolders; ++t) {
        holders.emplace_back([&] {
            (void)detail::stat_shard();
            claimed.arrive_and_wait();
            forked.arrive_and_wait();
        });
    }
    claimed.arrive_and_wait();
    pid_t pid = fork();
    if (pid == 0) {
        unsigned shard = detail::kOverflowShard;
        std::thread([&shard] { shard = detail::stat_shard(); }).join();
        _exit(shard < detail::kOverflowShard ? 0 : 1);
    }
    forked.arrive_and_wait();
    for (std::thread& t : holders)
        t.join();
    ASSERT_GT(pid, 0);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "the child's new thread fell back to the overflow shard";
}

}  // namespace
}  // namespace hoard
