/**
 * @file
 * The one per-OS-thread exit hook, and the statistic shards it gives
 * back.
 *
 * An OS thread that runs allocator code may hold two things that must
 * be handed back when it exits: a statistic shard (common/stats.h) and,
 * under NativePolicy, its magazine chain (core/magazine.h).  Both go
 * back from a single pthread_key_t destructor, in a fixed order: the
 * installed hook (handed the magazine chain, whose return updates
 * statistics) first, then the shard.  A key destructor needs no
 * per-thread allocation, unlike a C++ thread_local with a destructor,
 * whose runtime record would land in the LD_PRELOAD shim's never-reused
 * bootstrap arena once per thread.  glibc stores the values of the
 * first 32 keys inside the thread descriptor; the shim creates this key
 * from its constructor, before the program can create keys of its own.
 *
 * glibc runs thread_local destructors before key destructors.  After
 * the hook has run the thread counts as exited: arming again fails, so
 * a late allocator call (from another key's destructor) takes the
 * locked path and the overflow shard.  The main thread never runs key
 * destructors; it keeps its magazines and shard through the static
 * destructors that follow exit().
 */

#ifndef HOARD_COMMON_THREAD_EXIT_H_
#define HOARD_COMMON_THREAD_EXIT_H_

namespace hoard {
namespace detail {

/**
 * Makes sure the calling OS thread's exit hook will run.  Idempotent
 * and allocation-free.  Returns false once the hook has run, or if the
 * process is out of pthread keys: the caller then keeps nothing that
 * needs giving back.
 */
bool thread_exit_arm();

/**
 * The calling OS thread's cache slot (NativePolicy::thread_cache_slot,
 * the head of its magazine chain).  Initial-exec TLS: the magazine fast
 * path reads it on every call.
 */
inline thread_local void* t_cache_slot
    __attribute__((tls_model("initial-exec"))) = nullptr;

/**
 * Installs the function the exit hook hands the thread's non-null
 * cache slot to, before it releases the thread's stat shard.  The exit
 * hook empties the slot first, so allocator calls later in the
 * thread's exit find it empty.  Process-wide; last writer wins.
 */
void set_thread_exit_hook(void (*hook)(void* slot));

/**
 * Claims a statistic shard for the calling OS thread and records it in
 * stat_shard_tls(): the first free owned shard, or the overflow shard
 * when every owned one is taken or the exit hook cannot be armed.
 * Returns the shard.  The cold half of stat_shard().
 */
unsigned stat_shard_claim();

/** Fork child: releases every owned shard but the calling thread's,
    since their owners do not exist in the child. */
void stat_shards_child_after_fork();

}  // namespace detail
}  // namespace hoard

#endif  // HOARD_COMMON_THREAD_EXIT_H_
