/**
 * @file
 * Thread-local magazine plumbing shared by every HoardAllocator
 * instantiation: the per-(thread, allocator) magazine node, the
 * per-logical-thread node chain, and the process-wide liveness
 * registry that lets a thread-exit hook tell a live allocator from a
 * destroyed one.
 *
 * Why this is not simply a `thread_local` member: the allocator is a
 * template over the execution policy, and under SimPolicy the logical
 * "thread" is a fiber — many fibers share one OS thread, so C++
 * thread_local is the wrong key.  The policy instead hands out one
 * opaque per-logical-thread pointer slot (Policy::thread_cache_slot);
 * this module defines what hangs off it.  The node layout is
 * deliberately policy-free so every allocator instantiation (native,
 * sim, the uninstrumented bench policy) shares one chain format and
 * one exit hook.
 *
 * Memory discipline: nodes are std::malloc'd, never operator new'd —
 * in whole-process deployments (global_new.h) operator new is the
 * allocator under construction, and registering a magazine from inside
 * allocate() must not recurse into it.  A node leaves its thread's
 * chain only by the thread's own hand — at its exit hook, or, for a
 * node whose allocator has been destroyed, when the thread next
 * registers a node (magazine_drop_dead) — and goes to a process-wide
 * free list for the next magazine_node_new; other threads may empty a
 * node's lists (quiesced flush) but never recycle it, so the fast path
 * needs no lifetime synchronization.  Nodes are recycled
 * rather than freed because under the LD_PRELOAD shim they are carved
 * from the never-reused bootstrap arena (docs/SHIM.md): freeing them
 * would leak one node per thread ever created.
 *
 * Lock order (the only multi-lock paths in the allocator):
 *   allocator cache-set mutex -> heap locks -> global-heap lock.
 * The liveness-registry mutex nests inside nothing and guards nothing
 * that suspends: exit hooks pin an allocator with a busy refcount and
 * drop the registry mutex *before* calling into it, because under
 * SimPolicy a policy mutex can suspend the calling fiber and parking a
 * process-wide std::mutex across that would deadlock the one OS thread
 * the simulation runs on.
 */

#ifndef HOARD_CORE_MAGAZINE_H_
#define HOARD_CORE_MAGAZINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace hoard {
namespace detail {

/**
 * One thread's magazines for one allocator instance: a bounded LIFO of
 * whole free blocks per size class, threaded through block first words
 * (the same chain format Superblock::allocate_batch builds and
 * HoardHeap::remote_push consumes, so batches move by splice).
 *
 * Single-writer: only the owning logical thread touches `mags` and
 * `synced_bytes` on the fast path.  `occupancy_bytes` is the one field
 * other threads read (snapshot/sampler cached-bytes attribution); the
 * owner updates it per operation with a relaxed load and store, and
 * other threads write it only while the owner is quiesced, so it is
 * exact whenever the owner is.  The global cached_bytes gauge is synced
 * to it only at batch boundaries — that is the "statistics move to
 * batch boundaries" half of the fast path.
 */
struct MagazineNode
{
    struct Magazine
    {
        void* head = nullptr;      ///< LIFO threaded through blocks
        std::uint32_t count = 0;
    };

    /** Owning allocator; valid only while `allocator_id` is live. */
    void* allocator = nullptr;

    /** Monotonic allocator identity — never reused, so a stale node
        can never be mistaken for a new allocator at the same address. */
    std::uint64_t allocator_id = 0;

    /**
     * Flushes this node's blocks back into `allocator` and unlinks the
     * node from the allocator's set list.  Installed by the owning
     * HoardAllocator instantiation; called by the thread-exit hook with
     * the allocator pinned in the liveness registry (busy refcount —
     * which is what keeps `allocator` alive across the call).
     */
    void (*flush_fn)(void* allocator, MagazineNode* node) = nullptr;

    MagazineNode* next_in_thread = nullptr;  ///< per-thread chain
    MagazineNode* next_in_set = nullptr;     ///< per-allocator chain

    /** Exact bytes parked across all classes (relaxed; see above). */
    std::atomic<std::size_t> occupancy_bytes{0};

    /** Moves occupancy_bytes by a plain load and store: its writer is
        the owner, or a flusher while the owner is quiesced. */
    void
    occupancy_add(std::size_t n)
    {
        occupancy_bytes.store(
            occupancy_bytes.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
    }

    void
    occupancy_sub(std::size_t n)
    {
        occupancy_bytes.store(
            occupancy_bytes.load(std::memory_order_relaxed) - n,
            std::memory_order_relaxed);
    }

    /** Portion already reflected in the global cached_bytes gauge.
        Touched only at batch boundaries, by the owner (or a quiesced
        flusher). */
    std::size_t synced_bytes = 0;

    std::uint32_t num_classes = 0;

    /**
     * Latency-sampling countdown (obs/latency.h): decremented on each
     * armed fast-path op; hitting zero selects the op for timing and
     * reloads Config::latency_sample_period.  Lives here instead of a
     * thread_local because the node pointer is already in a register
     * on every magazine op and this line is already dirty — the armed
     * untimed cost stays one in-cache decrement and a predicted
     * branch.  Starts at 1 so a fresh thread's first op is timed
     * (exact from the first op at period 1).  Owner-only, like mags.
     */
    std::uint32_t lat_countdown = 1;

    /** Per-class magazines; points into this node's own allocation. */
    Magazine* mags = nullptr;
};

/** A node with space for @p num_classes magazines (empty), recycled
    from an exited thread when one fits, else std::malloc'd; nullptr on
    malloc failure (caching then silently degrades to the uncached path
    for this thread).  A logical thread's cache slot points at the
    first node of its chain. */
MagazineNode* magazine_node_new(std::uint32_t num_classes);

/** Nodes magazine_node_new has std::malloc'd so far in this process,
    rather than recycled (tests check thread churn reuses them). */
std::size_t magazine_nodes_malloced();

/**
 * Unlinks from the thread chain starting at @p first every node whose
 * allocator has been destroyed, parks those nodes for reuse, and
 * returns the chain's new first node.  Only the chain's owning logical
 * thread may call it: nothing else reaches a dead allocator's node
 * once the allocator's destructor has returned.
 */
MagazineNode* magazine_drop_dead(MagazineNode* first);

/// @name Allocator liveness registry.
/// Serializes thread-exit flushes against allocator destruction: the
/// exit hook flushes a node only while its allocator's id is still
/// registered (pinning it with a busy refcount for the duration), and
/// unregistering blocks until no exit flush holds a pin.  Do not
/// destroy an allocator *from a sim fiber* while another fiber of the
/// same machine may be exiting with blocks cached — the waiting
/// destructor would park the machine's only OS thread.
/// @{

/** Registers a new allocator; returns its fresh nonzero id. */
std::uint64_t magazine_register_allocator();

/** Unregisters @p id; after return no exit hook will flush into it. */
void magazine_unregister_allocator(std::uint64_t id);

/// @}

/// @name Fork support (pthread_atfork; see docs/SHIM.md).
/// The registry mutex is held across fork() — it is the outermost
/// lock of every multi-lock path, so it is taken before any
/// allocator's own prepare handler — and the child additionally
/// clears busy pins left by exit flushes of threads that no longer
/// exist (a stale pin would block that allocator's destructor
/// forever).
/// @{

/** Parent, before fork(): locks the registry mutex. */
void magazine_registry_prepare_fork();

/** Parent, after fork(): unlocks the registry mutex. */
void magazine_registry_parent_after_fork();

/** Child, after fork(): unlocks and clears stale busy pins. */
void magazine_registry_child_after_fork();

/// @}

/**
 * The thread-exit hook both execution policies invoke with a thread's
 * non-null cache slot (its first node): flushes every node whose
 * allocator is still live (via node->flush_fn, under the registry
 * mutex), then parks the nodes for reuse.  Signature matches
 * Policy::set_thread_exit_hook.
 */
void magazine_thread_exit(void* first_node);

}  // namespace detail
}  // namespace hoard

#endif  // HOARD_CORE_MAGAZINE_H_
