#include "core/magazine.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>

namespace hoard {
namespace detail {

namespace {

/** One live-allocator record; malloc'd, freed on unregister. */
struct LiveRec
{
    std::uint64_t id;
    std::uint32_t busy;  ///< exit flushes currently inside flush_fn
    LiveRec* next;
};

/**
 * Registry state.  The mutex and condition variable are leaked-immortal
 * (function-local statics, never destroyed) so exit hooks running
 * during process teardown — a thread may still be exiting after every
 * other static is gone — always find them alive.
 *
 * Critical sections under this mutex are pointer-ops only: a flush_fn
 * call takes policy mutexes, and under SimPolicy a policy mutex can
 * suspend the calling fiber.  Suspending while holding this process
 * mutex would let a second exiting fiber block the one OS thread the
 * whole simulation runs on — so liveness is instead a busy refcount:
 * the hook pins the record, drops the mutex, flushes, then unpins.
 */
std::mutex&
registry_mutex()
{
    static std::mutex* m = new std::mutex;
    return *m;
}

std::condition_variable&
registry_cv()
{
    static std::condition_variable* cv = new std::condition_variable;
    return *cv;
}

LiveRec* g_live = nullptr;
std::uint64_t g_next_id = 1;

/// Nodes of exited threads, chained through next_in_thread; reused by
/// magazine_node_new, never freed.
MagazineNode* g_spare_nodes = nullptr;

std::atomic<std::size_t> g_nodes_malloced{0};

LiveRec*
find_locked(std::uint64_t id)
{
    for (LiveRec* r = g_live; r != nullptr; r = r->next) {
        if (r->id == id)
            return r;
    }
    return nullptr;
}

}  // namespace

MagazineNode*
magazine_node_new(std::uint32_t num_classes)
{
    void* mem = nullptr;
    {
        std::lock_guard<std::mutex> guard(registry_mutex());
        for (MagazineNode** p = &g_spare_nodes; *p != nullptr;
             p = &(*p)->next_in_thread) {
            if ((*p)->num_classes == num_classes) {
                mem = *p;
                *p = (*p)->next_in_thread;
                break;
            }
        }
    }
    if (mem == nullptr) {
        // One chunk: node header followed by the magazine array.  Plain
        // malloc, not operator new — see the header's memory discipline.
        mem = std::malloc(sizeof(MagazineNode) +
                          static_cast<std::size_t>(num_classes) *
                              sizeof(MagazineNode::Magazine));
        if (mem == nullptr)
            return nullptr;
        g_nodes_malloced.fetch_add(1, std::memory_order_relaxed);
    }
    auto* node = new (mem) MagazineNode();
    node->num_classes = num_classes;
    node->mags = reinterpret_cast<MagazineNode::Magazine*>(node + 1);
    for (std::uint32_t i = 0; i < num_classes; ++i)
        new (&node->mags[i]) MagazineNode::Magazine();
    return node;
}

std::size_t
magazine_nodes_malloced()
{
    return g_nodes_malloced.load(std::memory_order_relaxed);
}

MagazineNode*
magazine_drop_dead(MagazineNode* first)
{
    std::lock_guard<std::mutex> guard(registry_mutex());
    MagazineNode** link = &first;
    while (MagazineNode* node = *link) {
        if (find_locked(node->allocator_id) != nullptr) {
            link = &node->next_in_thread;
            continue;
        }
        *link = node->next_in_thread;
        node->next_in_thread = g_spare_nodes;
        g_spare_nodes = node;
    }
    return first;
}

std::uint64_t
magazine_register_allocator()
{
    auto* rec = static_cast<LiveRec*>(std::malloc(sizeof(LiveRec)));
    if (rec == nullptr)
        return 0;  // caller treats 0 as "caching unavailable"
    std::lock_guard<std::mutex> guard(registry_mutex());
    rec->id = g_next_id++;
    rec->busy = 0;
    rec->next = g_live;
    g_live = rec;
    return rec->id;
}

void
magazine_unregister_allocator(std::uint64_t id)
{
    if (id == 0)
        return;
    std::unique_lock<std::mutex> lock(registry_mutex());
    for (LiveRec** p = &g_live; *p != nullptr; p = &(*p)->next) {
        if ((*p)->id == id) {
            LiveRec* dead = *p;
            *p = dead->next;
            // Unlinked: no new exit flush can pin this allocator.  An
            // exit flush already inside flush_fn still holds a pin;
            // wait it out before letting the destructor proceed.
            registry_cv().wait(lock,
                               [dead] { return dead->busy == 0; });
            std::free(dead);
            return;
        }
    }
}

void
magazine_registry_prepare_fork()
{
    registry_mutex().lock();
}

void
magazine_registry_parent_after_fork()
{
    registry_mutex().unlock();
}

void
magazine_registry_child_after_fork()
{
    // The forking thread owns the mutex (prepare handler); holding it
    // across fork() guarantees no record was mid-mutation.  Exit
    // flushes that were pinned in the parent belong to threads that do
    // not exist in the child — drop their pins so unregister never
    // waits on them.
    for (LiveRec* r = g_live; r != nullptr; r = r->next)
        r->busy = 0;
    registry_mutex().unlock();
}

void
magazine_thread_exit(void* first_node)
{
    auto* first = static_cast<MagazineNode*>(first_node);
    if (first == nullptr)
        return;
    MagazineNode* last = nullptr;
    for (MagazineNode* node = first; node != nullptr;
         node = node->next_in_thread) {
        last = node;
        if (node->flush_fn == nullptr)
            continue;
        LiveRec* rec;
        {
            std::lock_guard<std::mutex> guard(registry_mutex());
            rec = find_locked(node->allocator_id);
            if (rec == nullptr)
                continue;  // allocator already destroyed; just recycle
            ++rec->busy;
        }
        // The pin (busy > 0) is what keeps `node->allocator` alive
        // here: a racing destructor waits in unregister until it drops.
        node->flush_fn(node->allocator, node);
        {
            std::lock_guard<std::mutex> guard(registry_mutex());
            --rec->busy;
        }
        registry_cv().notify_all();
    }
    std::lock_guard<std::mutex> guard(registry_mutex());
    last->next_in_thread = g_spare_nodes;
    g_spare_nodes = first;
}

}  // namespace detail
}  // namespace hoard
