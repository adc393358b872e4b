#include "common/thread_exit.h"

#include <pthread.h>

#include <atomic>

#include "common/stats.h"

namespace hoard {
namespace detail {

namespace {

/// Calling thread's hook state.  Initial-exec like the shard index, so
/// the first touch can never call malloc.
enum : unsigned char { kUnarmed, kArmed, kExited };
__thread unsigned char t_exit_state
    __attribute__((tls_model("initial-exec"))) = kUnarmed;

std::atomic<void (*)(void*)> g_hook{nullptr};

/// Owner flags of the owned shards (kOverflowShard has no owner).
/// Claimed with acquire and released with release, so a new owner
/// reads the values its predecessor left.
std::atomic<bool> g_shard_taken[kOverflowShard];

void
on_thread_exit(void* /* armed */)
{
    t_exit_state = kExited;
    // Empty the slot before handing its chain over, so anything the
    // thread allocates or frees later in its exit takes the locked
    // path instead of reaching metadata the hook recycles.  The slot
    // is a TLS variable, not a member of an object being destroyed, so
    // the store cannot be dropped as dead.
    void* slot = t_cache_slot;
    t_cache_slot = nullptr;
    if (slot != nullptr) {
        if (void (*hook)(void*) = g_hook.load(std::memory_order_acquire))
            hook(slot);
    }
    unsigned& shard = stat_shard_tls();
    if (shard != 0 && shard - 1 < kOverflowShard)
        g_shard_taken[shard - 1].store(false, std::memory_order_release);
    shard = kOverflowShard + 1;
}

/** The hook's key; false if the process is out of keys. */
bool
exit_key(pthread_key_t* key)
{
    static pthread_key_t k;
    static const bool ok = pthread_key_create(&k, &on_thread_exit) == 0;
    *key = k;
    return ok;
}

}  // namespace

bool
thread_exit_arm()
{
    if (t_exit_state != kUnarmed) [[likely]]
        return t_exit_state == kArmed;
    pthread_key_t key;
    // Any non-null value makes the key's destructor run at exit.
    if (!exit_key(&key) ||
        pthread_setspecific(key, &t_exit_state) != 0)
        return false;
    t_exit_state = kArmed;
    return true;
}

void
set_thread_exit_hook(void (*hook)(void*))
{
    pthread_key_t key;
    exit_key(&key);  // create the key early, while its index is low
    g_hook.store(hook, std::memory_order_release);
}

unsigned
stat_shard_claim()
{
    unsigned shard = kOverflowShard;
    if (thread_exit_arm()) {
        for (unsigned i = 0; i < kOverflowShard; ++i) {
            bool free = false;
            if (!g_shard_taken[i].load(std::memory_order_relaxed) &&
                g_shard_taken[i].compare_exchange_strong(
                    free, true, std::memory_order_acquire,
                    std::memory_order_relaxed)) {
                shard = i;
                break;
            }
        }
    }
    stat_shard_tls() = shard + 1;
    return shard;
}

void
stat_shards_child_after_fork()
{
    const unsigned mine = stat_shard_tls() - 1;
    for (unsigned i = 0; i < kOverflowShard; ++i) {
        if (i != mine)
            g_shard_taken[i].store(false, std::memory_order_relaxed);
    }
}

}  // namespace detail
}  // namespace hoard
