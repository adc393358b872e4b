/**
 * @file
 * Asynchronous background allocation engine: the lifecycle shell for a
 * helper core that runs the allocator's slow maintenance off the
 * foreground critical path.
 *
 * The engine owns *when* the worker runs, never *what* it does — the
 * two jobs (global-bin refill and the cadenced purge pass) live in
 * HoardAllocator::bg_step(), so the identical job code executes under
 * both policies:
 *
 *  - **NativePolicy** (kBackgroundThread == true): BackgroundEngine
 *    spawns one worker thread with raw pthread_create.  std::thread is
 *    deliberately avoided — its constructor allocates its shared state
 *    through operator new, which in whole-process deployments re-enters
 *    the facade while its magic static may still be mid-construction.
 *    pthread_create keeps the spawn path allocation-free on the calling
 *    thread (glibc places the stack, descriptor, and static TLS in one
 *    mmap), and the engine's own synchronization is a raw
 *    pthread_mutex_t + pthread_cond_t pair so fork recovery can
 *    reinitialize them in the child.
 *
 *  - **SimPolicy** (kBackgroundThread == false): every engine method is
 *    inert.  The deterministic analogue is a cooperative fiber the
 *    harness spawns *before* Machine::run() with a bounded body,
 *    HoardAllocator::bg_worker_sim(steps) — the machine schedules it
 *    like any workload fiber, so replays stay byte-identical and the
 *    deadlock detector never sees an unbounded spinner.
 *
 * Foreground paths talk to the worker through one channel, wait-free
 * for the foreground: the per-class GlobalBin::fetch_misses demand
 * counter, bumped with one relaxed store on the already-cold bin-miss
 * path and scanned by the worker on every pass.
 */

#ifndef HOARD_CORE_BACKGROUND_H_
#define HOARD_CORE_BACKGROUND_H_

#include <pthread.h>
#include <time.h>

#include <atomic>
#include <cstdint>

namespace hoard {

/**
 * Lifecycle shell for the background worker: spawn, interval waits,
 * quiesce, and fork recovery.  @p Owner supplies the actual work as
 * `bool bg_step()`; @p Policy gates whether a native thread exists at
 * all (kBackgroundThread).  Every method is a no-op under policies
 * without native threads, so the allocator calls them unconditionally.
 *
 * Lifecycle: start() is idempotent and allocation-free; stop() signals
 * and joins (a pass in flight completes first — quiescing is exactly
 * "no pass running, none will start").  Fork protocol, driven by the
 * allocator's own fork hooks: prepare_fork() raises a fork-pending
 * flag (start() refuses while it is set — without it a lazy start
 * racing stop()'s join window could put a live worker at the fork
 * instant), stops the worker, and then holds the lifecycle mutex
 * across the fork; parent_after_fork() clears the flag and releases
 * the mutex; child_after_fork() reinitializes the pthread primitives
 * outright (the worker thread does not exist in the child, and a
 * mutex image held at the fork instant must not leak into it).  The
 * owner restarts the worker in the parent; the child spawns no thread
 * inside the atfork handler — it respawns lazily on its next trip
 * through the facade.  The handlers themselves must never call
 * anything that can re-enter start() (the facade's lazy-spawn
 * accessor included): the forking thread owns mutex_ for the whole
 * window, and a second lock attempt self-deadlocks inside fork().
 */
template <typename Owner, typename Policy>
class BackgroundEngine
{
  public:
    explicit BackgroundEngine(Owner* owner) : owner_(owner) {}

    ~BackgroundEngine() { stop(); }

    BackgroundEngine(const BackgroundEngine&) = delete;
    BackgroundEngine& operator=(const BackgroundEngine&) = delete;

    /**
     * Spawns the worker with a pass cadence of @p interval_ns
     * nanoseconds (clamped to >= 1); no-op when already running or
     * when the policy has no native threads.  Nothing on this path
     * allocates, so it is safe from inside a malloc facade (though
     * never from inside the facade's own magic-static initializer —
     * pthread_create may touch TLS machinery that re-enters malloc).
     */
    void
    start(std::uint64_t interval_ns)
    {
        if constexpr (Policy::kBackgroundThread) {
            pthread_mutex_lock(&mutex_);
            if (!running_.load(std::memory_order_relaxed) &&
                !fork_pending_) {
                stop_ = false;
                kicked_ = false;
                interval_ns_ = interval_ns == 0 ? 1 : interval_ns;
                if (pthread_create(&thread_, nullptr,
                                   &BackgroundEngine::thread_main,
                                   this) == 0)
                    running_.store(true, std::memory_order_relaxed);
            }
            pthread_mutex_unlock(&mutex_);
        } else {
            (void)interval_ns;
        }
    }

    /**
     * Quiesces the worker: raises the stop flag, wakes it, and joins.
     * A pass in flight finishes (and releases every lock it took)
     * before the join returns.  Idempotent; no-op when not running.
     */
    void
    stop()
    {
        if constexpr (Policy::kBackgroundThread) {
            pthread_t victim{};
            bool was_running = false;
            pthread_mutex_lock(&mutex_);
            if (running_.load(std::memory_order_relaxed)) {
                was_running = true;
                stop_ = true;
                victim = thread_;
                running_.store(false, std::memory_order_relaxed);
                pthread_cond_broadcast(&cv_);
            }
            pthread_mutex_unlock(&mutex_);
            if (was_running)
                pthread_join(victim, nullptr);
        }
    }

    /** Wakes the worker for an immediate pass (tests; never needed
        for correctness — the interval wait expires on its own). */
    void
    kick()
    {
        if constexpr (Policy::kBackgroundThread) {
            pthread_mutex_lock(&mutex_);
            kicked_ = true;
            pthread_cond_broadcast(&cv_);
            pthread_mutex_unlock(&mutex_);
        }
    }

    /** True while a worker thread is live (or being joined). */
    bool
    running() const
    {
        return running_.load(std::memory_order_relaxed);
    }

    /** Passes the worker has completed (telemetry mirror of the
        allocator's bg_wakeups counter; readable without a snapshot). */
    std::uint64_t
    passes() const
    {
        return passes_.load(std::memory_order_relaxed);
    }

    /// @name Fork protocol (see the class comment).
    /// @{

    void
    prepare_fork()
    {
        if constexpr (Policy::kBackgroundThread) {
            // Raise the fork flag *before* stopping: stop() joins the
            // worker outside mutex_, and without the flag a concurrent
            // lazy start() could slip a fresh worker into that window
            // — a thread that would then be live at the fork instant,
            // possibly mid-mutation in a heap the child inherits.
            pthread_mutex_lock(&mutex_);
            fork_pending_ = true;
            pthread_mutex_unlock(&mutex_);
            stop();
            pthread_mutex_lock(&mutex_);
        }
    }

    void
    parent_after_fork()
    {
        if constexpr (Policy::kBackgroundThread) {
            fork_pending_ = false;
            pthread_mutex_unlock(&mutex_);
        }
    }

    void
    child_after_fork()
    {
        if constexpr (Policy::kBackgroundThread) {
            // The worker does not exist in the child and the forking
            // thread owns mutex_; rebuild the primitives from scratch
            // rather than trusting a forked lock image.
            pthread_mutex_init(&mutex_, nullptr);
            pthread_cond_init(&cv_, nullptr);
            stop_ = false;
            kicked_ = false;
            fork_pending_ = false;
            running_.store(false, std::memory_order_relaxed);
        }
    }

    /// @}

  private:
    static void*
    thread_main(void* arg)
    {
        static_cast<BackgroundEngine*>(arg)->run();
        return nullptr;
    }

    void
    run()
    {
        pthread_mutex_lock(&mutex_);
        while (!stop_) {
            pthread_mutex_unlock(&mutex_);
            owner_->bg_step();
            passes_.fetch_add(1, std::memory_order_relaxed);
            pthread_mutex_lock(&mutex_);
            if (stop_)
                break;
            if (!kicked_) {
                struct timespec deadline;
                clock_gettime(CLOCK_REALTIME, &deadline);
                deadline.tv_sec +=
                    static_cast<time_t>(interval_ns_ / 1000000000ull);
                deadline.tv_nsec +=
                    static_cast<long>(interval_ns_ % 1000000000ull);
                if (deadline.tv_nsec >= 1000000000l) {
                    deadline.tv_nsec -= 1000000000l;
                    ++deadline.tv_sec;
                }
                pthread_cond_timedwait(&cv_, &mutex_, &deadline);
            }
            kicked_ = false;
        }
        pthread_mutex_unlock(&mutex_);
    }

    Owner* const owner_;
    std::uint64_t interval_ns_ = 1;
    pthread_t thread_{};
    /// Raw pthread primitives (not std::mutex) so child_after_fork can
    /// reinitialize them; see the class comment.
    pthread_mutex_t mutex_ = PTHREAD_MUTEX_INITIALIZER;
    pthread_cond_t cv_ = PTHREAD_COND_INITIALIZER;
    bool stop_ = false;    ///< guarded by mutex_
    bool kicked_ = false;  ///< guarded by mutex_
    /// Guarded by mutex_: true from prepare_fork() until the matching
    /// after-fork hook; start() refuses to spawn while set, so no
    /// worker can come alive inside the fork window.
    bool fork_pending_ = false;
    std::atomic<bool> running_{false};
    std::atomic<std::uint64_t> passes_{0};
};

}  // namespace hoard

#endif  // HOARD_CORE_BACKGROUND_H_
