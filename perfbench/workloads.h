/**
 * @file
 * The three closed-loop workloads of the native benchmark, shared by
 * the end-to-end child (system malloc, i.e. libhoard.so under
 * LD_PRELOAD or glibc without it) and the traced in-process run.
 *
 * Each workload thread issues its next operation only after the
 * previous one returned.  A thread's `Ops` object performs the calls:
 *
 *     void* alloc(std::size_t n, bool sampled);
 *     void release(void* p, bool sampled);
 *     std::size_t usable(void* p);
 *     void begin_window();  // the measured phase starts on this thread
 *     void end_window();    // ... and ends
 *
 * `sampled` marks the 1-in-period operations the caller times.  Every
 * object is stamped when allocated (8 bytes at each end, one byte per
 * further page) and verified, together with usable(p) >= n, before it
 * is freed; a NULL return or a failed check counts as a failed
 * operation.
 *
 * Phases, separated by barriers the main thread also joins: fill the
 * working set, warm up, measure until a deadline the main thread sets,
 * tear down.  The main thread reads allocator counters between the
 * phases, while every workload thread is parked.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <time.h>

#include <array>
#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

inline std::uint64_t
now_ns()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/** splitmix64: the whole input sequence follows from the seed. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t s_;
};

enum class Workload { kv_churn, xthread_handoff, medium_buffers };

inline bool
parse_workload(std::string_view name, Workload& out)
{
    if (name == "kv_churn")
        out = Workload::kv_churn;
    else if (name == "xthread_handoff")
        out = Workload::xthread_handoff;
    else if (name == "medium_buffers")
        out = Workload::medium_buffers;
    else
        return false;
    return true;
}

constexpr int kThreads = 4;
constexpr std::size_t kKvSlots = 4096;
constexpr std::size_t kMediumSlots = 16;
constexpr std::size_t kBatchObjects = 256;
constexpr std::size_t kBatchesPerPair = 8;
constexpr std::size_t kPage = 4096;

/**
 * 1 in sample_period(w, traced) malloc and free calls is timed.
 * medium_buffers runs ~100x fewer operations, so it samples more often
 * to keep its p99 above ten samples by a wide margin; the traced run
 * samples 4x as often as the end-to-end one.
 */
inline std::uint32_t
sample_period(Workload w, bool traced)
{
    const std::uint32_t period = w == Workload::medium_buffers ? 4 : 64;
    return traced ? (period + 3) / 4 : period;
}

/** Spin-wait hint for the CPU. */
inline void
cpu_relax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** Object sizes: kv 16-512 B, handoff 16-2048 B, medium 4-256 KiB with
    each power-of-two octave equally likely. */
inline std::size_t
draw_size(Workload w, Rng& rng)
{
    switch (w) {
    case Workload::kv_churn:
        return 16 + rng.below(512 - 16 + 1);
    case Workload::xthread_handoff:
        return 16 + rng.below(2048 - 16 + 1);
    case Workload::medium_buffers: {
        const std::size_t octave = kPage << rng.below(6);
        return octave + rng.below(octave);
    }
    }
    return 16;
}

/** Counts of one thread; the measured phase's go to the report. */
struct Tally
{
    std::uint64_t pairs = 0;      ///< completed malloc+free pairs
    std::uint64_t attempted = 0;  ///< malloc and free calls made
    std::uint64_t failed = 0;     ///< NULL, bad stamp or short usable size

    void
    add(const Tally& o)
    {
        pairs += o.pairs;
        add_unmeasured(o);
    }

    /** Adds the calls and failures of unmeasured phases, not their pairs. */
    void
    add_unmeasured(const Tally& o)
    {
        attempted += o.attempted;
        failed += o.failed;
    }
};

/** A live object and the stamp written into it. */
struct Object
{
    unsigned char* p = nullptr;
    std::size_t n = 0;
    std::uint64_t stamp = 0;
};

inline void
write_stamp(const Object& o)
{
    std::memcpy(o.p, &o.stamp, 8);
    std::memcpy(o.p + o.n - 8, &o.stamp, 8);
    for (std::size_t off = kPage; off + 8 < o.n; off += kPage)
        o.p[off] = static_cast<unsigned char>(o.stamp + off / kPage);
}

inline bool
stamp_intact(const Object& o)
{
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    std::memcpy(&head, o.p, 8);
    std::memcpy(&tail, o.p + o.n - 8, 8);
    if (head != o.stamp || tail != o.stamp)
        return false;
    for (std::size_t off = kPage; off + 8 < o.n; off += kPage) {
        if (o.p[off] != static_cast<unsigned char>(o.stamp + off / kPage))
            return false;
    }
    return true;
}

/** Allocates and stamps an object; on failure o.p stays null. */
template <class Ops>
inline void
make_object(Ops& ops, Object& o, std::size_t n, std::uint64_t stamp,
            bool sampled, Tally& t)
{
    ++t.attempted;
    o.p = static_cast<unsigned char*>(ops.alloc(n, sampled));
    if (o.p == nullptr) {
        ++t.failed;
        return;
    }
    o.n = n;
    o.stamp = stamp;
    write_stamp(o);
}

/** Verifies and frees an object, completing its malloc+free pair. */
template <class Ops>
inline void
drop_object(Ops& ops, Object& o, bool sampled, Tally& t)
{
    if (o.p == nullptr)
        return;
    if (ops.usable(o.p) < o.n || !stamp_intact(o))
        ++t.failed;
    ++t.attempted;
    ops.release(o.p, sampled);
    ++t.pairs;
    o.p = nullptr;
}

/** Phase barriers shared by the workload threads and the main thread. */
struct Run
{
    Workload workload = Workload::kv_churn;
    std::uint64_t seed = 1;
    std::uint64_t warmup_ns = 0;
    std::uint32_t period = 64;  ///< power of two: 1 in period ops is sampled
    std::barrier<> sync{kThreads + 1};
    std::atomic<std::uint64_t> deadline{0};  ///< end of the measured phase
};

inline Rng
thread_rng(const Run& run, int tid)
{
    return Rng(run.seed * 0x2545f4914f6cdd1dull +
               static_cast<std::uint64_t>(run.workload) * 131 +
               static_cast<std::uint64_t>(tid) + 1);
}

/**
 * The barrier protocol of every workload thread, matching the main
 * thread's in run_workload: @p phase(deadline, measured, tally) runs
 * the warm-up, counted in @p unmeasured, and the measured phase,
 * counted in @p out.  Returns when the main thread lets teardown begin.
 */
template <class Ops, class Phase>
void
phases(Ops& ops, Run& run, Tally& unmeasured, Tally& out, Phase&& phase)
{
    run.sync.arrive_and_wait();  // filled
    phase(now_ns() + run.warmup_ns, false, unmeasured);
    run.sync.arrive_and_wait();  // warmed up; main sets the deadline
    run.sync.arrive_and_wait();
    ops.begin_window();
    phase(run.deadline.load(), true, out);
    ops.end_window();
    run.sync.arrive_and_wait();  // measured; main reads counters
    run.sync.arrive_and_wait();
}

/**
 * kv_churn and medium_buffers: each thread replaces random slots of a
 * private table, so every free is local to the allocating thread.
 */
template <class Ops>
void
slot_churn(Ops& ops, Run& run, int tid, std::size_t slots, Tally& out)
{
    Rng rng = thread_rng(run, tid);
    std::uint64_t seq = static_cast<std::uint64_t>(tid) << 48;
    Tally unmeasured;
    std::vector<Object> table(slots);
    for (Object& o : table)
        make_object(ops, o, draw_size(run.workload, rng), rng.next() ^ ++seq,
                    false, unmeasured);
    phases(ops, run, unmeasured, out,
           [&](std::uint64_t deadline, bool measured, Tally& t) {
               for (std::uint64_t i = 0;; ++i) {
                   if ((i & 63) == 0 && now_ns() >= deadline)
                       break;
                   const bool sampled =
                       measured && (i & (run.period - 1)) == 0;
                   Object& o = table[rng.below(slots)];
                   drop_object(ops, o, sampled, t);
                   make_object(ops, o, draw_size(run.workload, rng),
                               rng.next() ^ ++seq, sampled, t);
               }
           });
    for (Object& o : table)
        drop_object(ops, o, false, unmeasured);
    out.add_unmeasured(unmeasured);
}

/** A batch of objects in flight from a producer to its consumer. */
struct Batch
{
    std::array<Object, kBatchObjects> objects;
    std::size_t count = 0;
    bool last = false;  ///< the producer's phase ended with this batch
};

/**
 * Bounded queue of batch pointers; never allocates.  pop() spins for
 * up to kSpinNs before it sleeps: a sleeping thread's wake-up costs a
 * cross-CPU interrupt whose price depends on the host more than on
 * the allocator, and the threads never outnumber the CPUs.
 */
class BatchQueue
{
  public:
    static constexpr std::uint64_t kSpinNs = 200000;

    void
    push(Batch* b)
    {
        bool sleeper = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ring_[(head_ + size_.load(std::memory_order_relaxed)) %
                  ring_.size()] = b;
            size_.fetch_add(1, std::memory_order_release);
            sleeper = sleepers_ > 0;
        }
        if (sleeper)
            ready_.notify_one();
    }

    Batch*
    pop()
    {
        const std::uint64_t give_up = now_ns() + kSpinNs;
        while (size_.load(std::memory_order_acquire) == 0 &&
               now_ns() < give_up)
            cpu_relax();
        std::unique_lock<std::mutex> lock(mutex_);
        ++sleepers_;
        ready_.wait(lock, [this] {
            return size_.load(std::memory_order_relaxed) > 0;
        });
        --sleepers_;
        Batch* b = ring_[head_];
        head_ = (head_ + 1) % ring_.size();
        size_.fetch_sub(1, std::memory_order_relaxed);
        return b;
    }

  private:
    std::mutex mutex_;
    std::condition_variable ready_;
    std::array<Batch*, kBatchesPerPair> ring_{};
    std::size_t head_ = 0;
    std::atomic<std::size_t> size_{0};
    int sleepers_ = 0;
};

/**
 * xthread_handoff: a producer -> consumer pair.  The fixed pool of
 * kBatchesPerPair batches cycles between an empty and a full queue, so
 * at most kBatchesPerPair * kBatchObjects objects are in flight and
 * every free happens on the other thread of the pair.
 */
struct Pair
{
    std::array<Batch, kBatchesPerPair> pool;
    BatchQueue empty;
    BatchQueue full;

    Pair()
    {
        for (Batch& b : pool)
            empty.push(&b);
    }
};

template <class Ops>
void
produce(Ops& ops, Run& run, Pair& pair, int tid, Tally& out)
{
    Rng rng = thread_rng(run, tid);
    std::uint64_t seq = static_cast<std::uint64_t>(tid) << 48;
    Tally unmeasured;
    phases(ops, run, unmeasured, out,
           [&](std::uint64_t deadline, bool measured, Tally& t) {
               std::uint64_t i = 0;
               for (bool last = false; !last;) {
                   Batch* b = pair.empty.pop();
                   b->count = 0;
                   for (; b->count < kBatchObjects; ++i) {
                       if ((i & 63) == 0 && now_ns() >= deadline) {
                           last = true;
                           break;
                       }
                       const bool sampled =
                           measured && (i & (run.period - 1)) == 0;
                       Object& o = b->objects[b->count];
                       make_object(ops, o, draw_size(run.workload, rng),
                                   rng.next() ^ ++seq, sampled, t);
                       if (o.p != nullptr)
                           ++b->count;
                   }
                   b->last = last;
                   pair.full.push(b);
               }
           });
    out.add_unmeasured(unmeasured);
}

/** Frees every object the producer sends until its phase's last batch. */
template <class Ops>
void
consume(Ops& ops, Run& run, Pair& pair, Tally& out)
{
    Tally unmeasured;
    phases(ops, run, unmeasured, out,
           [&](std::uint64_t /* deadline */, bool measured, Tally& t) {
               std::uint64_t i = 0;
               for (bool last = false; !last;) {
                   Batch* b = pair.full.pop();
                   for (std::size_t k = 0; k < b->count; ++k, ++i)
                       drop_object(ops, b->objects[k],
                                   measured && (i & (run.period - 1)) == 0,
                                   t);
                   last = b->last;
                   pair.empty.push(b);
               }
           });
    out.add_unmeasured(unmeasured);
}

/** What the main thread observed of one run. */
struct Outcome
{
    Tally tally;
    std::uint64_t window_ns = 0;
};

/**
 * Runs one workload on kThreads threads with ops[t] as thread t's
 * calls.  @p on_window_start runs after warm-up and @p on_window_end
 * after the measured phase, both while every workload thread is
 * parked.  The measured phase lasts @p measure_ns; in xthread_handoff
 * it also covers draining the batches still in flight.
 */
template <class Ops, class Start, class End>
Outcome
run_workload(Run& run, std::vector<Ops>& ops, std::uint64_t measure_ns,
             Start&& on_window_start, End&& on_window_end)
{
    std::array<Tally, kThreads> tallies{};
    std::array<Pair, kThreads / 2> pairs;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Ops& o = ops[static_cast<std::size_t>(t)];
            Tally& out = tallies[static_cast<std::size_t>(t)];
            switch (run.workload) {
            case Workload::kv_churn:
                slot_churn(o, run, t, kKvSlots, out);
                break;
            case Workload::medium_buffers:
                slot_churn(o, run, t, kMediumSlots, out);
                break;
            case Workload::xthread_handoff:
                if (t % 2 == 0)
                    produce(o, run, pairs[static_cast<std::size_t>(t / 2)],
                            t, out);
                else
                    consume(o, run, pairs[static_cast<std::size_t>(t / 2)],
                            out);
                break;
            }
        });
    }
    run.sync.arrive_and_wait();  // filled
    run.sync.arrive_and_wait();  // warmed up
    on_window_start();
    const std::uint64_t start = now_ns();
    run.deadline.store(start + measure_ns);
    run.sync.arrive_and_wait();  // go
    run.sync.arrive_and_wait();  // measured
    Outcome outcome;
    outcome.window_ns = now_ns() - start;
    on_window_end();
    run.sync.arrive_and_wait();  // tear down
    for (std::thread& th : threads)
        th.join();
    for (const Tally& t : tallies)
        outcome.tally.add(t);
    return outcome;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
