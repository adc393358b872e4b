/**
 * @file
 * Tail-latency observability: per-path operation-latency histograms.
 *
 * Averages hide the tail.  This layer answers "what is malloc's P99.9
 * and which stage caused it": every timed operation lands in a
 * log-linear cycle histogram keyed by *operation path* — the deepest
 * stage the op reached — so a malloc that had to map a fresh
 * superblock is attributed to the fresh-map stage, not smeared into
 * an aggregate with magazine hits.
 *
 * Three pieces:
 *
 *  - LatencyHistogram: plain fixed-array log-linear histogram (log2
 *    octaves split into 4 linear sub-buckets) with intra-bucket
 *    interpolated percentile queries.  No allocation, trivially
 *    copyable, mergeable — the snapshot/serialization type, and the
 *    wait-time histogram inside obs::LockStats.
 *  - AtomicLatencyHistogram: the same bucket layout with relaxed
 *    atomic counters, for lock-free concurrent recording.
 *  - LatencyCollector: what HoardAllocator owns when armed — sharded
 *    atomic histograms per path, a sampling countdown for the fast
 *    paths, and a fixed ring of outlier records (ops that exceeded
 *    Config::latency_outlier_cycles, with an optional backtrace).
 *
 * Clocks are policy time: rdtsc-style cycles natively, Machine
 * virtual cycles under SimPolicy.  Recording uses only relaxed
 * fetch-adds and a relaxed CAS max — all commutative — so two
 * identical sim runs merge to byte-identical snapshots regardless of
 * shard interleaving (the determinism bar the profiler set).
 */

#ifndef HOARD_OBS_LATENCY_H_
#define HOARD_OBS_LATENCY_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace hoard {
namespace obs {

/**
 * Operation paths, ordered by depth: within each op family a larger
 * value is a *deeper* stage, so "deepest stage reached" is a running
 * max.  malloc_fast is a magazine hit (or, with magazines off, a
 * local-heap hit); free_fast is a magazine park or the owner-locked
 * free.  owner_drain is recorded by the owner settling its remote
 * queue, nested inside whichever op visited the lock.  Requests above
 * S/2 never enter the staged paths: they land in malloc_huge and
 * free_huge, whose costs (a span-cache hit or a map; a park, a
 * decommit or an unmap) are a regime of their own.
 */
enum class LatencyPath : std::uint8_t {
    malloc_fast = 0,       ///< magazine/local-heap hit
    malloc_refill,         ///< magazine refill from the owning heap
    malloc_global_fetch,   ///< refill reached the global bins/cache
    malloc_fresh_map,      ///< mapped a fresh superblock
    free_fast,             ///< magazine park / owner-locked free
    free_spill,            ///< full magazine spilled a batch
    free_remote_push,      ///< busy owner; lock-free remote push
    owner_drain,           ///< owner settled its remote queue
    malloc_huge,           ///< > S/2: span cache hit or a mapped span
    free_huge,             ///< > S/2: span parked, decommitted or unmapped
};

constexpr int kLatencyPathCount = 10;

/** Stable lowercase name for exports ("malloc_fast", ...). */
const char* to_string(LatencyPath path);

/**
 * Log-linear histogram of non-negative samples (cycle latencies).
 *
 * Buckets 0..3 are exact (values 0..3); above that each log2 octave
 * [2^k, 2^(k+1)) splits into 4 linear sub-buckets, giving <= 12.5%
 * relative bucket width everywhere.  Values at or above 2^48 cycles
 * (~days) saturate into the last bucket.  Fixed arrays, trivially
 * copyable, no allocation anywhere.
 */
class LatencyHistogram
{
  public:
    static constexpr int kSubBuckets = 4;
    /// Values >= 2^kMaxOctave saturate into the last bucket.
    static constexpr int kMaxOctave = 48;
    static constexpr int kBuckets =
        4 + (kMaxOctave - 2) * kSubBuckets + 1;  // 189

    /** Bucket index for @p value (golden boundaries unit-tested). */
    static int
    bucket_for(std::uint64_t value)
    {
        if (value < 4)
            return static_cast<int>(value);
        int msb = 63 - __builtin_clzll(value);
        if (msb >= kMaxOctave)
            return kBuckets - 1;
        int sub = static_cast<int>((value >> (msb - 2)) & 3);
        return 4 + (msb - 2) * kSubBuckets + sub;
    }

    /** Smallest value that lands in bucket @p b. */
    static std::uint64_t
    bucket_lower(int b)
    {
        if (b < 4)
            return static_cast<std::uint64_t>(b);
        if (b >= kBuckets - 1)
            return std::uint64_t{1} << kMaxOctave;
        int octave = 2 + (b - 4) / kSubBuckets;
        int sub = (b - 4) % kSubBuckets;
        return static_cast<std::uint64_t>(4 + sub) << (octave - 2);
    }

    /** One past the largest value in bucket @p b (saturating). */
    static std::uint64_t
    bucket_upper(int b)
    {
        if (b >= kBuckets - 1)
            return std::numeric_limits<std::uint64_t>::max();
        return bucket_lower(b + 1);
    }

    void
    record(std::uint64_t value)
    {
        ++buckets_[static_cast<std::size_t>(bucket_for(value))];
        ++count_;
        sum_ += value;
        if (value > max_)
            max_ = value;
    }

    void
    merge(const LatencyHistogram& other)
    {
        for (int i = 0; i < kBuckets; ++i)
            buckets_[static_cast<std::size_t>(i)] +=
                other.buckets_[static_cast<std::size_t>(i)];
        count_ += other.count_;
        sum_ += other.sum_;
        if (other.max_ > max_)
            max_ = other.max_;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t max() const { return max_; }

    std::uint64_t
    bucket(int i) const
    {
        return buckets_[static_cast<std::size_t>(i)];
    }

    double
    mean() const
    {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sum_) /
                                 static_cast<double>(count_);
    }

    /**
     * Value at percentile @p p in [0, 100], linearly interpolated
     * inside the containing bucket and clamped to the recorded max
     * (so a saturated last bucket cannot report beyond reality).
     * 0 when empty.
     */
    double percentile(double p) const;

    bool
    operator==(const LatencyHistogram& other) const
    {
        return count_ == other.count_ && sum_ == other.sum_ &&
               max_ == other.max_ && buckets_ == other.buckets_;
    }
    bool
    operator!=(const LatencyHistogram& other) const
    {
        return !(*this == other);
    }

  private:
    friend class AtomicLatencyHistogram;

    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * The same bucket layout with relaxed atomic counters for lock-free
 * concurrent recording.  Every mutation commutes (fetch-adds and a
 * CAS max), so a merged snapshot is independent of recording
 * interleaving — the determinism property the sim replay test pins.
 */
class AtomicLatencyHistogram
{
  public:
    void
    record(std::uint64_t value)
    {
        const auto b = static_cast<std::size_t>(
            LatencyHistogram::bucket_for(value));
        buckets_[b].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
        std::uint64_t seen = max_.load(std::memory_order_relaxed);
        while (value > seen &&
               !max_.compare_exchange_weak(seen, value,
                                           std::memory_order_relaxed)) {
        }
    }

    /** Adds this histogram's contents into @p out (relaxed reads). */
    void merge_into(LatencyHistogram& out) const;

  private:
    std::array<std::atomic<std::uint64_t>, LatencyHistogram::kBuckets>
        buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> max_{0};
};

/**
 * Stack-carried timing state for one in-flight operation: when the
 * slow path started, and the deepest stage it has reached so far.
 * Passed by pointer through the slow-path call chain (NOT
 * thread_local — sim fibers share OS threads).  Within an op family
 * the enum's numeric order is depth order, so raise() is a max.
 */
struct LatencyProbe
{
    std::uint64_t t0 = 0;
    bool active = false;
    LatencyPath stage = LatencyPath::malloc_fast;

    void
    begin(std::uint64_t now)
    {
        if (!active) {
            active = true;
            t0 = now;
        }
    }

    void
    raise(LatencyPath s)
    {
        if (s > stage)
            stage = s;
    }
};

/** Merged view of every path histogram; the serialization unit. */
struct LatencySnapshot
{
    std::array<LatencyHistogram, kLatencyPathCount> paths;
    std::uint64_t outliers = 0;          ///< ops past the threshold
    std::uint64_t outlier_cycles = 0;    ///< the threshold (0 = off)
    std::uint32_t sample_period = 1;     ///< fast-path timing cadence

    const LatencyHistogram&
    path(LatencyPath p) const
    {
        return paths[static_cast<std::size_t>(p)];
    }

    std::uint64_t
    total_count() const
    {
        std::uint64_t n = 0;
        for (const LatencyHistogram& h : paths)
            n += h.count();
        return n;
    }

    bool
    operator==(const LatencySnapshot& other) const
    {
        return paths == other.paths && outliers == other.outliers &&
               outlier_cycles == other.outlier_cycles &&
               sample_period == other.sample_period;
    }
};

/** One outlier record: an op that exceeded the cycle threshold. */
struct LatencyOutlier
{
    std::uint64_t timestamp = 0;  ///< policy timestamp at detection
    std::uint64_t cycles = 0;     ///< the op's measured latency
    int tid = 0;
    LatencyPath path = LatencyPath::malloc_fast;
    int frame_count = 0;
    std::array<std::uintptr_t, 16> frames{};
};

/**
 * What an armed allocator owns: per-path atomic histograms sharded by
 * thread index (spreading fetch-add contention), a per-thread
 * sampling countdown deciding which fast-path ops get timed, and a
 * lock-free overwrite ring of the most recent outliers.
 *
 * Slow-path ops (refill and deeper, spills, huge) are always timed —
 * they are rare and they are where the tail lives, so outliers are
 * never missed there.  Fast-path ops (magazine hit, magazine park,
 * locked free) are timed one in sample_period per thread; with
 * period 1 every op is timed and histogram counts reconcile exactly
 * with the allocator's op counters (the integration tests' mode).
 */
class LatencyCollector
{
  public:
    static constexpr int kShards = 16;
    static constexpr int kOutlierSlots = 64;
    static constexpr int kMaxOutlierFrames = 16;

    explicit LatencyCollector(std::uint32_t sample_period,
                              std::uint64_t outlier_cycles)
        : period_(sample_period == 0 ? 1 : sample_period),
          outlier_cycles_(outlier_cycles)
    {
    }

    LatencyCollector(const LatencyCollector&) = delete;
    LatencyCollector& operator=(const LatencyCollector&) = delete;

    /**
     * Fast-path sampling countdown: true when the caller should time
     * this op.  One thread-local decrement and a predicted branch —
     * the entire armed cost of an untimed fast-path op.  The
     * countdown is per OS thread and shared across collector
     * instances (cadence only; correctness never depends on it).
     */
    bool
    tick()
    {
        // Single decrement-and-branch on the thread-local (one RMW
        // instruction on x86); the countdown is always >= 1, so the
        // untimed path never stores a reset.
        if (--t_countdown != 0) [[likely]]
            return false;
        t_countdown = period_;
        return true;
    }

    /** Records one timed op.  Lock-free; any thread. */
    void
    record(int tid, LatencyPath path, std::uint64_t cycles)
    {
        shards_[static_cast<std::size_t>(tid) & (kShards - 1)]
            .paths[static_cast<std::size_t>(path)]
            .record(cycles);
    }

    /** True when @p cycles crosses the outlier threshold. */
    bool
    is_outlier(std::uint64_t cycles) const
    {
        return outlier_cycles_ != 0 && cycles >= outlier_cycles_;
    }

    /**
     * Stores one outlier in the overwrite ring (newest wins when
     * full).  @p frames may be null.  Lock-free claim; field writes
     * are relaxed atomics, read back quiesced like the event rings.
     */
    void record_outlier(std::uint64_t timestamp, int tid,
                        LatencyPath path, std::uint64_t cycles,
                        const std::uintptr_t* frames, int frame_count);

    std::uint32_t sample_period() const { return period_; }
    std::uint64_t outlier_cycles() const { return outlier_cycles_; }

    std::uint64_t
    outliers() const
    {
        return outlier_head_.load(std::memory_order_relaxed);
    }

    /** Merged copy of every shard; deterministic for a given set of
        recorded ops.  Safe concurrently; exact when quiesced. */
    LatencySnapshot snapshot() const;

    /** The retained outliers, oldest first (at most kOutlierSlots). */
    std::vector<LatencyOutlier> recent_outliers() const;

  private:
    struct OutlierSlot
    {
        std::atomic<std::uint64_t> timestamp{0};
        std::atomic<std::uint64_t> cycles{0};
        std::atomic<std::int32_t> tid{0};
        std::atomic<std::uint8_t> path{0};
        std::atomic<std::int32_t> frame_count{0};
        std::array<std::atomic<std::uintptr_t>, kMaxOutlierFrames>
            frames{};
    };

    struct alignas(64) Shard
    {
        std::array<AtomicLatencyHistogram, kLatencyPathCount> paths;
    };

    static thread_local std::uint32_t t_countdown;

    const std::uint32_t period_;
    const std::uint64_t outlier_cycles_;
    std::array<Shard, kShards> shards_;
    std::atomic<std::uint64_t> outlier_head_{0};
    std::array<OutlierSlot, kOutlierSlots> outliers_;
};

}  // namespace obs
}  // namespace hoard

#endif  // HOARD_OBS_LATENCY_H_
