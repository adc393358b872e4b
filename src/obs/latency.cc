#include "obs/latency.h"

#include <algorithm>

namespace hoard {
namespace obs {

thread_local std::uint32_t LatencyCollector::t_countdown = 1;

const char*
to_string(LatencyPath path)
{
    switch (path) {
    case LatencyPath::malloc_fast:
        return "malloc_fast";
    case LatencyPath::malloc_refill:
        return "malloc_refill";
    case LatencyPath::malloc_global_fetch:
        return "malloc_global_fetch";
    case LatencyPath::malloc_fresh_map:
        return "malloc_fresh_map";
    case LatencyPath::free_fast:
        return "free_fast";
    case LatencyPath::free_spill:
        return "free_spill";
    case LatencyPath::free_remote_push:
        return "free_remote_push";
    case LatencyPath::owner_drain:
        return "owner_drain";
    case LatencyPath::malloc_huge:
        return "malloc_huge";
    case LatencyPath::free_huge:
        return "free_huge";
    }
    return "unknown";
}

double
LatencyHistogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    if (p <= 0.0)
        return static_cast<double>(bucket_lower(bucket_for(0)));
    if (p >= 100.0)
        return static_cast<double>(max_);
    const double need = p / 100.0 * static_cast<double>(count_);
    std::uint64_t cumulative = 0;
    for (int b = 0; b < kBuckets; ++b) {
        const std::uint64_t n = buckets_[static_cast<std::size_t>(b)];
        if (n == 0)
            continue;
        if (static_cast<double>(cumulative + n) >= need) {
            // Interpolate linearly inside the bucket; the upper edge
            // is capped at the recorded max so the open-ended last
            // bucket (and any sparse top bucket) cannot report a
            // value no sample ever reached.
            const double lo = static_cast<double>(bucket_lower(b));
            double hi = static_cast<double>(
                std::min(bucket_upper(b), max_));
            if (hi < lo)
                hi = lo;
            const double frac =
                (need - static_cast<double>(cumulative)) /
                static_cast<double>(n);
            const double value = lo + frac * (hi - lo);
            return std::min(value, static_cast<double>(max_));
        }
        cumulative += n;
    }
    return static_cast<double>(max_);
}

void
AtomicLatencyHistogram::merge_into(LatencyHistogram& out) const
{
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i)
        out.buckets_[static_cast<std::size_t>(i)] +=
            buckets_[static_cast<std::size_t>(i)].load(
                std::memory_order_relaxed);
    out.count_ += count_.load(std::memory_order_relaxed);
    out.sum_ += sum_.load(std::memory_order_relaxed);
    const std::uint64_t m = max_.load(std::memory_order_relaxed);
    if (m > out.max_)
        out.max_ = m;
}

LatencySnapshot
LatencyCollector::snapshot() const
{
    LatencySnapshot snap;
    snap.outliers = outlier_head_.load(std::memory_order_relaxed);
    snap.outlier_cycles = outlier_cycles_;
    snap.sample_period = period_;
    for (const Shard& shard : shards_)
        for (int p = 0; p < kLatencyPathCount; ++p)
            shard.paths[static_cast<std::size_t>(p)].merge_into(
                snap.paths[static_cast<std::size_t>(p)]);
    return snap;
}

void
LatencyCollector::record_outlier(std::uint64_t timestamp, int tid,
                                 LatencyPath path, std::uint64_t cycles,
                                 const std::uintptr_t* frames,
                                 int frame_count)
{
    const std::uint64_t seq =
        outlier_head_.fetch_add(1, std::memory_order_relaxed);
    OutlierSlot& slot = outliers_[seq % kOutlierSlots];
    slot.timestamp.store(timestamp, std::memory_order_relaxed);
    slot.cycles.store(cycles, std::memory_order_relaxed);
    slot.tid.store(tid, std::memory_order_relaxed);
    slot.path.store(static_cast<std::uint8_t>(path),
                    std::memory_order_relaxed);
    if (frame_count > kMaxOutlierFrames)
        frame_count = kMaxOutlierFrames;
    for (int i = 0; i < frame_count; ++i)
        slot.frames[static_cast<std::size_t>(i)].store(
            frames == nullptr ? 0 : frames[i],
            std::memory_order_relaxed);
    slot.frame_count.store(frames == nullptr ? 0 : frame_count,
                           std::memory_order_relaxed);
}

std::vector<LatencyOutlier>
LatencyCollector::recent_outliers() const
{
    const std::uint64_t head =
        outlier_head_.load(std::memory_order_relaxed);
    const std::uint64_t retained = std::min(
        head, static_cast<std::uint64_t>(kOutlierSlots));
    std::vector<LatencyOutlier> out;
    out.reserve(retained);
    for (std::uint64_t i = head - retained; i < head; ++i) {
        const OutlierSlot& slot = outliers_[i % kOutlierSlots];
        LatencyOutlier rec;
        rec.timestamp = slot.timestamp.load(std::memory_order_relaxed);
        rec.cycles = slot.cycles.load(std::memory_order_relaxed);
        rec.tid = slot.tid.load(std::memory_order_relaxed);
        rec.path = static_cast<LatencyPath>(
            slot.path.load(std::memory_order_relaxed));
        int n = slot.frame_count.load(std::memory_order_relaxed);
        if (n > kMaxOutlierFrames)
            n = kMaxOutlierFrames;
        rec.frame_count = n;
        for (int f = 0; f < n; ++f)
            rec.frames[static_cast<std::size_t>(f)] =
                slot.frames[static_cast<std::size_t>(f)].load(
                    std::memory_order_relaxed);
        out.push_back(rec);
    }
    return out;
}

}  // namespace obs
}  // namespace hoard
