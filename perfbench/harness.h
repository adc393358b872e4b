/**
 * @file
 * Helpers shared by the benchmark's two programs: the command line,
 * the allocator counters both read (from hoard_stats() of libhoard.so,
 * or stats() of an in-process instance), sample statistics, the 64 B
 * pair ladder, and JSON output.
 */

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/stats.h"
#include "workloads.h"

namespace perfbench {

/** Command line of both programs; each prints its own usage. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 1.0;
    bool ladder = false;
    bool mode = false;  ///< the program's own switch was given
};

/** The warm-up lasts a quarter of the measured phase, at most this. */
constexpr double kMaxWarmupS = 0.25;

/**
 * Parses argv, accepting @p mode_switch as the program's own switch,
 * and fills @p run unless --ladder was given, sampling as the traced
 * or the end-to-end program per @p traced.  Returns false on a
 * malformed command line or an unknown workload.
 */
inline bool
parse_args(int argc, char** argv, const std::string& mode_switch, bool traced,
           Args& a, Run& run)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == mode_switch || flag == "--ladder") {
            (flag == mode_switch ? a.mode : a.ladder) = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char* v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else
            return false;
    }
    if (!(a.seconds > 0))
        return false;
    if (a.ladder)
        return true;
    if (!parse_workload(a.workload, run.workload))
        return false;
    run.seed = a.seed;
    run.period = sample_period(run.workload, traced);
    run.warmup_ns =
        static_cast<std::uint64_t>(std::min(a.seconds / 4, kMaxWarmupS) * 1e9);
    return true;
}

/** The AllocatorStats counters the per-layer metrics are built from. */
struct Counters
{
#define PERFBENCH_COUNTERS(X)                                              \
    X(allocs)                                                              \
    X(huge_allocs)                                                         \
    X(remote_frees)                                                        \
    X(remote_drains)                                                       \
    X(superblock_allocs)                                                   \
    X(superblock_transfers)                                                \
    X(global_fetches)                                                      \
    X(global_bin_hits)                                                     \
    X(global_bin_misses)                                                   \
    X(cache_pushes)                                                        \
    X(cache_pops)                                                          \
    X(batch_refills)                                                       \
    X(batch_flushes)                                                       \
    X(bg_wakeups)
#define PERFBENCH_FIELD(name) std::uint64_t name = 0;
    PERFBENCH_COUNTERS(PERFBENCH_FIELD)
#undef PERFBENCH_FIELD

    static Counters
    read(const hoard::detail::AllocatorStats& s)
    {
        Counters c;
#define PERFBENCH_READ(name) c.name = s.name.get();
        PERFBENCH_COUNTERS(PERFBENCH_READ)
#undef PERFBENCH_READ
        return c;
    }

    Counters
    minus(const Counters& o) const
    {
        Counters d;
#define PERFBENCH_SUB(name) d.name = name - o.name;
        PERFBENCH_COUNTERS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
        return d;
    }

    /** Writes `{"allocs": n, ...}`. */
    void
    write_json(std::FILE* out) const
    {
        const char* sep = "{";
#define PERFBENCH_WRITE(name)                                              \
    std::fprintf(out, "%s\"" #name "\": %llu", sep,                        \
                 static_cast<unsigned long long>(name));                   \
    sep = ", ";
        PERFBENCH_COUNTERS(PERFBENCH_WRITE)
#undef PERFBENCH_WRITE
        std::fputs("}", out);
    }
};

/** Nearest-rank percentile of @p v (sorted in place); 0 when empty. */
inline double
percentile(std::vector<std::uint32_t>& v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/** Median of @p v (sorted in place); 0 when empty. */
inline double
median(std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Rounds of the 64 B pair ladder; each side gets an equal share. */
constexpr int kLadderRounds = 15;

/**
 * One ladder round: runs @p pair (one allocate/free pair) in blocks of
 * 1024 for about @p budget_ns after a warm-up block, and returns the
 * mean cost of a pair in ns.
 */
template <class Pair>
double
pair_round_ns(Pair&& pair, std::uint64_t budget_ns)
{
    for (int i = 0; i < 1024; ++i)
        pair();
    const std::uint64_t t0 = now_ns();
    std::uint64_t pairs = 0;
    std::uint64_t t = t0;
    while (t < t0 + budget_ns) {
        for (int i = 0; i < 1024; ++i)
            pair();
        pairs += 1024;
        t = now_ns();
    }
    return static_cast<double>(t - t0) / static_cast<double>(pairs);
}

/**
 * Timings of one thread's calls, in a buffer that never grows after
 * construction, so recording never allocates.  Until the buffer is
 * full it keeps every call; then it keeps every other kept value and
 * from there on 1 in 2^k calls.  The kept values thus cover the whole
 * phase evenly however long it runs.  count() and total_ns() cover
 * every recorded call.  Values saturate at 2^32 - 1 ns.
 */
class Samples
{
  public:
    static constexpr std::size_t kCapacity = std::size_t{1} << 18;

    Samples() { kept_.reserve(kCapacity); }

    void
    record(std::uint64_t ns)
    {
        const std::uint64_t i = count_++;
        total_ns_ += static_cast<double>(ns);
        if ((i & (stride_ - 1)) != 0)
            return;
        if (kept_.size() == kCapacity) {
            for (std::size_t j = 0; j < kCapacity / 2; ++j)
                kept_[j] = kept_[2 * j];
            kept_.resize(kCapacity / 2);
            stride_ *= 2;
            if ((i & (stride_ - 1)) != 0)
                return;
        }
        kept_.push_back(
            static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, 0xffffffffu)));
    }

    const std::vector<std::uint32_t>& kept() const { return kept_; }
    std::uint64_t count() const { return count_; }
    double total_ns() const { return total_ns_; }

  private:
    std::vector<std::uint32_t> kept_;
    std::uint64_t count_ = 0;
    std::uint64_t stride_ = 1;
    double total_ns_ = 0;
};

/**
 * The Samples of every thread, pooled.  Threads that run the same loop
 * reach the same stride or close to it, so pooling weighs them alike.
 */
struct Pooled
{
    std::vector<std::uint32_t> kept;
    std::uint64_t count = 0;
    double total_ns = 0;

    void
    add(const Samples& s)
    {
        kept.insert(kept.end(), s.kept().begin(), s.kept().end());
        count += s.count();
        total_ns += s.total_ns();
    }

    double at(double q) { return percentile(kept, q); }
};

/** Writes `"name": value` pairs as one JSON object member list. */
class JsonFields
{
  public:
    explicit JsonFields(std::FILE* out) : out_(out) {}

    void
    num(const char* name, double v)
    {
        std::fprintf(out_, "%s\"%s\": %.17g", sep_, name,
                     std::isfinite(v) ? v : 0.0);
        sep_ = ", ";
    }

    void
    str(const char* name, const char* v)
    {
        std::fprintf(out_, "%s\"%s\": \"%s\"", sep_, name, v);
        sep_ = ", ";
    }

    /** Starts a nested member; the caller writes its value. */
    void
    key(const char* name)
    {
        std::fprintf(out_, "%s\"%s\": ", sep_, name);
        sep_ = ", ";
    }

  private:
    std::FILE* out_;
    const char* sep_ = "";
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
