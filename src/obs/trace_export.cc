#include "obs/trace_export.h"

#include <cinttypes>
#include <cstdio>
#include <vector>

namespace hoard {
namespace obs {

namespace {

/** Fixed-format double: Chrome's ts field and Prometheus values. */
void
put_double(std::ostream& os, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    os << buf;
}

void
prom_header(std::ostream& os, const char* name, const char* type,
            const char* help)
{
    os << "# HELP " << name << ' ' << help << '\n'
       << "# TYPE " << name << ' ' << type << '\n';
}

/**
 * Emits one LatencyHistogram as a Prometheus cumulative histogram:
 * `<name>_bucket{<labels>,le="..."}` for every bucket boundary that
 * closes a non-empty bucket (empty buckets are skipped — a cumulative
 * histogram stays valid under any subset of boundaries, and 189
 * boundaries per series would swamp the exposition), then +Inf,
 * `<name>_count`, and `<name>_sum`.  @p labels is either empty or a
 * `key="value"` list without braces.
 */
void
prom_cycle_histogram(std::ostream& os, const char* name,
                     const std::string& labels,
                     const LatencyHistogram& h)
{
    const std::string sep = labels.empty() ? "" : ",";
    std::uint64_t cumulative = 0;
    for (int b = 0; b < LatencyHistogram::kBuckets - 1; ++b) {
        const std::uint64_t n = h.bucket(b);
        if (n == 0)
            continue;
        cumulative += n;
        // Bucket b covers [lower, upper); cycles are integers, so the
        // inclusive Prometheus boundary is upper - 1.
        os << name << "_bucket{" << labels << sep << "le=\""
           << LatencyHistogram::bucket_upper(b) - 1 << "\"} "
           << cumulative << '\n';
    }
    os << name << "_bucket{" << labels << sep << "le=\"+Inf\"} "
       << h.count() << '\n'
       << name << "_count{" << labels << "} " << h.count() << '\n'
       << name << "_sum{" << labels << "} " << h.sum() << '\n';
}

}  // namespace

void
write_chrome_trace(std::ostream& os, const EventRecorder& recorder,
                   double ts_per_us, const TimeSeriesSampler* sampler)
{
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent& ev : recorder.collect()) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\":\"" << json_escape(to_string(ev.kind))
           << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << ev.tid
           << ",\"ts\":";
        put_double(os, static_cast<double>(ev.timestamp) / ts_per_us);
        os << ",\"args\":{\"heap\":" << ev.heap
           << ",\"size_class\":" << ev.size_class
           << ",\"bytes\":" << ev.bytes << "}}";
    }
    if (sampler != nullptr) {
        for (const TimeSample& s : sampler->collect()) {
            if (!first)
                os << ",";
            first = false;
            os << "\n{\"name\":\"hoard_bytes\",\"ph\":\"C\",\"pid\":1"
               << ",\"ts\":";
            put_double(os,
                       static_cast<double>(s.timestamp) / ts_per_us);
            os << ",\"args\":{\"in_use\":" << s.in_use
               << ",\"held\":" << s.held
               << ",\"committed\":" << s.committed_bytes
               << ",\"reserved\":" << s.reserved_bytes
               << ",\"purged\":" << s.purged_bytes
               << ",\"cached\":" << s.cached_bytes << "}},"
               << "\n{\"name\":\"hoard_blowup\",\"ph\":\"C\",\"pid\":1"
               << ",\"ts\":";
            put_double(os,
                       static_cast<double>(s.timestamp) / ts_per_us);
            os << ",\"args\":{\"blowup\":";
            put_double(os, s.blowup());
            os << "}}";
        }
    }
    os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
       << "\"recorded\":" << recorder.total_recorded()
       << ",\"dropped\":" << recorder.dropped();
    if (sampler != nullptr) {
        os << ",\"samples\":" << sampler->total_samples()
           << ",\"samples_dropped\":" << sampler->dropped();
    }
    os << "}}\n";
    os.flush();
}

void
write_timeseries_jsonl(std::ostream& os, const TimeSeriesSampler& sampler)
{
    for (const TimeSample& s : sampler.collect()) {
        os << "{\"schema\":\"hoard-timeline-v7\",\"ts\":" << s.timestamp
           << ",\"in_use\":" << s.in_use << ",\"held\":" << s.held
           << ",\"committed\":" << s.committed_bytes
           << ",\"reserved\":" << s.reserved_bytes
           << ",\"purged\":" << s.purged_bytes
           << ",\"cached\":" << s.cached_bytes
           << ",\"allocs\":" << s.allocs << ",\"frees\":" << s.frees
           << ",\"transfers\":" << s.transfers
           << ",\"global_fetches\":" << s.global_fetches
           << ",\"global_bin_hits\":" << s.bin_hits
           << ",\"global_bin_misses\":" << s.bin_misses
           << ",\"cache_pushes\":" << s.cache_pushes
           << ",\"cache_pops\":" << s.cache_pops
           << ",\"bad_free_wild\":" << s.bad_free_wild
           << ",\"bad_free_foreign\":" << s.bad_free_foreign
           << ",\"bad_free_interior\":" << s.bad_free_interior
           << ",\"bad_free_double\":" << s.bad_free_double
           << ",\"prof_sampled_requested\":" << s.prof_requested
           << ",\"prof_sampled_rounded\":" << s.prof_rounded;
        for (int p = 0; p < kLatencyPathCount; ++p) {
            const char* name = to_string(static_cast<LatencyPath>(p));
            const auto i = static_cast<std::size_t>(p);
            os << ",\"lat_" << name << "_n\":" << s.lat_counts[i]
               << ",\"lat_" << name << "_p99\":" << s.lat_p99[i];
        }
        os << ",\"blowup\":";
        put_double(os, s.blowup());
        os << ",\"heaps\":[";
        for (std::size_t h = 0; h < s.heaps.size(); ++h) {
            if (h != 0)
                os << ',';
            os << "{\"u\":" << s.heaps[h].in_use
               << ",\"a\":" << s.heaps[h].held << '}';
        }
        os << "]}\n";
    }
    os.flush();
}

void
write_prometheus(std::ostream& os, const AllocatorSnapshot& snap)
{
    prom_header(os, "hoard_heap_in_use_bytes", "gauge",
                "u_i: block bytes handed to the program, per heap");
    for (const HeapSnapshot& h : snap.heaps) {
        os << "hoard_heap_in_use_bytes{heap=\"" << h.index << "\"} "
           << h.in_use << '\n';
    }

    prom_header(os, "hoard_heap_held_bytes", "gauge",
                "a_i: bytes held in superblocks, per heap");
    for (const HeapSnapshot& h : snap.heaps) {
        os << "hoard_heap_held_bytes{heap=\"" << h.index << "\"} "
           << h.held << '\n';
    }

    prom_header(os, "hoard_heap_invariant_slack_bytes", "gauge",
                "signed slack above the emptiness-invariant bound");
    for (const HeapSnapshot& h : snap.heaps) {
        if (h.index == 0)
            continue;
        os << "hoard_heap_invariant_slack_bytes{heap=\"" << h.index
           << "\"} ";
        put_double(os, h.invariant_slack_bytes(snap.superblock_bytes,
                                               snap.release_threshold,
                                               snap.slack_superblocks,
                                               snap.global_fetch_batch));
        os << '\n';
    }

    prom_header(os, "hoard_heap_superblocks", "gauge",
                "superblock count per heap and size class");
    for (const HeapSnapshot& h : snap.heaps) {
        for (const ClassSnapshot& c : h.classes) {
            os << "hoard_heap_superblocks{heap=\"" << h.index
               << "\",size_class=\"" << c.size_class << "\"} "
               << c.superblocks << '\n';
        }
    }

    // Occupancy CDF: cumulative superblock counts per fullness band,
    // aggregated over all heaps, one histogram per size class.  Band g
    // of kFullnessBands covers fullness [g/8, (g+1)/8); the trailing
    // full group lands in le="1".  This is the fragmentation signal
    // purge policies key on (ROADMAP item 2): mass in the low buckets
    // is reclaimable, mass at le="1" is dense and should stay put.
    prom_header(os, "hoard_superblock_occupancy", "histogram",
                "fullness CDF of superblocks per size class");
    {
        struct ClassCdf
        {
            int size_class = 0;
            std::vector<std::uint64_t> groups;
        };
        std::vector<ClassCdf> cdfs;
        for (const HeapSnapshot& h : snap.heaps) {
            for (const ClassSnapshot& c : h.classes) {
                ClassCdf* cdf = nullptr;
                for (ClassCdf& seen : cdfs) {
                    if (seen.size_class == c.size_class) {
                        cdf = &seen;
                        break;
                    }
                }
                if (cdf == nullptr) {
                    cdfs.push_back({c.size_class, {}});
                    cdf = &cdfs.back();
                }
                if (cdf->groups.size() < c.group_counts.size())
                    cdf->groups.resize(c.group_counts.size(), 0);
                for (std::size_t g = 0; g < c.group_counts.size(); ++g)
                    cdf->groups[g] += c.group_counts[g];
            }
        }
        for (const ClassCdf& cdf : cdfs) {
            const std::size_t bands =
                cdf.groups.size() > 1 ? cdf.groups.size() - 1 : 1;
            std::uint64_t cumulative = 0;
            for (std::size_t g = 0; g < cdf.groups.size(); ++g) {
                cumulative += cdf.groups[g];
                // The final two groups (band 7 and "full") share the
                // le="1" boundary; emit only the full one there.
                if (g + 2 == cdf.groups.size())
                    continue;
                os << "hoard_superblock_occupancy_bucket{size_class=\""
                   << cdf.size_class << "\",le=\"";
                if (g + 1 == cdf.groups.size())
                    os << "1";
                else
                    put_double(os,
                               static_cast<double>(g + 1) /
                                   static_cast<double>(bands));
                os << "\"} " << cumulative << '\n';
            }
            os << "hoard_superblock_occupancy_bucket{size_class=\""
               << cdf.size_class << "\",le=\"+Inf\"} " << cumulative
               << '\n'
               << "hoard_superblock_occupancy_count{size_class=\""
               << cdf.size_class << "\"} " << cumulative << '\n';
        }
    }

    prom_header(os, "hoard_global_bin_occupancy", "gauge",
                "superblocks parked in each per-class global bin");
    for (const HeapSnapshot& h : snap.heaps) {
        if (h.index != 0)
            continue;
        for (const ClassSnapshot& c : h.classes) {
            os << "hoard_global_bin_occupancy{size_class=\""
               << c.size_class << "\"} " << c.superblocks << '\n';
        }
    }

    prom_header(os, "hoard_lock_acquires_total", "counter",
                "heap lock acquisitions (0 unless profiling enabled)");
    for (const HeapSnapshot& h : snap.heaps) {
        os << "hoard_lock_acquires_total{heap=\"" << h.index << "\"} "
           << h.lock.acquires << '\n';
    }

    prom_header(os, "hoard_lock_contended_total", "counter",
                "heap lock acquisitions that had to wait");
    for (const HeapSnapshot& h : snap.heaps) {
        os << "hoard_lock_contended_total{heap=\"" << h.index << "\"} "
           << h.lock.contended << '\n';
    }

    prom_header(os, "hoard_lock_wait", "gauge",
                "contended-wait percentiles (policy time units)");
    for (const HeapSnapshot& h : snap.heaps) {
        for (double p : {50.0, 99.0}) {
            os << "hoard_lock_wait{heap=\"" << h.index
               << "\",quantile=\"" << (p == 50.0 ? "0.5" : "0.99")
               << "\"} ";
            put_double(os, h.lock.wait.percentile(p));
            os << '\n';
        }
    }

    prom_header(os, "hoard_lock_wait_cycles", "histogram",
                "contended lock-wait time per heap (policy time units)");
    for (const HeapSnapshot& h : snap.heaps) {
        prom_cycle_histogram(os, "hoard_lock_wait_cycles",
                             "heap=\"" + std::to_string(h.index) + "\"",
                             h.lock.wait);
    }

    if (snap.latency_armed) {
        prom_header(os, "hoard_latency_cycles", "histogram",
                    "operation latency per allocator path (cycles)");
        for (int p = 0; p < kLatencyPathCount; ++p) {
            const auto path = static_cast<LatencyPath>(p);
            prom_cycle_histogram(
                os, "hoard_latency_cycles",
                std::string("path=\"") + to_string(path) + "\"",
                snap.latency.path(path));
        }

        prom_header(os, "hoard_latency", "gauge",
                    "operation-latency percentiles per path (cycles)");
        static const struct
        {
            double p;
            const char* label;
        } kQuantiles[] = {{50.0, "0.5"},
                          {90.0, "0.9"},
                          {99.0, "0.99"},
                          {99.9, "0.999"}};
        for (int p = 0; p < kLatencyPathCount; ++p) {
            const auto path = static_cast<LatencyPath>(p);
            for (const auto& q : kQuantiles) {
                os << "hoard_latency{path=\"" << to_string(path)
                   << "\",quantile=\"" << q.label << "\"} ";
                put_double(os, snap.latency.path(path).percentile(q.p));
                os << '\n';
            }
        }

        prom_header(os, "hoard_latency_max_cycles", "gauge",
                    "worst observed operation latency per path");
        for (int p = 0; p < kLatencyPathCount; ++p) {
            const auto path = static_cast<LatencyPath>(p);
            os << "hoard_latency_max_cycles{path=\"" << to_string(path)
               << "\"} " << snap.latency.path(path).max() << '\n';
        }

        prom_header(os, "hoard_latency_outliers_total", "counter",
                    "ops exceeding Config::latency_outlier_cycles");
        os << "hoard_latency_outliers_total " << snap.latency.outliers
           << '\n';

        prom_header(os, "hoard_latency_sample_period", "gauge",
                    "fast-path timing sample period (1 = exact)");
        os << "hoard_latency_sample_period "
           << snap.latency.sample_period << '\n';
    }

    const StatsSummary& s = snap.stats;
    prom_header(os, "hoard_allocs_total", "counter", "allocate() calls");
    os << "hoard_allocs_total " << s.allocs << '\n';
    prom_header(os, "hoard_frees_total", "counter", "deallocate() calls");
    os << "hoard_frees_total " << s.frees << '\n';
    prom_header(os, "hoard_in_use_bytes", "gauge",
                "block bytes currently live (U)");
    os << "hoard_in_use_bytes " << s.in_use_bytes << '\n';
    prom_header(os, "hoard_held_bytes", "gauge",
                "bytes held in superblocks (A)");
    os << "hoard_held_bytes " << s.held_bytes << '\n';
    prom_header(os, "hoard_committed_bytes", "gauge",
                "OS-committed bytes (RSS ground truth)");
    os << "hoard_committed_bytes " << s.committed_bytes << '\n';
    prom_header(os, "hoard_reserved_bytes", "gauge",
                "virtual address space held by the page provider");
    os << "hoard_reserved_bytes " << s.reserved_bytes << '\n';
    prom_header(os, "hoard_purged_bytes", "gauge",
                "held bytes returned to the OS by the purge pass");
    os << "hoard_purged_bytes " << s.purged_bytes << '\n';
    prom_header(os, "hoard_purge_passes_total", "counter",
                "purge sweeps over idle superblocks");
    os << "hoard_purge_passes_total " << s.purge_passes << '\n';
    prom_header(os, "hoard_purged_superblocks_total", "counter",
                "superblock payloads decommitted by purge");
    os << "hoard_purged_superblocks_total " << s.purged_superblocks
       << '\n';
    prom_header(os, "hoard_revived_superblocks_total", "counter",
                "purged superblocks put back into service");
    os << "hoard_revived_superblocks_total " << s.revived_superblocks
       << '\n';
    prom_header(os, "hoard_cached_bytes", "gauge",
                "bytes parked in thread caches");
    os << "hoard_cached_bytes " << s.cached_bytes << '\n';
    prom_header(os, "hoard_superblock_transfers_total", "counter",
                "per-processor heap to global heap moves");
    os << "hoard_superblock_transfers_total " << s.superblock_transfers
       << '\n';
    prom_header(os, "hoard_global_fetches_total", "counter",
                "superblocks pulled from the global heap");
    os << "hoard_global_fetches_total " << s.global_fetches << '\n';
    prom_header(os, "hoard_oom_reclaims_total", "counter",
                "map failures answered by reclaiming");
    os << "hoard_oom_reclaims_total " << s.oom_reclaims << '\n';
    prom_header(os, "hoard_oom_failures_total", "counter",
                "allocations that failed even after reclaim");
    os << "hoard_oom_failures_total " << s.oom_failures << '\n';
    prom_header(os, "hoard_remote_frees_total", "counter",
                "frees pushed to a busy owner's remote queue");
    os << "hoard_remote_frees_total " << s.remote_frees << '\n';
    prom_header(os, "hoard_remote_drains_total", "counter",
                "blocks drained from remote-free queues");
    os << "hoard_remote_drains_total " << s.remote_drains << '\n';
    prom_header(os, "hoard_batch_refills_total", "counter",
                "magazine batch refills (one heap lock each)");
    os << "hoard_batch_refills_total " << s.batch_refills << '\n';
    prom_header(os, "hoard_batch_flushes_total", "counter",
                "magazine batch spills/flushes");
    os << "hoard_batch_flushes_total " << s.batch_flushes << '\n';
    prom_header(os, "hoard_global_bin_hits_total", "counter",
                "fetches served by a per-class global bin");
    os << "hoard_global_bin_hits_total " << s.global_bin_hits << '\n';
    prom_header(os, "hoard_global_bin_misses_total", "counter",
                "bin probes that found the size class empty");
    os << "hoard_global_bin_misses_total " << s.global_bin_misses
       << '\n';
    prom_header(os, "hoard_cache_pushes_total", "counter",
                "empty superblocks retired to the reuse cache");
    os << "hoard_cache_pushes_total " << s.cache_pushes << '\n';
    prom_header(os, "hoard_cache_pops_total", "counter",
                "empty superblocks recycled from the reuse cache");
    os << "hoard_cache_pops_total " << s.cache_pops << '\n';
    prom_header(os, "hoard_huge_cache_releases_total", "counter",
                "reuse-cache empties unmapped by the huge path before "
                "it mapped");
    os << "hoard_huge_cache_releases_total " << s.huge_cache_releases
       << '\n';
    prom_header(os, "hoard_medium_reuses_total", "counter",
                "medium allocations served by a parked span");
    os << "hoard_medium_reuses_total " << s.medium_reuses << '\n';
    prom_header(os, "hoard_medium_decommits_total", "counter",
                "medium spans decommitted by free, eviction, purge or "
                "reclaim");
    os << "hoard_medium_decommits_total " << s.medium_decommits << '\n';
    prom_header(os, "hoard_bad_free_wild_total", "counter",
                "frees of pointers outside any superblock");
    os << "hoard_bad_free_wild_total " << s.bad_free_wild << '\n';
    prom_header(os, "hoard_bad_free_foreign_total", "counter",
                "frees of another allocator's memory");
    os << "hoard_bad_free_foreign_total " << s.bad_free_foreign << '\n';
    prom_header(os, "hoard_bad_free_interior_total", "counter",
                "frees of misaligned or interior pointers");
    os << "hoard_bad_free_interior_total " << s.bad_free_interior << '\n';
    prom_header(os, "hoard_bad_free_double_total", "counter",
                "frees of blocks that were already free");
    os << "hoard_bad_free_double_total " << s.bad_free_double << '\n';
    os.flush();
}

void
write_human(std::ostream& os, const AllocatorSnapshot& snap)
{
    os << snap.allocator_name << " snapshot: S=" << snap.superblock_bytes
       << " f=" << snap.empty_fraction << " t=" << snap.release_threshold
       << " K=" << snap.slack_superblocks << " P=" << snap.heap_count
       << "\n";
    os << "  totals: in-use " << snap.stats.in_use_bytes << " held "
       << snap.stats.held_bytes << " committed "
       << snap.stats.committed_bytes << " purged "
       << snap.stats.purged_bytes << " reserved "
       << snap.stats.reserved_bytes << " cached " << snap.cached_bytes
       << " huge " << snap.huge_count << " (" << snap.huge_user_bytes
       << "/" << snap.huge_span_bytes << " B) parked "
       << snap.parked_count << " (" << snap.parked_span_bytes << " B)\n";
    os << "  slow path: transfers " << snap.stats.superblock_transfers
       << " fetches " << snap.stats.global_fetches << " (bin hits "
       << snap.stats.global_bin_hits << " misses "
       << snap.stats.global_bin_misses << "), cache pushes "
       << snap.stats.cache_pushes << " pops " << snap.stats.cache_pops
       << ", huge give-backs " << snap.stats.huge_cache_releases
       << ", medium reuses " << snap.stats.medium_reuses
       << " decommits " << snap.stats.medium_decommits << "\n";
    if (snap.stats.bad_free_wild + snap.stats.bad_free_foreign +
            snap.stats.bad_free_interior + snap.stats.bad_free_double !=
        0) {
        os << "  bad frees: wild " << snap.stats.bad_free_wild
           << " foreign " << snap.stats.bad_free_foreign << " interior "
           << snap.stats.bad_free_interior << " double "
           << snap.stats.bad_free_double << "\n";
    }
    os << "  reconciles: " << (snap.reconciles() ? "yes" : "no")
       << ", invariant: "
       << (snap.all_heaps_satisfy_invariant() ? "ok" : "VIOLATED")
       << "\n";
    if (snap.latency_armed) {
        os << "  latency (cycles, sample period "
           << snap.latency.sample_period << ", outliers "
           << snap.latency.outliers << "):\n";
        for (int p = 0; p < kLatencyPathCount; ++p) {
            const auto path = static_cast<LatencyPath>(p);
            const LatencyHistogram& h = snap.latency.path(path);
            if (h.count() == 0)
                continue;
            os << "    " << to_string(path) << ": n=" << h.count()
               << " p50=";
            put_double(os, h.percentile(50.0));
            os << " p99=";
            put_double(os, h.percentile(99.0));
            os << " p99.9=";
            put_double(os, h.percentile(99.9));
            os << " max=" << h.max() << "\n";
        }
    }
    for (const HeapSnapshot& h : snap.heaps) {
        os << (h.index == 0 ? "  heap 0 (global)" : "  heap ")
           << (h.index == 0 ? "" : std::to_string(h.index)) << ": u="
           << h.in_use << " a=" << h.held;
        if (h.index != 0) {
            os << " slack=";
            put_double(os, h.invariant_slack_bytes(
                               snap.superblock_bytes,
                               snap.release_threshold,
                               snap.slack_superblocks,
                               snap.global_fetch_batch));
        }
        if (h.index == 0)
            os << " empty-cached=" << h.empty_cached;
        if (h.lock.acquires != 0) {
            os << " lock(acq=" << h.lock.acquires
               << " contended=" << h.lock.contended << " wait-p99=";
            put_double(os, h.lock.wait.percentile(99));
            os << ")";
        }
        os << "\n";
        for (const ClassSnapshot& c : h.classes) {
            os << "    class " << c.size_class << " (" << c.block_bytes
               << " B): " << c.superblocks << " superblock(s), "
               << c.used_blocks << "/" << c.capacity_blocks
               << " blocks, groups [";
            for (std::size_t g = 0; g < c.group_counts.size(); ++g) {
                if (g != 0)
                    os << ' ';
                os << c.group_counts[g];
            }
            os << "]\n";
        }
    }
    os.flush();
}

}  // namespace obs
}  // namespace hoard
