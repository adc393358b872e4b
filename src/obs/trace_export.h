/**
 * @file
 * Exporters for event rings and snapshots.
 *
 * Three formats, one per consumer:
 *  - Chrome trace_event JSON (chrome://tracing, Perfetto) for the
 *    event rings — each allocator event becomes an instant event on
 *    its recording thread's track;
 *  - Prometheus text exposition for snapshots — per-heap gauges with
 *    heap/size-class labels, ready for a scrape endpoint;
 *  - a human-readable dump for operators and test logs;
 *  - JSONL for time-series samples (obs/timeseries.h) — one JSON
 *    object per line, stream-appendable and trivially loadable into
 *    pandas/jq, plus Chrome counter tracks riding along in the trace.
 */

#ifndef HOARD_OBS_TRACE_EXPORT_H_
#define HOARD_OBS_TRACE_EXPORT_H_

#include <ostream>
#include <string>

#include "obs/event_ring.h"
#include "obs/snapshot.h"
#include "obs/timeseries.h"

namespace hoard {
namespace obs {

/**
 * Escapes @p text for embedding inside a JSON string literal: quotes,
 * backslashes, and control characters.  Symbolized C++ names can carry
 * both (operator\"\"_x literals, lambda manglings), so every exporter
 * that quotes a non-constant name routes through this.  Local to
 * src/obs because hoard_obs cannot link the metrics JSON library
 * (hoard_metrics depends on hoard_core depends on hoard_obs);
 * metrics/json_value.h round-trips what this produces.
 */
inline std::string
json_escape(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (unsigned char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                const char* hex = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xF];
                out += hex[c & 0xF];
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

/**
 * Writes the recorder's retained events as Chrome trace JSON
 * ({"traceEvents":[...]}).  @p ts_per_us converts recorded timestamps
 * to the format's microseconds: 1000 for NativePolicy nanoseconds, 1
 * to map one virtual cycle to 1 us for SimPolicy traces.  When
 * @p sampler is non-null its retained samples are added as Chrome
 * counter tracks ("ph":"C": in-use/held/committed/reserved/purged/
 * cached bytes and blowup),
 * drawn above the instant events in chrome://tracing.
 */
void write_chrome_trace(std::ostream& os, const EventRecorder& recorder,
                        double ts_per_us = 1000.0,
                        const TimeSeriesSampler* sampler = nullptr);

/**
 * Writes the sampler's retained samples as JSONL, one
 * {"schema":"hoard-timeline-v7", ...} object per line, oldest first:
 * policy-time timestamp; the footprint gauges "in_use", "held",
 * "committed" (the RSS ground truth), "reserved" (provider address
 * space), "purged" (held-but-decommitted, so committed + purged ==
 * held at quiescence), and "cached"; the cumulative counters
 * "allocs", "frees", "transfers", "global_fetches",
 * "global_bin_hits"/"global_bin_misses", "cache_pushes"/"cache_pops",
 * the "bad_free_*" rejections, the profiler's
 * "prof_sampled_requested"/"prof_sampled_rounded" byte totals;
 * per-path "lat_<path>_n" (op count) and "lat_<path>_p99" (P99 in
 * policy cycles) for each obs::LatencyPath; "blowup"; and a "heaps"
 * array of per-heap {"u":..,"a":..} points (index 0 is the global
 * heap).  Disarmed subsystems report zeros.  docs/OBSERVABILITY.md
 * lists the keys each schema version removed.
 */
void write_timeseries_jsonl(std::ostream& os,
                            const TimeSeriesSampler& sampler);

/** Writes a snapshot as Prometheus text exposition (version 0.0.4). */
void write_prometheus(std::ostream& os, const AllocatorSnapshot& snap);

/** Writes a snapshot as an indented human-readable report. */
void write_human(std::ostream& os, const AllocatorSnapshot& snap);

}  // namespace obs
}  // namespace hoard

#endif  // HOARD_OBS_TRACE_EXPORT_H_
