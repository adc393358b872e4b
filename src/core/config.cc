#include "core/config.h"

#include "common/failure.h"
#include "common/mathutil.h"

namespace hoard {

void
Config::validate() const
{
    if (!detail::is_pow2(superblock_bytes) || superblock_bytes < 1024) {
        HOARD_FATAL("superblock_bytes (%zu) must be a power of two >= 1024",
                    superblock_bytes);
    }
    if (!(empty_fraction > 0.0 && empty_fraction < 1.0))
        HOARD_FATAL("empty_fraction (%f) must be in (0, 1)", empty_fraction);
    if (!(release_threshold >= empty_fraction &&
          release_threshold <= 1.0)) {
        HOARD_FATAL("release_threshold (%f) must be in"
                    " [empty_fraction, 1]",
                    release_threshold);
    }
    if (!(size_class_base > 1.0 && size_class_base <= 4.0)) {
        HOARD_FATAL("size_class_base (%f) must be in (1, 4]",
                    size_class_base);
    }
    if (min_block_bytes < 8 || min_block_bytes % 8 != 0) {
        HOARD_FATAL("min_block_bytes (%zu) must be a multiple of 8 >= 8",
                    min_block_bytes);
    }
    if (heap_count < 1 || heap_count > 4096)
        HOARD_FATAL("heap_count (%d) must be in [1, 4096]", heap_count);
    if (min_block_bytes >= superblock_bytes / 4) {
        HOARD_FATAL("min_block_bytes (%zu) too large for superblock (%zu)",
                    min_block_bytes, superblock_bytes);
    }
    if (global_fetch_batch < 1 || global_fetch_batch > 1024) {
        HOARD_FATAL("global_fetch_batch (%zu) must be in [1, 1024]",
                    global_fetch_batch);
    }
    if (thread_cache_batch > 0 &&
        thread_cache_batch > thread_cache_blocks) {
        HOARD_FATAL("thread_cache_batch (%u) must not exceed"
                    " thread_cache_blocks (%u)",
                    thread_cache_batch, thread_cache_blocks);
    }
    if (!detail::is_pow2(obs_ring_events) || obs_ring_events < 2) {
        HOARD_FATAL("obs_ring_events (%zu) must be a power of two >= 2",
                    obs_ring_events);
    }
    if (!detail::is_pow2(obs_sample_slots) || obs_sample_slots < 2) {
        HOARD_FATAL("obs_sample_slots (%zu) must be a power of two >= 2",
                    obs_sample_slots);
    }
    if (!detail::is_pow2(profile_site_slots) || profile_site_slots < 2) {
        HOARD_FATAL("profile_site_slots (%zu) must be a power of two >= 2",
                    profile_site_slots);
    }
    if (!detail::is_pow2(profile_live_slots) || profile_live_slots < 2) {
        HOARD_FATAL("profile_live_slots (%zu) must be a power of two >= 2",
                    profile_live_slots);
    }
    if (profile_max_frames < 1 || profile_max_frames > 64) {
        HOARD_FATAL("profile_max_frames (%d) must be in [1, 64]",
                    profile_max_frames);
    }
    if (latency_sample_period < 1) {
        HOARD_FATAL("latency_sample_period (%u) must be >= 1",
                    latency_sample_period);
    }
    if (purge_interval_ticks < 1) {
        HOARD_FATAL("purge_interval_ticks (%llu) must be >= 1",
                    static_cast<unsigned long long>(
                        purge_interval_ticks));
    }
}

}  // namespace hoard
