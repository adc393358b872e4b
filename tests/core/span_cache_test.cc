/**
 * @file
 * The medium span cache (core/span_cache.h): its classes; its park,
 * decommit and evict rules on header-only spans; and, through a
 * HoardAllocator, reuse without a map, snapshots with spans parked,
 * reclaim, the purge pass, teardown at the slack, the simulator's
 * charge for a reuse, and a concurrent churn.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/hoard_allocator.h"
#include "core/span_cache.h"
#include "core/superblock.h"
#include "os/page_provider.h"
#include "policy/native_policy.h"
#include "policy/sim_policy.h"
#include "sim/cost_model.h"
#include "sim/machine.h"
#include "tests/core/span_cache_util.h"

namespace hoard {
namespace {

using Cache = SpanCache<NativePolicy>;
using NativeHoard = HoardAllocator<NativePolicy>;

constexpr std::size_t kS = 8192;
constexpr std::size_t kSlack = 8 * kS;  // K * S at the defaults
constexpr std::size_t kCeiling = Cache::kCeilingBytes;
constexpr std::size_t kHeader = Superblock::header_bytes();

TEST(SpanCache, FourClassesPerOctaveFromHalfSToTheCeiling)
{
    Cache cache(kS, 0.25, kSlack);
    ASSERT_EQ(cache.class_count(), 24);  // six octaves, 4 to 256 KiB
    EXPECT_EQ(cache.class_bytes(0), 5120u);
    EXPECT_EQ(cache.class_bytes(3), 8192u);
    EXPECT_EQ(cache.class_bytes(4), 10240u);
    EXPECT_EQ(cache.class_bytes(23), kCeiling);
    EXPECT_EQ(cache.max_span_bytes(), kCeiling);
    for (int cls = 0; cls < cache.class_count(); ++cls) {
        const std::size_t bytes = cache.class_bytes(cls);
        EXPECT_EQ(cache.class_for(bytes), cls);
        EXPECT_EQ(cache.class_for(bytes + 1),
                  cls + 1 < cache.class_count() ? cls + 1 : -1);
        // Rounding up to the class wastes at most 25%.
        if (cls > 0) {
            EXPECT_LE(bytes * 4, cache.class_bytes(cls - 1) * 5);
        }
    }
    EXPECT_EQ(cache.class_for(1), 0);  // aligned requests below S/2
    EXPECT_EQ(cache.class_for(kS / 2 + 1), 0);

    Cache smallest(1024, 0.25, 8 * 1024);
    EXPECT_EQ(smallest.class_count(), Cache::kMaxClasses);
    EXPECT_EQ(smallest.class_bytes(Cache::kMaxClasses - 1), kCeiling);
    Cache none(std::size_t{512} << 10, 0.25, 0);
    EXPECT_EQ(none.class_count(), 0);
    EXPECT_EQ(none.class_for(4096), -1);
}

/** Header-only stand-ins for medium spans: the cache reads and writes
    nothing past a span's header. */
class SpanCacheRules : public ::testing::Test
{
  protected:
    struct alignas(64) Header
    {
        unsigned char bytes[kHeader];
    };

    /** malloc as the allocator does it: a parked span or a new one. */
    Superblock*
    take(std::size_t need)
    {
        const int cls = cache_.class_for(need);
        Superblock* sb = cache_.acquire(cls, need);
        std::size_t resident = need;
        void* memory = sb;
        if (sb != nullptr) {
            resident = std::max(need, sb->resident_bytes());
        } else {
            headers_.push_back(std::make_unique<Header>());
            memory = headers_.back()->bytes;
        }
        sb = Superblock::create_huge(memory, cache_.class_bytes(cls),
                                     kHeader, need - kHeader);
        sb->set_resident_bytes(resident);
        return sb;
    }

    /** free as the allocator does it. */
    Cache::Decommits
    give(Superblock* sb)
    {
        sb->close_free_window();
        return cache_.release(sb);
    }

    /** Detaches every parked span, oldest first. */
    std::vector<Superblock*>
    drain()
    {
        std::vector<Superblock*> out;
        while (Superblock* sb = cache_.take_oldest_if(
                   [](const Superblock*) { return true; }))
            out.push_back(sb);
        return out;
    }

    Cache cache_{kS, 0.25, kSlack};
    std::vector<std::unique_ptr<Header>> headers_;
};

TEST_F(SpanCacheRules, ParkDecommitAndEvictFollowTheBound)
{
    // Twelve live spans of r = 100000: U = Û = 1.2 MB.  Each free parks
    // only if C + r <= min(U/3 + K*S, Û - U - M), U after the free,
    // M = 256 KiB, K*S = 64 KiB; a free that cannot park also evicts
    // the largest parked span when C > the bound + U/3.
    constexpr std::size_t r = 100000;
    std::vector<Superblock*> live;
    for (int i = 0; i < 12; ++i)
        live.push_back(take(r));
    EXPECT_EQ(cache_.in_use_bytes(), 12 * r);
    EXPECT_EQ(cache_.high_water_bytes(), 12 * r);

    struct Expect
    {
        bool parks;
        int evicts;  ///< index into live, or -1
    };
    const Expect expect[12] = {
        {false, -1},  // Û - U - M = r - M: no room below the peak
        {false, -1},  // 2r - M
        {false, -1},  // 3r - M = 37856 < r
        {true, -1},   // 4r - M = 137856; U/3 + K*S = 332202
        {true, -1},   // C = 2r <= 237856 and 298869
        {false, -1},  // U = 600000: bound 265536 < 3r; C = 2r stays
        {false, -1},  // U = 500000: 232202 < 3r; 2r <= 232202 + U/3
        {false, -1},  // U = 400000: 2r over 198869 but not 332202
        {false, -1},  // U = 300000: 2r <= 265535
        {false, 3},   // U = 200000: 2r > 132202 + 66666: one goes
        {false, -1},  // U = 100000: C = r <= 98869 + 33333
        {false, 4},   // U = 0: C = r > K*S = 65536: the last one goes
    };
    for (int i = 0; i < 12; ++i) {
        SCOPED_TRACE(i);
        const Cache::Decommits out = give(live[i]);
        EXPECT_EQ(out.freed, expect[i].parks ? nullptr : live[i]);
        EXPECT_EQ(out.evicted,
                  expect[i].evicts < 0 ? nullptr : live[expect[i].evicts]);
    }
    EXPECT_EQ(cache_.in_use_bytes(), 0u);
    EXPECT_EQ(cache_.parked_bytes(), 0u);
    EXPECT_EQ(cache_.parked_count(), 0u);
    EXPECT_EQ(cache_.high_water_bytes(), 12 * r);
}

TEST_F(SpanCacheRules, ReuseIsNewestFirstAndEvictionOldestFirst)
{
    // U = 2 MiB live; a 2 MiB burst raises Û to 4 MiB and is drained,
    // which leaves the bound at min(U/3 + K*S, Û - U - M) = 764586.
    std::vector<Superblock*> ballast;
    for (int i = 0; i < 8; ++i)
        ballast.push_back(take(kCeiling));
    std::vector<Superblock*> burst;
    for (int i = 0; i < 8; ++i)
        burst.push_back(take(kCeiling));
    for (Superblock* sb : burst)
        give(sb);
    drain();
    ASSERT_EQ(cache_.parked_bytes(), 0u);
    ASSERT_EQ(cache_.in_use_bytes(), 8 * kCeiling);

    Superblock* x = take(50000);
    Superblock* y = take(50000);
    EXPECT_EQ(give(x).freed, nullptr);
    EXPECT_EQ(give(y).freed, nullptr);
    EXPECT_EQ(cache_.parked_bytes(), 100000u);

    // A smaller request of the class takes the newest span and keeps
    // its larger resident estimate.
    ASSERT_EQ(cache_.class_for(49500), cache_.class_for(50000));
    Superblock* again = take(49500);
    EXPECT_EQ(again, y);
    EXPECT_EQ(again->resident_bytes(), 50000u);
    EXPECT_EQ(cache_.in_use_bytes(), 8 * kCeiling + 50000);
    EXPECT_EQ(cache_.parked_bytes(), 50000u);

    // Across classes, eviction runs in park order: x, then p, then q.
    Superblock* p = take(20000);
    Superblock* q = take(150000);
    ASSERT_NE(cache_.class_for(20000), cache_.class_for(150000));
    EXPECT_EQ(give(p).freed, nullptr);
    EXPECT_EQ(give(q).freed, nullptr);
    EXPECT_EQ(cache_.parked_count(), 3u);

    // A predicate that refuses the oldest stops the walk.
    EXPECT_EQ(cache_.take_oldest_if([](const Superblock*) { return false; }),
              nullptr);
    EXPECT_EQ(cache_.parked_count(), 3u);
    const std::vector<Superblock*> order = drain();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], x);
    EXPECT_EQ(order[1], p);
    EXPECT_EQ(order[2], q);
    EXPECT_EQ(cache_.parked_bytes(), 0u);
}

TEST_F(SpanCacheRules, FarOverTheBoundShedsTheLargestThenDrainsAtZero)
{
    // U = 1 MiB live in four ceiling spans; a burst raised Û to 2 MiB.
    std::vector<Superblock*> ballast;
    for (int i = 0; i < 4; ++i)
        ballast.push_back(take(kCeiling));
    std::vector<Superblock*> burst;
    for (int i = 0; i < 4; ++i)
        burst.push_back(take(kCeiling));
    for (Superblock* sb : burst)
        give(sb);
    drain();

    // Three spans of three classes park: C = 180000.
    Superblock* p = take(50000);
    Superblock* q = take(60000);
    Superblock* w = take(70000);
    EXPECT_EQ(give(p).freed, nullptr);
    EXPECT_EQ(give(q).freed, nullptr);
    EXPECT_EQ(give(w).freed, nullptr);
    ASSERT_EQ(cache_.parked_bytes(), 180000u);

    // While anything is live, C stays under bound + U/3 (589824,
    // 415060, 240298): each ballast span is decommitted alone.
    for (int i = 0; i < 3; ++i) {
        SCOPED_TRACE(i);
        const Cache::Decommits out = give(ballast[i]);
        EXPECT_EQ(out.freed, ballast[i]);
        EXPECT_EQ(out.evicted, nullptr);
    }
    // The free that leaves nothing live sheds down to K*S = 65536,
    // largest first: w, then q; p, the oldest, stays.
    const Cache::Decommits out = give(ballast[3]);
    EXPECT_EQ(out.freed, ballast[3]);
    ASSERT_EQ(out.evicted, w);
    ASSERT_EQ(w->cache_next.load(), q);
    EXPECT_EQ(q->cache_next.load(), nullptr);
    EXPECT_EQ(cache_.parked_bytes(), 50000u);
    EXPECT_EQ(drain(), std::vector<Superblock*>{p});
}

TEST_F(SpanCacheRules, FailedMapGivesItsChargeBack)
{
    const int cls = cache_.class_for(40000);
    EXPECT_EQ(cache_.acquire(cls, 40000), nullptr);
    EXPECT_EQ(cache_.in_use_bytes(), 40000u);
    cache_.cancel(40000);
    EXPECT_EQ(cache_.in_use_bytes(), 0u);
}

/** Primes @p a's span cache (span_cache_util.h). */
std::vector<void*>
prime(NativeHoard& a)
{
    return testing_util::prime_span_cache(
        [&a](std::size_t n) { return a.allocate(n); },
        [&a](void* p) { a.deallocate(p); },
        [&a] { a.release_free_memory(); });
}

void
free_all(NativeHoard& a, std::vector<void*>& ptrs)
{
    for (void* p : ptrs)
        a.deallocate(p);
    ptrs.clear();
}

TEST(SpanCacheAllocator, FreedSpanIsReusedWithoutAMap)
{
    NativeHoard a;
    std::vector<void*> live = prime(a);
    const std::size_t bytes = std::size_t{32} << 10;
    void* p = a.allocate(bytes);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0x5a, bytes);
    a.deallocate(p);
    EXPECT_EQ(a.span_cache().parked_count(), 1u);

    const std::uint64_t reuses = a.stats().medium_reuses.get();
    const std::uint64_t huge = a.stats().huge_allocs.get();
    const std::size_t held = a.stats().held_bytes.current();
    void* q = a.allocate(bytes);
    EXPECT_EQ(q, p);
    EXPECT_EQ(a.stats().medium_reuses.get(), reuses + 1);
    EXPECT_EQ(a.stats().huge_allocs.get(), huge + 1);  // still counted
    EXPECT_EQ(a.stats().held_bytes.current(), held);   // nothing mapped
    EXPECT_EQ(a.usable_size(q), bytes);
    EXPECT_EQ(a.span_cache().parked_count(), 0u);
    a.deallocate(q);
    free_all(a, live);
    EXPECT_EQ(a.stats().in_use_bytes.current(), 0u);
}

TEST(SpanCacheAllocator, SnapshotReconcilesWhileParkedAndReclaimTakesAll)
{
    NativeHoard a;
    std::vector<void*> live = prime(a);
    std::vector<void*> spans;
    for (std::size_t kib : {5, 12, 40, 100, 200})
        spans.push_back(a.allocate(kib << 10));
    free_all(a, spans);

    obs::AllocatorSnapshot snap = a.take_snapshot();
    EXPECT_TRUE(snap.reconciles());
    EXPECT_EQ(snap.parked_count, 5u);
    EXPECT_GT(snap.parked_span_bytes, 0u);
    EXPECT_EQ(snap.huge_count, live.size());
    EXPECT_EQ(snap.stats.committed_bytes, snap.stats.held_bytes);

    const std::uint64_t decommits = a.stats().medium_decommits.get();
    EXPECT_GE(a.release_free_memory(), snap.parked_span_bytes);
    EXPECT_EQ(a.stats().medium_decommits.get(), decommits + 5);
    EXPECT_EQ(a.span_cache().parked_count(), 0u);
    EXPECT_EQ(a.span_cache().parked_bytes(), 0u);
    snap = a.take_snapshot();
    EXPECT_TRUE(snap.reconciles());
    EXPECT_EQ(snap.parked_count, 0u);
    free_all(a, live);
}

TEST(SpanCacheAllocator, PurgePassDecommitsParkedSpans)
{
    NativeHoard a;
    std::vector<void*> live = prime(a);
    std::vector<void*> spans;
    for (std::size_t kib : {8, 64})
        spans.push_back(a.allocate(kib << 10));
    free_all(a, spans);
    ASSERT_EQ(a.span_cache().parked_count(), 2u);

    const std::size_t committed = a.stats().committed_bytes.current();
    EXPECT_GT(a.purge(/*force=*/true), 0u);
    EXPECT_EQ(a.span_cache().parked_count(), 0u);
    EXPECT_LT(a.stats().committed_bytes.current(), committed);
    EXPECT_TRUE(a.take_snapshot().reconciles());
    free_all(a, live);
}

TEST(SpanCacheAllocator, TeardownKeepsAtMostTheSlack)
{
    // Once nothing medium is live the invariant term is K*S alone, and
    // each free evicts up to one span, so freeing at least as many
    // spans as are parked leaves at most K*S resident bytes parked.
    NativeHoard a;
    std::vector<void*> live = prime(a);
    std::vector<void*> more;
    for (std::size_t i = 1; i <= 8; ++i)
        more.push_back(a.allocate((std::size_t{8} << 10) * i));
    free_all(a, more);
    EXPECT_GT(a.span_cache().parked_count(), 1u);
    free_all(a, live);
    EXPECT_EQ(a.span_cache().in_use_bytes(), 0u);
    EXPECT_LE(a.span_cache().parked_bytes(),
              a.config().slack_superblocks * a.config().superblock_bytes);
    EXPECT_TRUE(a.take_snapshot().reconciles());
}

TEST(SpanCacheAllocator, SimChargesAReuseAsAListOp)
{
    os::MmapPageProvider provider;
    Config config = sim_config();
    config.heap_count = 1;
    HoardAllocator<SimPolicy> a(config, provider);
    sim::Machine machine(1);
    std::uint64_t fresh = 0;
    std::uint64_t reuse = 0;
    machine.spawn(0, 0, [&] {
        std::vector<void*> live = testing_util::prime_span_cache(
            [&a](std::size_t n) { return a.allocate(n); },
            [&a](void* p) { a.deallocate(p); },
            [&a] { a.release_free_memory(); });
        const std::size_t bytes = std::size_t{32} << 10;
        std::uint64_t t0 = SimPolicy::timestamp();
        void* p = a.allocate(bytes);
        fresh = SimPolicy::timestamp() - t0;
        a.deallocate(p);
        t0 = SimPolicy::timestamp();
        void* q = a.allocate(bytes);
        reuse = SimPolicy::timestamp() - t0;
        EXPECT_EQ(q, p);
        a.deallocate(q);
        for (void* r : live)
            a.deallocate(r);
    });
    machine.run();
    const sim::CostModel costs;
    EXPECT_GE(fresh, costs.os_map);
    EXPECT_LT(reuse, costs.os_map);
}

TEST(SpanCacheAllocator, ConcurrentChurnStaysExact)
{
    // Four threads churn private tables of medium buffers across every
    // class edge, half of them through calloc, and check every byte
    // pattern before each free: a span parked by one thread is reused
    // by another while evictions decommit under their feet.
    constexpr int kThreads = 4;
    constexpr int kSlots = 8;
    constexpr int kRounds = 1500;
    Config config;
    config.heap_count = kThreads;
    NativeHoard a(config);
    std::atomic<int> corrupt{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&a, &corrupt, t] {
            detail::Rng rng(0x5eed + static_cast<std::uint64_t>(t));
            struct Slot
            {
                unsigned char* p = nullptr;
                std::size_t n = 0;
                unsigned char tag = 0;
            };
            Slot slots[kSlots];
            auto check = [&corrupt](const Slot& s) {
                for (std::size_t off = 0; off < s.n; off += 4096)
                    if (s.p[off] != s.tag)
                        ++corrupt;
                if (s.p[s.n - 1] != s.tag)
                    ++corrupt;
            };
            for (int i = 0; i < kRounds; ++i) {
                Slot& s = slots[rng.below(kSlots)];
                if (s.p != nullptr) {
                    check(s);
                    a.deallocate(s.p);
                }
                const std::size_t octave = std::size_t{4096}
                                           << rng.below(6);
                s.n = octave + rng.below(octave);
                s.tag = static_cast<unsigned char>(1 + rng.below(255));
                if (rng.below(2) == 0) {
                    s.p = static_cast<unsigned char*>(a.allocate_zeroed(s.n));
                    for (std::size_t off = 0; off < s.n; off += 512)
                        if (s.p[off] != 0)
                            ++corrupt;
                } else {
                    s.p = static_cast<unsigned char*>(a.allocate(s.n));
                }
                for (std::size_t off = 0; off < s.n; off += 4096)
                    s.p[off] = s.tag;
                s.p[s.n - 1] = s.tag;
            }
            for (Slot& s : slots) {
                if (s.p != nullptr) {
                    check(s);
                    a.deallocate(s.p);
                }
            }
        });
    }
    for (std::thread& th : threads)
        th.join();
    EXPECT_EQ(corrupt.load(), 0);
    EXPECT_GT(a.stats().medium_reuses.get(), 0u);
    EXPECT_EQ(a.stats().in_use_bytes.current(), 0u);
    EXPECT_EQ(a.span_cache().in_use_bytes(), 0u);
    obs::AllocatorSnapshot snap = a.take_snapshot();
    EXPECT_TRUE(snap.reconciles());
    EXPECT_EQ(snap.huge_count, 0u);
    EXPECT_TRUE(a.check_invariants());
}

}  // namespace
}  // namespace hoard
